"""Contact detection over a mobility model.

A *contact* is a maximal interval during which two nodes are within
communication range.  The tracer advances mobility on a fixed tick and
emits contact start/end events; it can run standalone (producing a
contact trace for analysis) or drive the contact-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.mobility.manager import MobilityManager
from repro.obs.bus import TelemetryBus
from repro.obs.events import ContactEnd, ContactStart


@dataclass(frozen=True)
class Contact:
    """One completed contact between nodes ``a`` and ``b``."""

    a: int
    b: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the pair stayed within range."""
        return self.end - self.start

    def involves(self, node_id: int) -> bool:
        """Whether ``node_id`` is one of the contact's endpoints."""
        return node_id in (self.a, self.b)


class ContactTracer:
    """Walks mobility forward and reports contact starts/ends.

    Events reach listeners through :meth:`subscribe`, which publishes
    :class:`~repro.obs.events.ContactStart` / ``ContactEnd`` on a
    telemetry bus.  :meth:`run` returns the list of completed contacts
    (open contacts are closed at the horizon).
    """

    def __init__(self, mobility: MobilityManager) -> None:
        self._mobility = mobility
        self._bus: Optional[TelemetryBus] = None
        # Open contacts keyed by the (a, b) pair with a < b; tuples sort
        # directly, so the scan needs no per-pair re-sorting.
        self._active: Dict[Tuple[int, int], float] = {}
        self.contacts: List[Contact] = []

    def subscribe(self, bus: TelemetryBus) -> None:
        """Publish contact start/end events on ``bus`` from now on."""
        self._bus = bus

    @property
    def active_pairs(self) -> Set[FrozenSet[int]]:
        """Pairs currently within range (open contacts)."""
        return {frozenset(pair) for pair in self._active}

    def scan(self, now: float) -> None:
        """Compare the current in-range pairs against the active set."""
        current = self._mobility.in_range_pairs()

        # One symmetric difference over already-sorted pairs, iterated in
        # sorted order: set iteration order is hash-dependent (DET003),
        # and the start/end events feed the contact-level simulator's
        # scheduling.  Starts are processed before ends, as always.
        changed = sorted(current.symmetric_difference(self._active))
        bus = self._bus
        for pair in changed:
            if pair not in current:
                continue
            self._active[pair] = now
            a, b = pair
            if bus is not None:
                bus.emit(ContactStart(time=now, a=a, b=b))
        for pair in changed:
            if pair in current:
                continue
            started = self._active.pop(pair)
            a, b = pair
            self.contacts.append(Contact(a, b, started, now))
            if bus is not None:
                bus.emit(ContactEnd(time=now, a=a, b=b, started=started))

    def run(self, duration: float, tick: float = 1.0) -> List[Contact]:
        """Advance mobility to ``duration`` and return completed contacts."""
        if duration <= 0 or tick <= 0:
            raise ValueError("duration and tick must be positive")
        now = 0.0
        self.scan(now)
        while now < duration:
            step = min(tick, duration - now)
            self._mobility.step(step)
            now += step
            self.scan(now)
        self.close(duration)
        return self.contacts

    def close(self, now: float) -> None:
        """Close any still-open contacts at time ``now``."""
        bus = self._bus
        for pair, started in sorted(self._active.items()):
            a, b = pair
            self.contacts.append(Contact(a, b, started, now))
            if bus is not None:
                bus.emit(ContactEnd(time=now, a=a, b=b, started=started))
        self._active.clear()


def contact_statistics(contacts: List[Contact]) -> Dict[str, float]:
    """Aggregate statistics of a contact trace (for workload reports)."""
    if not contacts:
        return {"count": 0, "mean_duration_s": float("nan"),
                "total_contact_s": 0.0}
    durations = [c.duration for c in contacts]
    return {
        "count": float(len(contacts)),
        "mean_duration_s": sum(durations) / len(durations),
        "total_contact_s": sum(durations),
    }
