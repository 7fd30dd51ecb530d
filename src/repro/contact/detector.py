"""Contact detection over a mobility model.

A *contact* is a maximal interval during which two nodes are within
communication range.  The tracer advances mobility on a fixed tick and
realizes every contact of the run as data: a :class:`ContactTable` of
columnar ``(a, b, start, end)`` arrays, which the contact-level
simulator's exchange loop consumes and standalone callers read as
:class:`Contact` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mobility.manager import MobilityManager, sweep_in_range
from repro.obs.bus import TelemetryBus
from repro.obs.events import ContactEnd, ContactStart
from repro.scenario.plan import ContactPlan

#: Position rows (ticks x nodes) a tracer buffers before one sweep: 19
#: ticks at the contact-geo benchmark's 206 nodes, fewer at larger
#: populations, so the block and the sweep's temporaries stay near
#: 1 MiB at any size.  At 206 nodes on a 2-core x86-64 host, stage 1
#: cost the same CPU from 4,096 to 16,384 rows, and 16,384 rows raised
#: peak memory by about 2 MiB.
BLOCK_ROWS = 4096

#: Most ticks one block holds.
BLOCK_TICKS = 64


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


@dataclass(frozen=True)
class ContactTable:
    """A run's contacts as columns, in processing order.

    Row ``i`` is the window ``[start[i], end[i]]`` of nodes ``a[i] <
    b[i]`` (plan windows keep their listed endpoints).  Rows are in the
    order the exchange loop processes them: by end, ties by pair for
    geometric contacts (windows still open at the horizon last, in pair
    order) and by ``(end, start, a, b)`` for plan windows.  ``clock`` is
    the last instant the source reached: arrivals are due up to
    ``min(end, clock)`` before a window's exchange.  ``rate_bps`` holds
    per-window link rates (plan windows) or is None (the configured
    bandwidth).
    """

    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    clock: float
    rate_bps: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def from_plan(cls, plan: ContactPlan, horizon: float) -> "ContactTable":
        """The plan's windows as replayed up to ``horizon``.

        Windows are ordered by ``(end, start, a, b)``; those starting at
        or after the horizon are dropped and one straddling it is
        truncated to it, as the geometric tracer closes open contacts.
        """
        rows = sorted(plan.contacts, key=lambda c: (c.end, c.start, c.a, c.b))
        rows = [c for c in rows if c.start < horizon]
        return cls(a=np.array([c.a for c in rows], dtype=np.int64),
                   b=np.array([c.b for c in rows], dtype=np.int64),
                   start=np.array([c.start for c in rows], dtype=float),
                   end=np.array([min(c.end, horizon) for c in rows],
                                dtype=float),
                   clock=horizon,
                   rate_bps=np.array([c.rate_bps for c in rows], dtype=float))

    def due(self) -> np.ndarray:
        """Per row, the instant arrivals are flushed to before its
        exchange: ``min(end, clock)``."""
        return np.minimum(self.end, self.clock)

    def openings(self) -> Tuple[List[int], List[int]]:
        """When each contact's start is observed, relative to the rows.

        Returns ``(opening, opened)``: row indices ordered by ``(start,
        a, b)``, and per row how many of them start no later than its
        due instant, so the starts ``opening[opened[i - 1]:opened[i]]``
        go out before row ``i``'s end.
        """
        opening = np.lexsort((self.b, self.a, self.start))
        opened = np.searchsorted(self.start[opening], self.due(),
                                 side="right")
        return opening.tolist(), opened.tolist()

    def contacts(self) -> List[Contact]:
        """The rows as :class:`Contact` records, in table order."""
        return [Contact(a, b, start, end) for a, b, start, end in zip(
            self.a.tolist(), self.b.tolist(), self.start.tolist(),
            self.end.tolist())]


class ContactTracer:
    """Walks mobility forward and realizes its contacts as a table.

    Each :meth:`scan` copies the tick's positions into a block of at
    most :data:`BLOCK_TICKS` ticks; a full block is swept at once by
    :func:`~repro.mobility.manager.sweep_in_range`, and its sorted
    int64 ``(pair, tick)`` codes are cut into runs of consecutive ticks.
    A run that ends inside the block is a finished contact; one reaching
    the block's last tick stays open into the next block.
    :meth:`close` sweeps the rest and closes open windows at the
    horizon.  A pair in range during ticks ``s..e-1`` and out of range
    at tick ``e`` is the contact ``[t_s, t_e]``.

    A tracer realizes one run.  With :meth:`subscribe`, :meth:`close`
    also publishes :class:`~repro.obs.events.ContactStart` /
    ``ContactEnd`` on a telemetry bus, in tick order: each tick's starts,
    then its ends, each in pair order.
    """

    def __init__(self, mobility: MobilityManager) -> None:
        self._mobility = mobility
        self._bus: Optional[TelemetryBus] = None
        n = len(mobility.node_ids)
        self._ids = np.array(mobility.node_ids, dtype=np.int64)
        ticks = max(1, min(BLOCK_TICKS, BLOCK_ROWS // max(n, 1)))
        self._block = np.empty((ticks, n, 2), dtype=float)
        self._filled = 0
        #: Instant of every scanned tick, in order.
        self._times: List[float] = []
        # Windows open after the last swept tick: sorted pair codes
        # (``low_row * n + high_row``) and the tick each opened at.
        self._open_pairs = np.empty(0, dtype=np.int64)
        self._open_since = np.empty(0, dtype=np.int64)
        # Finished windows per block: pair codes, first and end ticks.
        self._pairs: List[np.ndarray] = []
        self._since: List[np.ndarray] = []
        self._until: List[np.ndarray] = []

    def subscribe(self, bus: TelemetryBus) -> None:
        """Publish contact start/end events on ``bus`` from now on."""
        self._bus = bus

    def scan(self, now: float) -> None:
        """Record the current positions as the tick at ``now``."""
        self._block[self._filled] = self._mobility.positions
        self._filled += 1
        self._times.append(now)
        if self._filled == len(self._block):
            self._sweep()

    def _sweep(self) -> None:
        """Turn the buffered ticks' in-range pairs into windows."""
        ticks = self._filled
        if not ticks:
            return
        self._filled = 0
        base = len(self._times) - ticks  # global index of block tick 0
        tick, low, high = sweep_in_range(self._block[:ticks],
                                         self._mobility.comm_range)
        # One sorted code per (pair, tick); windows carried open from the
        # previous block enter at tick -1.
        stride = ticks + 1
        codes = np.concatenate(((low * len(self._ids) + high) * stride
                                + tick + 1, self._open_pairs * stride))
        if not len(codes):
            return
        codes.sort()
        pair = codes // stride
        tick = codes % stride - 1
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = (pair[1:] != pair[:-1]) | (tick[1:] != tick[:-1] + 1)
        firsts = np.flatnonzero(fresh)
        lasts = np.append(firsts[1:] - 1, len(codes) - 1)
        run_pair = pair[firsts]
        since = tick[firsts] + base
        # Carried runs come in pair order, as the carried arrays do.
        since[tick[firsts] < 0] = self._open_since
        last = tick[lasts]
        still = last == ticks - 1
        self._open_pairs = run_pair[still]
        self._open_since = since[still]
        done = ~still
        until = last[done] + base + 1
        order = np.lexsort((run_pair[done], until))
        self._pairs.append(run_pair[done][order])
        self._since.append(since[done][order])
        self._until.append(until[order])

    def close(self, now: float) -> ContactTable:
        """Close still-open contacts at ``now`` and return every contact.

        Rows are the finished windows by end tick, ties by pair, then
        the windows open at ``now`` in pair order.
        """
        self._sweep()
        horizon = len(self._times)  # index of ``now`` in ``times`` below
        pairs = np.concatenate(self._pairs + [self._open_pairs])
        since = np.concatenate(self._since + [self._open_since])
        until = np.concatenate(self._until + [np.full(
            len(self._open_pairs), horizon, dtype=np.int64)])
        times = np.array(self._times + [now], dtype=float)
        n = len(self._ids)
        table = ContactTable(a=self._ids[pairs // n], b=self._ids[pairs % n],
                             start=times[since], end=times[until],
                             clock=self._times[-1] if self._times else now)
        bus = self._bus
        if bus is not None:
            # Each start goes out before the first end due at or after it.
            a, b = table.a.tolist(), table.b.tolist()
            start, end = table.start.tolist(), table.end.tolist()
            opening, opened = table.openings()
            done = 0
            for i, ended in enumerate(end):
                for j in opening[done:opened[i]]:
                    bus.emit(ContactStart(time=start[j], a=a[j], b=b[j]))
                done = opened[i]
                bus.emit(ContactEnd(time=ended, a=a[i], b=b[i],
                                    started=start[i]))
        return table

    def realize(self, duration: float, tick: float = 1.0) -> ContactTable:
        """Advance mobility to ``duration`` and return its contact table."""
        if duration <= 0 or tick <= 0:
            raise ValueError("duration and tick must be positive")
        now = 0.0
        self.scan(now)
        while now < duration:
            step = min(tick, duration - now)
            self._mobility.step(step)
            now += step
            self.scan(now)
        return self.close(duration)

    def run(self, duration: float, tick: float = 1.0) -> List[Contact]:
        """Advance mobility to ``duration`` and return completed contacts."""
        return self.realize(duration, tick).contacts()


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
