"""The contact-level simulator.

Advances mobility on a tick, detects contacts, and at each contact's end
runs a capacity-limited bidirectional exchange between the two nodes'
policies.  Transfer timestamps are spread across the contact interval so
delay metrics remain meaningful.

No MAC is modeled: the exchange is contention-free, limited only by
``duration * bandwidth / message_bits`` (scaled by ``mac_efficiency`` to
approximate protocol overhead).  Results therefore upper-bound the
packet-level simulator's, with matching protocol *orderings*.

Two mobility regimes feed the exchange loop (docs/SCENARIOS.md):

* **geometric** (default): synthetic zone-grid motion scanned by the
  :class:`~repro.contact.detector.ContactTracer`;
* **plan replay** (``plan_path`` or a plan-driven ``scenario``): the
  parsed :class:`~repro.scenario.plan.ContactPlan` windows are fed
  straight into the exchange loop, bypassing geometry entirely — the
  same plan can then drive the packet-level simulator for a like-for-like
  comparison on an identical contact sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.contact.detector import Contact, ContactTracer
from repro.contact.policies import ContactPolicy
from repro.core.message import DataMessage, fresh_message_id
from repro.des.rng import RandomStreams
from repro.des.scheduler import EventScheduler
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import Area
from repro.mobility.manager import MobilityManager
from repro.mobility.stationary import StationaryMobility
from repro.mobility.zone import ZoneGridMobility
from repro.obs.bus import TelemetryBus
from repro.obs.events import ContactEnd, ContactStart, TelemetryEvent
from repro.obs.export import writer_for_path
from repro.scenario.plan import ContactPlan, load_contact_plan, parse_contact_plan
from repro.scenario.spec import ScenarioSpec


def _contact_policies() -> Mapping[str, Type[ContactPolicy]]:
    """The live policy table of the :mod:`repro.protocols` registry.

    Resolved lazily: registering the built-in zoo imports
    :mod:`repro.contact.policies`, which initializes this package, so a
    module-level import of ``repro.protocols`` here would cycle
    (docs/PROTOCOLS.md).
    """
    from repro.protocols import CONTACT_POLICIES
    return CONTACT_POLICIES


def __getattr__(name: str) -> object:
    # Back-compat: CONTACT_POLICIES has always been importable from this
    # module; it is now a live view of the repro.protocols registry, the
    # single source of truth for protocol dispatch at both levels.
    if name == "CONTACT_POLICIES":
        return _contact_policies()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ContactSimConfig:
    """Configuration of one contact-level run (paper-default topology)."""

    policy: str = "fad"
    seed: int = 1
    duration_s: float = 25_000.0
    n_sensors: int = 100
    n_sinks: int = 3
    area_m: float = 150.0
    zones_per_side: int = 5
    comm_range_m: float = 10.0
    speed_min_mps: float = 0.0
    speed_max_mps: float = 5.0
    exit_probability: float = 0.2
    tick_s: float = 1.0
    mean_arrival_s: float = 120.0
    message_bits: int = 1000
    bandwidth_bps: float = 10_000.0
    mac_efficiency: float = 0.5
    queue_capacity: int = 200
    #: Stream every bus event to this file (JSONL, or CSV for ``*.csv``),
    #: the same trace format packet-level runs emit (``dftmsn report``
    #: consumes both).
    trace_path: Optional[str] = None
    #: Replay an external ION-style contact plan (file path) instead of
    #: running synthetic mobility; see docs/SCENARIOS.md for the grammar.
    plan_path: Optional[str] = None
    #: Scenario provenance; a plan-driven spec (``mobility == "plan"``)
    #: replays its inline plan when ``plan_path`` is unset.
    scenario: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        if self.policy not in _contact_policies():
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"choose from {sorted(_contact_policies())}")
        if self.duration_s <= 0 or self.tick_s <= 0:
            raise ValueError("duration and tick must be positive")
        if not 0.0 < self.mac_efficiency <= 1.0:
            raise ValueError("mac_efficiency must be in (0, 1]")
        if self.n_sensors < 1 or self.n_sinks < 1:
            raise ValueError("need at least one sensor and one sink")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("invalid speed range: need "
                             "0 <= speed_min_mps <= speed_max_mps")
        if self.comm_range_m <= 0 or self.area_m <= 0:
            raise ValueError("geometry must be positive")
        if self.zones_per_side < 1:
            raise ValueError("zones_per_side must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.mean_arrival_s <= 0:
            raise ValueError("mean arrival interval must be positive")
        if self.message_bits < 1 or self.bandwidth_bps <= 0:
            raise ValueError("message size and bandwidth must be positive")
        # Normalize the scenario (JSON round trips yield plain dicts).
        if self.scenario is not None and not isinstance(self.scenario,
                                                        ScenarioSpec):
            if not isinstance(self.scenario, dict):
                raise ValueError(f"scenario must be a ScenarioSpec, "
                                 f"got {self.scenario!r}")
            object.__setattr__(self, "scenario",
                               ScenarioSpec.from_dict(self.scenario))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless plain-data view (for JSON / cross-process dispatch)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "scenario":
                value = None if value is None else value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ContactSimConfig":
        """Rebuild a config from :meth:`to_dict` output (lossless)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ContactSimConfig fields: {sorted(unknown)}")
        payload = dict(data)
        scenario = payload.get("scenario")
        if scenario is not None and not isinstance(scenario, ScenarioSpec):
            payload["scenario"] = ScenarioSpec.from_dict(scenario)  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]

    def resolved_plan(self) -> Optional[ContactPlan]:
        """The contact plan this config replays, if any.

        An explicit ``plan_path`` wins; otherwise a plan-driven scenario
        supplies its inline plan.  ``None`` means geometric mobility.
        """
        if self.plan_path is not None:
            return load_contact_plan(self.plan_path)
        if self.scenario is not None and self.scenario.mobility == "plan":
            assert self.scenario.plan is not None  # spec validates this
            return parse_contact_plan(self.scenario.plan)
        return None


@dataclass
class ContactSimResult:
    """Outcome of one contact-level run."""

    config: ContactSimConfig
    messages_generated: int
    messages_delivered: int
    delivery_ratio: float
    average_delay_s: Optional[float]
    average_hops: Optional[float]
    transfers: int
    contacts: int
    #: Contacts with at least one offer that reached ``accept``, whether
    #: stored or refused (fast-forwarded refusals count as reaching it).
    usable_contacts: int

    def transfers_per_delivery(self) -> Optional[float]:
        """Transfer overhead per delivered message."""
        if self.messages_delivered == 0:
            return None
        return self.transfers / self.messages_delivered


class ContactSimulation:
    """Builds and runs one contact-level simulation."""

    def __init__(self, config: ContactSimConfig) -> None:
        self.config = config
        self.collector = MetricsCollector()
        streams = RandomStreams(config.seed)
        sink_ids = list(range(config.n_sinks))
        sensor_ids = list(range(config.n_sinks,
                                config.n_sinks + config.n_sensors))

        # The exchange logic is itself a bus subscriber: the simulator
        # consumes the same contact.end events a trace exporter would.
        self.bus = TelemetryBus()
        self.plan = config.resolved_plan()
        self.mobility: Optional[MobilityManager] = None
        self._tracer: Optional[ContactTracer] = None
        if self.plan is not None:
            # Replay mode: the plan's windows are fed straight into the
            # exchange loop; no geometry, no mobility RNG consumption.
            self.plan.require_nodes(range(config.n_sinks + config.n_sensors))
        else:
            area = Area(config.area_m, config.area_m)
            sink_model = StationaryMobility(
                sink_ids, area, rng=streams.stream("sink-placement"))
            sensor_model = ZoneGridMobility(
                sensor_ids, area, streams.stream("mobility"),
                zones_per_side=config.zones_per_side,
                speed_min=config.speed_min_mps,
                speed_max=config.speed_max_mps,
                exit_probability=config.exit_probability,
            )
            # The manager is stepped manually; the scheduler is only a clock.
            self.mobility = MobilityManager(EventScheduler(), area,
                                            [sink_model, sensor_model],
                                            comm_range=config.comm_range_m,
                                            tick_s=config.tick_s)
            self._tracer = ContactTracer(self.mobility)
            self._tracer.subscribe(self.bus)
            self.bus.subscribe(ContactEnd.topic, self._on_contact_end_event)
        policy_cls = _contact_policies()[config.policy]
        self.policies: Dict[int, ContactPolicy] = {}
        for nid in sink_ids:
            self.policies[nid] = policy_cls(nid, capacity=config.queue_capacity,
                                            is_sink=True)
        for nid in sensor_ids:
            self.policies[nid] = policy_cls(nid, capacity=config.queue_capacity)

        self._arrivals = self._generate_arrivals(streams, sensor_ids)
        self.transfers = 0
        self.usable_contacts = 0
        self._replayed_contacts = 0

    def _on_contact_end_event(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ContactEnd)
        self._on_contact_end(event.a, event.b, event.started, event.time)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _generate_arrivals(self, streams: RandomStreams,
                           sensor_ids: List[int]) -> List[Tuple[float, int]]:
        """Pre-draw every Poisson arrival as (time, node), heap-ordered."""
        heap: List[Tuple[float, int]] = []
        for nid in sensor_ids:
            rng = streams.stream(f"traffic:{nid}")
            t = rng.expovariate(1.0 / self.config.mean_arrival_s)
            while t < self.config.duration_s:
                heap.append((t, nid))
                t += rng.expovariate(1.0 / self.config.mean_arrival_s)
        heapq.heapify(heap)
        return heap

    def _flush_arrivals(self, now: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= now:
            created_at, nid = heapq.heappop(self._arrivals)
            message = DataMessage(message_id=fresh_message_id(), origin=nid,
                                  created_at=created_at,
                                  size_bits=self.config.message_bits)
            self.collector.record_generation(message.message_id, created_at,
                                             origin=nid)
            self.policies[nid].enqueue_new(message)

    # ------------------------------------------------------------------
    # exchange
    # ------------------------------------------------------------------
    def _contact_capacity(self, contact: Contact,
                          rate_bps: Optional[float] = None) -> int:
        rate = self.config.bandwidth_bps if rate_bps is None else rate_bps
        per_message_s = self.config.message_bits / rate
        usable = contact.duration * self.config.mac_efficiency
        return int(usable / per_message_s)

    def _on_contact_end(self, a: int, b: int, start: float, end: float,
                        rate_bps: Optional[float] = None) -> None:
        contact = Contact(a, b, start, end)
        budget = self._contact_capacity(contact, rate_bps)
        if budget <= 0:
            return
        pa, pb = self.policies[a], self.policies[b]
        slot = contact.duration / max(budget, 1)
        used = 0
        stalled = 0
        # A *futile round* is an offer refused for threshold followed by
        # no offer back.  While one is open, ``refused`` holds the
        # refusing receiver, the refusal's accept instant and the copy's
        # time floor.  ``stable`` is the policies' stability bound taken
        # when the previous round closed futile (None once anything else
        # happened in between).
        refused: Optional[Tuple[ContactPolicy, float, float]] = None
        stable: Optional[float] = None
        # Alternate directions until the budget is spent or both stall.
        direction = 0
        while used < budget and stalled < 2:
            src, dst = (pa, pb) if direction == 0 else (pb, pa)
            direction ^= 1
            now = start + used * slot
            copy = src.wants_to_send(dst, now)
            if copy is None:
                stalled += 1
                if refused is None:
                    stable = None
                    continue
                receiver, accepted_at, floor = refused
                refused = None
                if stable is not None and max(accepted_at, now) < stable:
                    # A second futile round in a row, read entirely before
                    # the bound taken after the first: no read changed
                    # state (metric_stable_until), so every further round
                    # reading below that bound repeats it exactly.  Skip
                    # those, booking their refusals.
                    skip = _futile_rounds(start, end, slot, used, budget,
                                          floor, stable)
                    receiver.queue.stats.drops_threshold += skip
                    used += skip
                stable = min(pa.metric_stable_until(now),
                             pb.metric_stable_until(now))
                continue
            # Transfer instants are spread over the contact, but can never
            # precede the message's creation (it may have been sensed
            # mid-contact) or this copy's own arrival at the carrier.
            floor = max(copy.message.created_at, copy.received_at)
            if floor > end:
                # The copy only exists after this window closes (a
                # future-dated message or a stale replayed contact):
                # there is no instant inside [start, end] at which the
                # transfer could legally happen, so this direction
                # stalls instead of delivering from the future.
                stalled += 1
                refused = stable = None
                continue
            stalled = 0
            when = _transfer_instant(start, end, slot, used, floor)
            drops = dst.queue.stats.drops_threshold
            stored = dst.accept(copy, src, when)
            used += 1
            if stored is None:
                threshold = dst.queue.stats.drops_threshold != drops
                if refused is not None or not threshold:
                    # A refusal right after another one, or not for
                    # threshold, breaks the run of futile rounds.
                    stable = None
                refused = (dst, when, floor) if threshold else None
                continue
            refused = stable = None
            src.after_transfer(copy, dst, when)
            self.transfers += 1
            if dst.is_sink:
                # Record with the sender-side copy: the collector adds the
                # final hop into the sink itself.
                self.collector.record_delivery(copy, dst.node_id, when)
        if used:
            self.usable_contacts += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_geometric(self) -> None:
        """Advance mobility tick by tick, exchanging at contact ends."""
        cfg = self.config
        assert self.mobility is not None and self._tracer is not None
        now = 0.0
        self._tracer.scan(now)
        while now < cfg.duration_s:
            step = min(cfg.tick_s, cfg.duration_s - now)
            self.mobility.step(step)
            now += step
            self._flush_arrivals(now)
            self._tracer.scan(now)
        self._tracer.close(cfg.duration_s)

    def _run_replay(self) -> None:
        """Feed the plan's windows straight into the exchange loop.

        Contacts are processed in end-time order (ties broken by start
        and pair) and arrivals are flushed up to each window's end
        first, so every queued copy satisfies ``received_at <= end``
        exactly as in the geometric pipeline.  Windows beyond the run
        duration are dropped; one straddling it is truncated, matching
        ``ContactTracer.close``.
        """
        assert self.plan is not None
        cfg = self.config
        horizon = cfg.duration_s
        replay_order = sorted(self.plan.contacts,
                              key=lambda c: (c.end, c.start, c.a, c.b))
        for planned in replay_order:
            if planned.start >= horizon:
                continue
            end = min(planned.end, horizon)
            self._flush_arrivals(end)
            self._replayed_contacts += 1
            bus = self.bus
            if bus is not None:
                bus.emit(ContactStart(time=planned.start, a=planned.a,
                                      b=planned.b))
                bus.emit(ContactEnd(time=end, a=planned.a, b=planned.b,
                                    started=planned.start))
            self._on_contact_end(planned.a, planned.b, planned.start, end,
                                 rate_bps=planned.rate_bps)
        self._flush_arrivals(horizon)

    def run(self) -> ContactSimResult:
        """Run to completion and summarize."""
        cfg = self.config
        writer = None
        if cfg.trace_path is not None:
            writer = writer_for_path(cfg.trace_path)
            writer.subscribe(self.bus)
            self.collector.bind_telemetry(self.bus)
        try:
            if self.plan is not None:
                self._run_replay()
            else:
                self._run_geometric()
        finally:
            if writer is not None:
                writer.close()
        if self._tracer is not None:
            n_contacts = len(self._tracer.contacts)
        else:
            n_contacts = self._replayed_contacts
        return ContactSimResult(
            config=cfg,
            messages_generated=self.collector.messages_generated,
            messages_delivered=self.collector.messages_delivered,
            delivery_ratio=self.collector.delivery_ratio(),
            average_delay_s=self.collector.average_delay(),
            average_hops=self.collector.average_hops(),
            transfers=self.transfers,
            contacts=n_contacts,
            usable_contacts=self.usable_contacts,
        )


def _transfer_instant(start: float, end: float, slot: float, used: int,
                      floor: float) -> float:
    """When the exchange's ``used``-th slot moves a copy born at ``floor``.

    The slot's midpoint, but never before the copy exists and never past
    the contact's ``end``: the spread term stays below ``end`` for any
    realizable budget, but the timestamp contract (within [start, end])
    must hold unconditionally.
    """
    when = max(start + (used + 0.5) * slot, floor)
    return end if when > end else when


def _futile_rounds(start: float, end: float, slot: float, used: int,
                   budget: int, floor: float, stable: float) -> int:
    """How many futile rounds from slot ``used`` on read only before
    ``stable``.

    Round ``k`` reads at its offer instant ``start + k * slot``, at its
    transfer instant, and (unless it spends the last slot) at the
    reverse offer ``start + (k + 1) * slot``.  A round's latest read
    never precedes an earlier round's, so only the last skipped round
    needs checking.
    """
    stop = budget
    reach = (stable - start) / slot
    if reach < stop:
        stop = max(used, int(reach))
    while stop > used:
        last_read = _transfer_instant(start, end, slot, stop - 1, floor)
        if stop < budget:
            last_read = max(last_read, start + stop * slot)
        if last_read < stable:
            break
        stop -= 1
    return stop - used


def run_contact_simulation(config: ContactSimConfig) -> ContactSimResult:
    """Convenience one-shot: build and run a contact-level simulation."""
    return ContactSimulation(config).run()
