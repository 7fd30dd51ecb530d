"""The two-stage contact pipeline.

Stage 1 realizes a geometric run's contacts as a table: positions are
buffered in blocks of ticks and one ``sweep_in_range`` call finds every
in-range pair of a block.  Stage 2 walks the table in one exchange loop;
the telemetry bus only observes it.  The references here are brute
force: an O(N^2) distance test per tick, and per-tick set differences
for the contact intervals.
"""

import dataclasses
import json
import pathlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.data.regen_contact_goldens import build_configs

from repro.contact import detector
from repro.contact.detector import ContactTracer
from repro.contact.simulator import ContactSimulation
from repro.des import EventScheduler
from repro.harness.serialize import contact_result_to_dict
from repro.mobility import (Area, MobilityManager, StationaryMobility,
                            ZoneGridMobility)
from repro.mobility.base import MobilityModel
from repro.mobility.manager import sweep_in_range
from repro.obs import ContactEnd, ContactStart, TelemetryBus
from repro.obs.export import read_trace

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "contact_goldens.json"

RANGE = 5.0

#: Coordinates on a 1/8 m grid, negative ones and multiples of the cell
#: size included: every difference is exact, so a pair at exactly
#: ``RANGE`` is within range for the reference and the sweep alike.
_coord = st.integers(-240, 240).map(lambda k: k / 8.0)

#: Offsets of exactly ``RANGE`` (3-4-5 triangles and axis-aligned).
_EXACT = [(3.0, 4.0), (-4.0, 3.0), (5.0, 0.0), (0.0, -5.0)]


@st.composite
def _frame(draw, n):
    """One tick's positions of ``n`` nodes."""
    frame = np.empty((n, 2))
    for i in range(n):
        if i and draw(st.integers(0, 2)) == 0:
            # Place this node exactly one range from an earlier one.
            ox, oy = draw(st.sampled_from(_EXACT))
            frame[i] = frame[draw(st.integers(0, i - 1))] + (ox, oy)
        else:
            frame[i] = (draw(_coord), draw(_coord))
    return frame


@st.composite
def _frames(draw, n, ticks):
    """``ticks`` frames drawn from a few distinct ones (long blocks stay
    cheap to generate, yet pairs enter and leave range across ticks)."""
    pool = draw(st.lists(_frame(n), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=ticks,
                          max_size=ticks))
    return [pool[k] for k in picks]


@st.composite
def position_block(draw):
    ticks = draw(st.sampled_from([1, 3, 64]))
    n = draw(st.integers(0, 12))
    return np.array(draw(_frames(n, ticks))).reshape(ticks, n, 2)


def brute_pairs(frame, comm_range):
    """Every in-range row pair ``(i, j)``, ``i < j``, by the O(N^2) test."""
    pairs = set()
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            dx = frame[j][0] - frame[i][0]
            dy = frame[j][1] - frame[i][1]
            if dx * dx + dy * dy <= comm_range * comm_range:
                pairs.add((i, j))
    return pairs


@given(position_block())
@settings(max_examples=150, deadline=None)
def test_block_sweep_matches_brute_force_on_every_tick(block):
    tick, low, high = sweep_in_range(block, RANGE)
    assert (low < high).all()
    found = list(zip(tick.tolist(), low.tolist(), high.tolist()))
    assert len(found) == len(set(found))
    for k, frame in enumerate(block.tolist()):
        assert {(i, j) for t, i, j in found if t == k} \
            == brute_pairs(frame, RANGE)


def test_block_sweep_finds_exact_range_pairs_on_cell_boundaries():
    # Cell edges at multiples of 5, on both sides of the origin.
    frame = [(0.0, 0.0), (3.0, 4.0), (-5.0, 0.0), (0.0, -5.0),
             (10.0, 0.0), (13.0, 4.0), (-10.0, -10.0), (-7.0, -6.0)]
    block = np.array([frame, frame[::-1]])
    tick, low, high = sweep_in_range(block, RANGE)
    first = {(i, j) for t, i, j in zip(tick, low, high) if t == 0}
    assert {(0, 1), (0, 2), (0, 3), (4, 5), (6, 7)} <= first
    for k in range(2):
        assert {(i, j) for t, i, j in zip(tick, low, high) if t == k} \
            == brute_pairs(block[k].tolist(), RANGE)


# ----------------------------------------------------------------------
# realized contact table
# ----------------------------------------------------------------------
class Scripted(MobilityModel):
    """Nodes jump to the next scripted frame on every step."""

    def __init__(self, node_ids, area, frames):
        super().__init__(node_ids, area)
        self._frames = frames
        self._tick = 0
        self.positions[:] = frames[0]

    def step(self, dt):
        self._tick += 1
        self.positions[:] = self._frames[self._tick]


def tick_times(duration, tick):
    """The scanned instants, accumulated as the tracer steps."""
    times = [0.0]
    now = 0.0
    while now < duration:
        now += min(tick, duration - now)
        times.append(now)
    return times


def brute_intervals(frames, times, duration, comm_range):
    """Contacts by per-tick set differences: ends at a tick in pair
    order, then the pairs still open closed at ``duration``."""
    open_since = {}
    rows = []
    for frame, now in zip(frames, times):
        pairs = brute_pairs(frame, comm_range)
        for pair in sorted(pairs - set(open_since)):
            open_since[pair] = now
        for pair in sorted(set(open_since) - pairs):
            rows.append((*pair, open_since.pop(pair), now))
    rows.extend((*pair, since, duration)
                for pair, since in sorted(open_since.items()))
    return rows


def realize(frames, duration, tick, block_ticks):
    area = Area(100.0, 100.0)
    n = len(frames[0])
    model = Scripted(list(range(n)), area, frames)
    manager = MobilityManager(EventScheduler(), area, [model],
                              comm_range=RANGE)
    with mock.patch.object(detector, "BLOCK_TICKS", block_ticks):
        tracer = ContactTracer(manager)
    return tracer.realize(duration, tick)


@st.composite
def scripted_run(draw):
    tick = draw(st.sampled_from([0.7, 1.0, 2.5]))
    duration = draw(st.sampled_from([6.0, 9.1, 20.3]))
    n = draw(st.integers(2, 7))
    frames = draw(_frames(n, len(tick_times(duration, tick))))
    return frames, duration, tick, draw(st.sampled_from([1, 3, 64]))


@given(scripted_run())
@settings(max_examples=150, deadline=None)
def test_realized_table_matches_brute_force_intervals(run):
    frames, duration, tick, block_ticks = run
    table = realize([f.tolist() for f in frames], duration, tick,
                    block_ticks)
    times = tick_times(duration, tick)
    expected = brute_intervals([f.tolist() for f in frames], times,
                               duration, RANGE)
    got = list(zip(table.a.tolist(), table.b.tolist(),
                   table.start.tolist(), table.end.tolist()))
    assert got == expected
    assert table.clock == times[-1]


def test_first_tick_horizon_and_partial_last_tick():
    # Ticks of 0.7 s to 2.0 s scan at 0, 0.7, 1.4 and (partial) 2.0.
    frames = [
        [(0, 0), (3, 4), (50, 50), (53, 54)],   # 0-1 and 2-3 from t = 0
        [(0, 0), (3, 4), (50, 50), (80, 80)],   # 2-3 ends at 0.7
        [(0, 0), (30, 0), (50, 50), (53, 54)],  # 0-1 ends at 1.4; 2-3 opens
        [(0, 0), (30, 0), (50, 50), (53, 54)],  # 2-3 open at the horizon
    ]
    times = tick_times(2.0, 0.7)
    assert len(times) == 4 and times[-1] - times[-2] < 0.7
    for block_ticks in (1, 3, 64):
        table = realize(frames, 2.0, 0.7, block_ticks)
        rows = list(zip(table.a.tolist(), table.b.tolist(),
                        table.start.tolist(), table.end.tolist()))
        assert rows == [(2, 3, 0.0, times[1]), (0, 1, 0.0, times[2]),
                        (2, 3, times[2], 2.0)]
        assert rows == brute_intervals(frames, times, 2.0, RANGE)


# ----------------------------------------------------------------------
# the bus observes, it does not drive
# ----------------------------------------------------------------------
def test_untraced_geometric_run_uses_no_bus_and_matches_its_golden():
    goldens = json.loads(GOLDEN_PATH.read_text())
    sim = ContactSimulation(build_configs()["geo_fad"])
    for topic in (ContactStart.topic, ContactEnd.topic, "*"):
        assert sim.bus.subscriber_count(topic) == 0
    result = sim.run()
    assert sim.bus.events_emitted == 0
    assert contact_result_to_dict(result) == goldens["geo_fad"]["result"]


@pytest.mark.parametrize("name", ["geo_fad", "replay_fad"])
def test_traced_run_observes_contacts_in_time_order(name, tmp_path):
    """Both sources trace alike: every start before its own end, starts
    in start order, and each end right after its window's deliveries.
    The trace changes no result."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    config = dataclasses.replace(build_configs()[name],
                                 trace_path=str(tmp_path / "run.jsonl"))
    result = ContactSimulation(config).run()
    traced = contact_result_to_dict(result)
    golden = goldens[name]["result"]
    assert traced.pop("config")["trace_path"] is not None
    golden.pop("config")
    assert traced == golden
    events = read_trace(tmp_path / "run.jsonl")
    opened = set()
    starts, ends = [], 0
    delivered_since_last_end = []
    for event in events:
        topic = event["topic"]
        if topic == "contact.start":
            key = (event["a"], event["b"], event["time"])
            assert key not in opened
            opened.add(key)
            starts.append(event["time"])
        elif topic == "message.delivered":
            delivered_since_last_end.append(event["time"])
        elif topic == "contact.end":
            key = (event["a"], event["b"], event["started"])
            opened.remove(key)
            ends += 1
            assert all(event["started"] <= t <= event["time"]
                       for t in delivered_since_last_end)
            delivered_since_last_end = []
    assert starts == sorted(starts)
    assert not opened and ends == len(starts) == result.contacts
    assert not delivered_since_last_end


def reference_tracer_run(manager, duration, tick):
    """The per-tick tracer: set differences of ``in_range_pairs``,
    starts before ends, each in pair order; open contacts closed at
    ``duration``.  Returns the contacts and the event sequence."""
    active = {}
    contacts, events = [], []

    def scan(now):
        current = manager.in_range_pairs()
        for pair in sorted(current - set(active)):
            active[pair] = now
            events.append(("start", *pair, now))
        for pair in sorted(set(active) - current):
            started = active.pop(pair)
            contacts.append((*pair, started, now))
            events.append(("end", *pair, started, now))

    now = 0.0
    scan(now)
    while now < duration:
        step = min(tick, duration - now)
        manager.step(step)
        now += step
        scan(now)
    for pair, started in sorted(active.items()):
        contacts.append((*pair, started, duration))
        events.append(("end", *pair, started, duration))
    return contacts, events


def zone_manager(seed, tick):
    area = Area(90.0, 90.0)
    rng = random.Random(seed)
    sinks = StationaryMobility([0, 1], area, rng=rng)
    sensors = ZoneGridMobility(list(range(2, 62)), area, rng,
                               zones_per_side=3)
    return MobilityManager(EventScheduler(), area, [sinks, sensors],
                           comm_range=10.0, tick_s=tick)


@pytest.mark.parametrize("tick,duration", [(1.0, 300.0), (0.3, 91.1)])
def test_subscribed_tracer_matches_the_per_tick_reference(tick, duration):
    expected, expected_events = reference_tracer_run(
        zone_manager(5, tick), duration, tick)
    events = []
    bus = TelemetryBus()
    bus.subscribe(ContactStart.topic, lambda e: events.append(
        ("start", e.a, e.b, e.time)))
    bus.subscribe(ContactEnd.topic, lambda e: events.append(
        ("end", e.a, e.b, e.started, e.time)))
    tracer = ContactTracer(zone_manager(5, tick))
    tracer.subscribe(bus)
    contacts = tracer.run(duration, tick=tick)
    assert len(expected) > 100
    assert [(c.a, c.b, c.start, c.end) for c in contacts] == expected
    assert events == expected_events
