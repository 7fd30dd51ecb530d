"""Unit tests for the other mobility models and the manager/spatial index."""

import math
import random

import numpy as np
import pytest

from repro.des import EventScheduler
from repro.mobility import (
    Area,
    MobilityManager,
    RandomWalkMobility,
    RandomWaypointMobility,
    StationaryMobility,
)
from repro.mobility.manager import _VECTOR_THRESHOLD


class TestStationary:
    def test_explicit_positions(self):
        area = Area(100, 100)
        m = StationaryMobility([1, 2], area, positions=[(10, 20), (30, 40)])
        assert m.position_of(1) == (10, 20)
        assert m.position_of(2) == (30, 40)
        m.step(5.0)
        assert m.position_of(1) == (10, 20)

    def test_random_placement_needs_rng(self):
        area = Area(100, 100)
        with pytest.raises(ValueError):
            StationaryMobility([1], area)
        m = StationaryMobility([1], area, rng=random.Random(1))
        x, y = m.position_of(1)
        assert area.contains(x, y)

    def test_position_outside_area_rejected(self):
        with pytest.raises(ValueError):
            StationaryMobility([1], Area(10, 10), positions=[(50, 5)])

    def test_mismatched_positions_rejected(self):
        with pytest.raises(ValueError):
            StationaryMobility([1, 2], Area(10, 10), positions=[(1, 1)])


class TestRandomWalk:
    def test_stays_in_area(self):
        m = RandomWalkMobility(list(range(20)), Area(50, 50),
                               random.Random(2))
        for _ in range(500):
            m.step(1.0)
        assert np.all(m.positions >= 0.0)
        assert np.all(m.positions <= 50.0)

    def test_nodes_actually_move(self):
        m = RandomWalkMobility(list(range(10)), Area(100, 100),
                               random.Random(3), speed_min=1.0)
        before = m.positions.copy()
        for _ in range(10):
            m.step(1.0)
        moved = np.linalg.norm(m.positions - before, axis=1)
        assert np.all(moved > 0.0)


class TestRandomWaypoint:
    def test_requires_positive_min_speed(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility([1], Area(10, 10), random.Random(1),
                                   speed_min=0.0)

    def test_stays_in_area_and_moves(self):
        m = RandomWaypointMobility(list(range(10)), Area(60, 60),
                                   random.Random(4), pause_max=2.0)
        total = np.zeros(10)
        for _ in range(300):
            before = m.positions.copy()
            m.step(1.0)
            total += np.linalg.norm(m.positions - before, axis=1)
        assert np.all(m.positions >= 0.0)
        assert np.all(m.positions <= 60.0)
        assert np.all(total > 0.0)

    def test_step_displacement_bounded(self):
        m = RandomWaypointMobility(list(range(10)), Area(60, 60),
                                   random.Random(5), speed_max=3.0)
        before = m.positions.copy()
        m.step(1.0)
        assert np.all(np.linalg.norm(m.positions - before, axis=1)
                      <= 3.0 + 1e-9)


class TestManager:
    def _manager(self, positions, comm_range=10.0):
        area = Area(100, 100)
        sched = EventScheduler()
        model = StationaryMobility(list(range(len(positions))), area,
                                   positions=positions)
        return MobilityManager(sched, area, [model],
                               comm_range=comm_range), sched

    def test_in_range_uses_euclidean_distance(self):
        mgr, _ = self._manager([(0, 0), (6, 8), (20, 20)])
        assert mgr.in_range(0, 1)       # distance exactly 10
        assert not mgr.in_range(0, 2)

    def test_neighbors_of_matches_brute_force(self):
        rng = random.Random(6)
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                     for _ in range(60)]
        mgr, _ = self._manager(positions, comm_range=15.0)
        for i in range(60):
            expected = {
                j for j in range(60) if j != i
                and math.dist(positions[i], positions[j]) <= 15.0
            }
            assert set(mgr.neighbors_of(i)) == expected

    def test_duplicate_ids_across_models_rejected(self):
        area = Area(100, 100)
        sched = EventScheduler()
        a = StationaryMobility([0], area, positions=[(1, 1)])
        b = StationaryMobility([0], area, positions=[(2, 2)])
        with pytest.raises(ValueError):
            MobilityManager(sched, area, [a, b])

    def test_tick_advances_models(self):
        area = Area(100, 100)
        sched = EventScheduler()
        model = RandomWalkMobility([0, 1], area, random.Random(7),
                                   speed_min=1.0)
        mgr = MobilityManager(sched, area, [model], tick_s=1.0)
        before = mgr.positions.copy()
        mgr.start()
        sched.run_until(10.0)
        assert not np.allclose(before, mgr.positions)

    def test_index_refreshed_after_movement(self):
        area = Area(100, 100)
        sched = EventScheduler()

        class Teleport(StationaryMobility):
            def step(self, dt):
                self.positions[0] = (99.0, 99.0)

        model = Teleport([0, 1], area, positions=[(0, 0), (1, 0)])
        mgr = MobilityManager(sched, area, [model], comm_range=5.0)
        assert mgr.in_range(0, 1)
        mgr.step(1.0)
        assert not mgr.in_range(0, 1)
        assert list(mgr.neighbors_of(1)) == []

    def test_start_is_idempotent(self):
        mgr, sched = self._manager([(0, 0), (1, 1)])
        mgr.start()
        mgr.start()
        sched.run_until(3.5)
        # One tick chain only: events at t=1,2,3.
        assert sched.events_fired == 3


class _FixedPositions(StationaryMobility):
    """Stationary model whose positions bypass the area check.

    The spatial index must stay correct for any coordinates a model
    produces, including negative ones (e.g. an extension model centered
    on the origin), so these tests plant positions directly.
    """

    def __init__(self, node_ids, area, coords):
        super().__init__(node_ids, area,
                         positions=[(0.0, 0.0)] * len(node_ids))
        self.positions = np.array(coords, dtype=float)


class TestGridBinning:
    """Regression tests for the floor-based uniform-grid cell keys.

    ``int(x * inv)`` truncates toward zero, merging the ``[-r, 0)`` and
    ``[0, r)`` bins into one double-width cell per axis around the
    origin — breaking the uniform-grid contract (every cell spans
    exactly ``comm_range``) and quadrupling the 3x3-scan work there.
    ``math.floor`` keeps every cell exactly one range wide.
    """

    def _manager(self, coords, comm_range=10.0):
        area = Area(1000, 1000)
        sched = EventScheduler()
        model = _FixedPositions(list(range(len(coords))), area, coords)
        return MobilityManager(sched, area, [model], comm_range=comm_range)

    def test_negative_coordinates_bin_by_floor(self):
        # x = -5 with range 10 lies in cell -1 ([-10, 0)), not cell 0:
        # truncation would give int(-0.5) == 0 and fold both sides of
        # the origin into the same key.
        mgr = self._manager([(-5.0, -5.0), (5.0, 5.0)])
        assert (-1, -1) in mgr._cells
        assert mgr._cells[(-1, -1)] == [0]
        assert mgr._cells[(0, 0)] == [1]

    def test_each_cell_spans_exactly_one_range(self):
        # Nodes one range apart along an axis must land in consecutive
        # cells, including across the origin.
        xs = [-25.0, -15.0, -5.0, 5.0, 15.0]
        mgr = self._manager([(x, 0.0) for x in xs])
        keys = sorted(key[0] for key in mgr._cells)
        assert keys == [-3, -2, -1, 0, 1]

    def test_neighbors_match_brute_force_across_origin(self):
        rng = random.Random(42)
        coords = [(rng.uniform(-30, 30), rng.uniform(-30, 30))
                  for _ in range(60)]
        mgr = self._manager(coords, comm_range=7.5)
        for nid in range(len(coords)):
            expected = sorted(
                other for other in range(len(coords))
                if other != nid and mgr.in_range(nid, other))
            assert sorted(mgr.neighbors_of(nid)) == expected


def _pairs_from_neighbors(mgr):
    """The in-range pair set as the per-node scan implies it."""
    return {(node, other) for node in mgr.node_ids
            for other in mgr.neighbors_of(node) if other > node}


class TestInRangePairs:
    """``in_range_pairs`` is the one-sweep equivalent of ``neighbors_of``."""

    def _manager(self, coords, comm_range=10.0):
        area = Area(1000, 1000)
        model = _FixedPositions(list(range(len(coords))), area,
                                np.array(coords, dtype=float).reshape(-1, 2))
        return MobilityManager(EventScheduler(), area, [model],
                               comm_range=comm_range)

    @pytest.mark.parametrize("coords", [[], [(1.0, 1.0)],
                                        [(1.0, 1.0), (2.0, 2.0)],
                                        [(1.0, 1.0), (50.0, 50.0)]])
    def test_tiny_layouts(self, coords):
        mgr = self._manager(coords)
        assert mgr.in_range_pairs() == _pairs_from_neighbors(mgr)

    def test_pairs_at_exactly_comm_range_are_in(self):
        # 3-4-5 triangles and axis-aligned gaps of exactly one range,
        # straddling cell edges and the origin.
        coords = [(0.0, 0.0), (3.0, 4.0), (-5.0, 0.0), (0.0, -5.0),
                  (10.0, 0.0), (13.0, 4.0)]
        mgr = self._manager(coords, comm_range=5.0)
        pairs = mgr.in_range_pairs()
        assert {(0, 1), (0, 2), (0, 3), (4, 5)} <= pairs
        assert pairs == _pairs_from_neighbors(mgr)

    def test_crowded_cells_above_the_vector_threshold(self):
        rng = random.Random(3)
        hot = [(rng.uniform(0, 9.99), rng.uniform(0, 9.99))
               for _ in range(2 * _VECTOR_THRESHOLD)]
        rest = [(rng.uniform(-40, 40), rng.uniform(-40, 40))
                for _ in range(40)]
        mgr = self._manager(hot + rest)
        assert max(len(b) for b in mgr._cells.values()) >= _VECTOR_THRESHOLD
        assert mgr.in_range_pairs() == _pairs_from_neighbors(mgr)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_layouts_match_the_neighbor_scan(self, seed):
        rng = random.Random(seed)
        width = rng.choice([5.0, 40.0, 300.0])
        height = rng.choice([5.0, 40.0, 300.0])
        n = rng.randrange(0, 150)
        coords = [(rng.uniform(-width / 2, width), rng.uniform(-height / 2, height))
                  for _ in range(n)]
        mgr = self._manager(coords, comm_range=rng.choice([0.7, 3.0, 10.0, 55.0]))
        assert mgr.in_range_pairs() == _pairs_from_neighbors(mgr)

    def test_moving_nodes_match_every_tick(self):
        area = Area(60, 35)
        walk = RandomWalkMobility(list(range(2, 80)), area, random.Random(9),
                                  speed_min=0.5, speed_max=6.0)
        sinks = StationaryMobility([0, 1], area, rng=random.Random(4))
        mgr = MobilityManager(EventScheduler(), area, [sinks, walk],
                              comm_range=6.0)
        for _ in range(25):
            assert mgr.in_range_pairs() == _pairs_from_neighbors(mgr)
            mgr.step(1.0)
