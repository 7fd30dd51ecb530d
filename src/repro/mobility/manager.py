"""Mobility manager: advances models on a tick and serves spatial queries.

The manager owns the global ``node id -> position`` view assembled from
one or more mobility models (e.g. stationary sinks + zone-mobile sensors)
and maintains a uniform-grid spatial index with cell size equal to the
communication range, so :meth:`neighbors_of` only scans the 3 x 3 cell
neighborhood.  It implements the medium's
:class:`~repro.radio.medium.NeighborProvider` interface.

Three scaling mechanisms keep 10k-node runs routine (PR 8):

* **batched gather** — per-model position blocks are copied into the
  global array with one fancy-indexed assignment instead of a per-node
  Python loop, and static models (stationary sinks) are gathered once;
* **incremental re-binning** — cell keys for all nodes come from one
  vectorized ``floor``; only the nodes whose key actually changed are
  moved between cells;
* **per-tick neighbor memoization** — :meth:`neighbors_of` /
  :meth:`neighbor_set` answers are cached until the next :meth:`step`,
  so the medium's per-frame scans stop re-deriving the same contact
  set.

Callers that need every in-range pair at once use
:func:`sweep_in_range`, one vectorized half-neighbourhood sweep over the
same grid keys and distance test for a whole block of ticks (the
contact tracer), or :meth:`MobilityManager.in_range_pairs`, its
one-tick case.

All of it is provably order-preserving: neighbor lists keep the
historical 3 x 3 cell-scan order (cells in ``(cx-1..cx+1, cy-1..cy+1)``
order, ascending node id within a cell), which the seeded byte-identical
guarantee rests on (LPL wake events are scheduled in that order).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.des.scheduler import EventScheduler
from repro.mobility.base import Area, MobilityModel

#: Per-cell occupancy above which the neighbor scan switches from the
#: scalar distance loop to a vectorized one for that cell.  At constant
#: density a grid cell holds only a handful of nodes and the scalar
#: loop wins; dense hot spots amortize numpy's per-call cost.
_VECTOR_THRESHOLD = 32

#: Cell offsets of the half 3 x 3 neighbourhood: pairing every cell with
#: itself and these four neighbours visits each adjacent cell pair once.
_HALF_NEIGHBOURHOOD = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


class MobilityManager:
    """Drives mobility models and indexes node positions."""

    def __init__(
        self,
        scheduler: EventScheduler,
        area: Area,
        models: Sequence[MobilityModel],
        comm_range: float = 10.0,
        tick_s: float = 1.0,
    ) -> None:
        if comm_range <= 0 or tick_s <= 0:
            raise ValueError("comm_range and tick_s must be positive")
        self._scheduler = scheduler
        self.area = area
        self.models = list(models)
        self.comm_range = comm_range
        self.tick_s = tick_s

        ids: List[int] = []
        for model in self.models:
            ids.extend(model.node_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("node ids overlap between mobility models")
        self.node_ids = sorted(ids)
        self._index_of: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        n = len(self.node_ids)
        self.positions = np.zeros((n, 2), dtype=float)
        #: Row index -> node id (inverse of ``_index_of``) as plain ints.
        self._ids_of_row: List[int] = list(self.node_ids)

        # Per-model row indices into ``positions`` (one gather per model
        # instead of one per node); static models are gathered once here.
        self._model_rows: List[np.ndarray] = [
            np.array([self._index_of[nid] for nid in model.node_ids],
                     dtype=np.intp)
            for model in self.models
        ]

        #: Grid cell -> row indices of its occupants, ascending (row
        #: order equals node-id order, preserving the historical
        #: neighbor iteration order).
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        #: Vectorized cell key of every row (kept across ticks so the
        #: incremental update only touches rows whose key changed).
        self._cell_keys = np.zeros((n, 2), dtype=np.int64)
        #: Python mirror of ``_cell_keys`` ([x, y] per row): the scan
        #: path reads single keys, where list access beats numpy scalar
        #: extraction by an order of magnitude.
        self._key_list: List[List[int]] = [[0, 0]] * n
        #: Lazily refreshed ``positions.tolist()`` for the same reason;
        #: None marks it stale (rebuilt on first scan after a step).
        self._pos_list: Optional[List[List[float]]] = None
        self._range_sq = comm_range * comm_range
        self._inv_range = 1.0 / comm_range
        self._nbr_lists: Dict[int, List[int]] = {}
        self._nbr_sets: Dict[int, FrozenSet[int]] = {}
        self._started = False
        self._gather(initial=True)
        self._rebuild_index()

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic ticking on the scheduler (idempotent)."""
        if not self._started:
            self._started = True
            self._scheduler.schedule(self.tick_s, self._tick, priority=-10)

    def _tick(self) -> None:
        self.step(self.tick_s)
        self._scheduler.schedule(self.tick_s, self._tick, priority=-10)

    def step(self, dt: float) -> None:
        """Advance all models by ``dt`` and refresh the spatial index."""
        for model in self.models:
            model.step(dt)
        self._gather()
        self._pos_list = None
        self._update_index()
        if self._nbr_lists:
            self._nbr_lists = {}
            self._nbr_sets = {}

    def _gather(self, initial: bool = False) -> None:
        for model, rows in zip(self.models, self._model_rows):
            if model.is_static and not initial:
                continue
            self.positions[rows] = model.positions

    def _compute_cell_keys(self) -> np.ndarray:
        """Vectorized grid key of every row.

        ``floor``, not a trunc-toward-zero cast: truncation would merge
        the [-r, 0) and [0, r) bins into one double-width cell on each
        axis, breaking the uniform-grid contract (every cell spans
        exactly comm_range) and quadrupling the 3x3-scan work around
        the origin for models that place nodes on both sides of it.
        """
        return np.floor(self.positions * self._inv_range).astype(np.int64)

    def _rebuild_index(self) -> None:
        """Initial bin of every node (later ticks use :meth:`_update_index`)."""
        self._cells.clear()
        keys = self._compute_cell_keys()
        self._cell_keys = keys
        pairs = keys.tolist()
        self._key_list = pairs
        cells = self._cells
        for row, (kx, ky) in enumerate(pairs):
            key = (kx, ky)
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [row]
            else:
                bucket.append(row)

    def _update_index(self) -> None:
        """Move only the rows whose grid cell changed since last tick."""
        keys = self._compute_cell_keys()
        old = self._cell_keys
        changed = np.nonzero((keys[:, 0] != old[:, 0])
                             | (keys[:, 1] != old[:, 1]))[0]
        self._cell_keys = keys
        if not changed.size:
            return
        # Bulk-convert only the changed rows; the key mirror is patched
        # in place (unchanged rows already carry the right values).
        new_pairs = keys[changed].tolist()
        key_list = self._key_list
        cells = self._cells
        for pair, row in zip(new_pairs, changed.tolist()):
            ox, oy = key_list[row]
            bucket = cells[(ox, oy)]
            if len(bucket) == 1:
                del cells[(ox, oy)]
            else:
                bucket.remove(row)
            new_key = (pair[0], pair[1])
            new_bucket = cells.get(new_key)
            if new_bucket is None:
                cells[new_key] = [row]
            else:
                insort(new_bucket, row)
            key_list[row] = pair

    # ------------------------------------------------------------------
    # NeighborProvider interface
    # ------------------------------------------------------------------
    def position_of(self, node_id: int) -> Tuple[float, float]:
        """Current (x, y) of one node."""
        i = self._index_of[node_id]
        return float(self.positions[i, 0]), float(self.positions[i, 1])

    def in_range(self, a: int, b: int) -> bool:
        """Whether two nodes are within communication range."""
        if a == b:
            return True
        return b in self.neighbor_set(a)

    def neighbors_of(self, node_id: int) -> List[int]:
        """Ids of all nodes within range (grid-indexed lookup).

        The returned list is memoized until the next mobility step —
        callers must treat it as read-only.  Order is the stable
        historical one: 3 x 3 cells scanned in ``(gx, gy)`` order,
        ascending node id within a cell.
        """
        cached = self._nbr_lists.get(node_id)
        if cached is not None:
            return cached
        result = self._scan_neighbors(node_id)
        self._nbr_lists[node_id] = result
        return result

    def neighbor_set(self, node_id: int) -> FrozenSet[int]:
        """The ids of :meth:`neighbors_of` as a set (for membership tests).

        The medium's carrier-sense and interference checks reduce to
        set intersections against this; like the list, it is memoized
        until the next mobility step.
        """
        cached = self._nbr_sets.get(node_id)
        if cached is not None:
            return cached
        result = frozenset(self.neighbors_of(node_id))
        self._nbr_sets[node_id] = result
        return result

    def in_range_pairs(self) -> Set[Tuple[int, int]]:
        """Every in-range node pair ``(a, b)`` with ``a < b``.

        The one-tick case of :func:`sweep_in_range`: with the same cell
        keys and the same float64 distance test, the result equals the
        pair set :meth:`neighbors_of` implies.
        """
        _, low_rows, high_rows = sweep_in_range(self.positions[None],
                                                self.comm_range)
        ids = self._ids_of_row
        return {(ids[i], ids[j])
                for i, j in zip(low_rows.tolist(), high_rows.tolist())}

    def _scan_neighbors(self, node_id: int) -> List[int]:
        i = self._index_of[node_id]
        pos = self._pos_list
        if pos is None:
            pos = self.positions.tolist()
            self._pos_list = pos
        x, y = pos[i]
        cx, cy = self._key_list[i]
        cells = self._cells
        ids = self._ids_of_row
        range_sq = self._range_sq
        result: List[int] = []
        append = result.append
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                bucket = cells.get((gx, gy))
                if bucket is None:
                    continue
                if len(bucket) >= _VECTOR_THRESHOLD:
                    d = self.positions[bucket] - self.positions[i]
                    mask = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                            <= range_sq)
                    for keep, row in zip(mask.tolist(), bucket):
                        if keep and row != i:
                            append(ids[row])
                    continue
                for row in bucket:
                    if row == i:
                        continue
                    px, py = pos[row]
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy <= range_sq:
                        append(ids[row])
        return result


def sweep_in_range(positions: np.ndarray, comm_range: float
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every in-range row pair of every tick of a position block.

    ``positions`` is a ``(ticks, rows, 2)`` float64 block.  Returns
    int64 arrays ``(tick, low, high)``, one entry per pair within range
    at that tick, with ``low < high`` (row indices), in no particular
    order.

    One sweep covers the whole block: every position gets the grid key
    ``floor(pos * (1 / comm_range))`` of
    :meth:`MobilityManager.neighbors_of` and the cell code ``tick *
    cells + cell``, rows are grouped by code, each cell is paired with
    itself and its half neighbourhood, and the candidates pass the same
    float64 ``dx*dx + dy*dy <= comm_range**2`` test (squared
    differences are sign-symmetric).  The +1 / +3 padding of the cell
    code keeps every neighbour offset inside its own tick's code range,
    so ticks never pair with each other.
    """
    n_ticks, n_rows = positions.shape[:2]
    flat = positions.reshape(n_ticks * n_rows, 2)
    if not len(flat):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    keys = np.floor(flat * (1.0 / comm_range)).astype(np.int64)
    low = keys.min(axis=0)
    high = keys.max(axis=0)
    width = int(high[1] - low[1]) + 3
    cells_per_tick = (int(high[0] - low[0]) + 3) * width
    codes = ((keys[:, 0] - low[0] + 1) * width + (keys[:, 1] - low[1] + 1)
             + np.repeat(np.arange(n_ticks, dtype=np.int64) * cells_per_tick,
                         n_rows))
    order = np.argsort(codes, kind="stable")
    cells, starts, counts = np.unique(codes[order], return_index=True,
                                      return_counts=True)
    firsts: List[np.ndarray] = []
    seconds: List[np.ndarray] = []
    for ox, oy in _HALF_NEIGHBOURHOOD:
        target = cells + (ox * width + oy)
        at = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
        hit = np.nonzero(cells[at] == target)[0]
        other = at[hit]
        n_other = counts[other]
        sizes = counts[hit] * n_other
        total = int(sizes.sum())
        # Expand every (cell, neighbour cell) match into the cross
        # product of their rows without a Python loop.
        match = np.repeat(np.arange(hit.size), sizes)
        local = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        width_of = n_other[match]
        rows_a = order[starts[hit][match] + local // width_of]
        rows_b = order[starts[other][match] + local % width_of]
        if ox == 0 and oy == 0:
            keep = rows_a < rows_b
            rows_a, rows_b = rows_a[keep], rows_b[keep]
        firsts.append(rows_a)
        seconds.append(rows_b)
    rows_a = np.concatenate(firsts)
    rows_b = np.concatenate(seconds)
    d = flat[rows_b] - flat[rows_a]
    close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= comm_range * comm_range
    low_flat = np.minimum(rows_a, rows_b)[close]
    high_flat = np.maximum(rows_a, rows_b)[close]
    return low_flat // n_rows, low_flat % n_rows, high_flat % n_rows
