"""Span recording for the traced run.

A span is one call of a wrapped function: ``(id, name, start, end,
parent)``.  Span names are ``<layer>.<site>``; a layer's *self time* is
the time its spans were open minus the time their child spans cover,
so the self times of every span under a root add up to the root's
duration.

Hot call sites (millions of calls) are kept as per-name aggregates
``[calls, total_s, self_s]``, updated as each span closes; only spans
opened through :meth:`SpanRecorder.wrap` with ``record=True`` keep the
full record.  Nothing is written while the simulation runs.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(id, name, start, end, parent_id)``.
Span = Tuple[int, str, float, float, Optional[int]]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-name self time of a complete span set.

    The reference arithmetic: each span's duration minus the union of its
    children's intervals clipped to the span.  :class:`SpanRecorder`
    computes the same quantity incrementally.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for sid, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


class SpanRecorder:
    """Times wrapped calls on one clock (CPU time by default)."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        #: name -> [calls, total_s, self_s]
        self.aggregates: Dict[str, List[float]] = {}
        #: Full records of the spans opened with ``record=True``.
        self.records: List[Span] = []
        #: Plain event counters (no timing).
        self.counters: Dict[str, int] = {}
        # Child time accumulated by each open span, innermost last.
        self._open: List[float] = []
        # Record ids of the open recorded spans, innermost last.
        self._open_ids: List[int] = []

    def aggregate(self, name: str) -> List[float]:
        """The live ``[calls, total_s, self_s]`` cell of ``name``."""
        cell = self.aggregates.get(name)
        if cell is None:
            cell = self.aggregates[name] = [0, 0.0, 0.0]
        return cell

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable[..., Any],
             record: bool = False) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        cell = self.aggregate(name)
        clock = self.clock
        open_ = self._open

        if record:
            records = self.records
            open_ids = self._open_ids

            def recorded(*args: Any, **kwargs: Any) -> Any:
                sid = len(records)
                parent = open_ids[-1] if open_ids else None
                records.append((sid, name, 0.0, 0.0, parent))
                open_ids.append(sid)
                open_.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    child = open_.pop()
                    open_ids.pop()
                    records[sid] = (sid, name, start, end, parent)
                    cell[0] += 1
                    cell[1] += end - start
                    cell[2] += end - start - child
                    if open_:
                        open_[-1] += end - start
            return recorded

        def traced(*args: Any, **kwargs: Any) -> Any:
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                child = open_.pop()
                cell[0] += 1
                cell[1] += spent
                cell[2] += spent - child
                if open_:
                    open_[-1] += spent
        return traced

    def wrap_outermost(self, name: str, fn: Callable[..., Any],
                       group: List[int]) -> Callable[..., Any]:
        """Like :meth:`wrap`, but a call made while another span of the
        same ``group`` is open runs unwrapped, so nested calls (say
        ``in_range`` -> ``neighbor_set`` -> ``neighbors_of``) count once
        and their time stays with the outer span."""
        inner = self.wrap(name, fn)

        def outermost(*args: Any, **kwargs: Any) -> Any:
            if group[0]:
                return fn(*args, **kwargs)
            group[0] = 1
            try:
                return inner(*args, **kwargs)
            finally:
                group[0] = 0
        return outermost

    def reset(self) -> None:
        """Zero every aggregate and counter, keep the records.

        Cells handed out by :meth:`aggregate` stay live, so wrappers made
        before the reset keep counting into them.
        """
        for cell in self.aggregates.values():
            cell[0], cell[1], cell[2] = 0, 0.0, 0.0
        self.counters.clear()
