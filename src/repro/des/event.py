"""Simulation events.

An :class:`Event` pairs a firing time with a callback.  The scheduler
orders events by ``(time, priority, seq)`` so that simultaneous events
fire in a deterministic order: lower priority value first, then
insertion order.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback in the simulation.

    Events are created through :meth:`EventScheduler.schedule` /
    :meth:`EventScheduler.schedule_at`; user code normally only keeps the
    returned handle in order to :meth:`cancel` it.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        # No defensive conversions: the scheduler is the only producer
        # and already guarantees a float time and int priority/seq (this
        # constructor runs once per scheduled event — it is hot).
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so that the scheduler skips it when popped."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """``True`` until the event is cancelled (or has fired)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, cb={name}, {state})"
