"""Host-speed probe: scales measured CPU time to an undisturbed host.

The benchmark's host is a guest on a shared machine.  Its speed drops
by up to 1.8x for seconds to minutes at a time when neighbours load the
machine, and that alone moves a 30 s invocation's CPU time by a quarter.
A member's fastest rerun does not help when the slow spell outlasts the
invocation.

So the probe samples the host's speed *during* each timed call.  While
the call runs, an ``ITIMER_PROF`` signal fires every
``PROBE_INTERVAL_S`` of CPU time and its handler times a fixed slice of
interpreter work (dict and attribute access, integer arithmetic, a heap
and a small sort; no allocation that the cyclic GC tracks).  An untimed
warm-up slice runs first: the simulation evicts the probe's code and
data from the caches between probes, and a cold probe ran a third
slower than a warm one, which would have tied the scale to the
simulation's memory footprint.  Two probes run before the call and two
after it.  The call's own CPU time excludes the probes, and its scaled
time is

    cpu_s * mean(PROBE_NOMINAL_S / probe_s)

Probes fire per CPU second, so a slow spell that takes a share of the
call's CPU time takes the same share of the probes, and the mean of the
inverse probe times turns the call's CPU time into what it would have
cost at the speed where the timed slice takes ``PROBE_NOMINAL_S``.

The probe is code of the benchmark, not of the simulator, so a faster
simulator still shows as a smaller scaled time.  Nothing here touches
the simulation's state: the handler only reads the clock and its own
objects.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: CPU seconds between probes while a call is timed.
PROBE_INTERVAL_S = 0.02

#: Loop iterations of a probe's untimed warm-up and of its timed slice.
WARMUP_STEPS = 200
TIMED_STEPS = 1000

#: What the timed slice costs on the reference host: the 2-core KVM
#: guest the workloads were sized on, when undisturbed.  Scaled times
#: are CPU seconds on a host of that speed.
PROBE_NOMINAL_S = 1.9e-4

#: Probes run just before and just after each timed call.
EDGE_PROBES = 2


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_CELLS = {i: _Cell(i) for i in range(64)}
_HEAP = list(range(64))
_ORDER = list(range(32))


def probe_work(steps: int) -> int:
    """A fixed slice of interpreter work; returns a checksum."""
    acc = 0
    cells = _CELLS
    for i in range(steps):
        cell = cells[(i * 5) & 63]
        cell.value = (cell.value * 3 + i) & 0xFFFF
        acc ^= cell.value
        if i & 7 == 0:
            heapq.heappush(_HEAP, heapq.heappop(_HEAP) + 1)
        if i & 63 == 0:
            _ORDER.reverse()
            _ORDER.sort()
    return acc


def thread_cpu_s() -> float:
    """CPU seconds of the calling thread plus any waited-for children.

    The process-wide clock is not used while the probe's timer is armed:
    Linux then reads it from a per-tick cache, a few milliseconds stale.
    The simulators run in one thread, so the thread's clock is the
    process's CPU time.
    """
    t = os.times()
    return time.thread_time() + t.children_user + t.children_system


class SpeedProbe:
    """Times calls with the host's speed sampled throughout.

    Use as a context manager: it installs the ``SIGPROF`` handler on
    entry and restores the previous one on exit.  Main thread only.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []  # timed-slice seconds per probe
        self.spent: List[float] = []  # whole-probe seconds per probe
        self._previous: Any = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _probe(self) -> None:
        start = time.thread_time()
        probe_work(WARMUP_STEPS)
        timed = time.thread_time()
        probe_work(TIMED_STEPS)
        end = time.thread_time()
        self.samples.append(end - timed)
        self.spent.append(end - start)

    def _on_signal(self, signum: int, frame: object) -> None:
        self._probe()

    def measure(self, fn: Callable[..., Any],
                *args: Any) -> Tuple[Any, float, float]:
        """Call ``fn(*args)``; return its value, its CPU seconds (probes
        excluded) and those seconds scaled to the reference host."""
        self.samples, self.spent = [], []
        for _ in range(EDGE_PROBES):
            self._probe()
        edge = len(self.spent)
        start = thread_cpu_s()
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        cpu = thread_cpu_s() - start - sum(self.spent[edge:])
        for _ in range(EDGE_PROBES):
            self._probe()
        speed = statistics.fmean(PROBE_NOMINAL_S / max(p, 1e-9)
                                 for p in self.samples)
        return value, cpu, cpu * speed
