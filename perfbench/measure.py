"""Timed and traced runs of one workload, with their correctness checks.

A *timed* run builds and runs every ensemble member through the public
entry points (``Simulation`` / ``ContactSimulation``) with nothing
wrapped, cycling through the members until the measuring time is spent
(at least one full pass).  Its builds and runs are timed under a
:class:`~hostspeed.SpeedProbe`, which scales each CPU time to an
undisturbed reference host; a member's time is the median of its runs.  A *traced* run repeats member 0 under
:class:`~probes.Probes` and compares it with an untraced run of the same
member.  Every run is checked; a run that raises or fails a check counts
as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import SpeedProbe
from probes import LAYERS, Probes
from spans import SpanRecorder
from workloads import WORKLOADS, horizon_s

#: Largest allowed gap between the summed layer self times and the
#: traced run's CPU time, as a share of the latter.
ACCOUNTING_TOLERANCE = 0.05

#: Setups timed per member run (the last one is the object that runs).
SETUP_REPEATS = 3


def cpu_s() -> float:
    """CPU seconds of this process plus any waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(level: str, config: Any) -> Any:
    """A ready simulation object for ``config``."""
    if level == "packet":
        from repro.network.simulation import Simulation
        return Simulation(config)
    from repro.contact.simulator import ContactSimulation
    return ContactSimulation(config)


def outcome(level: str, result: Any) -> Dict[str, Any]:
    """The seeded part of a result: equal for equal configs."""
    if level == "packet":
        return result.to_dict()
    data = dataclasses.asdict(result)
    data.pop("config")
    return data


def check(level: str, sim: Any, result: Any, horizon: float) -> List[str]:
    """Conservation and range checks on one finished run."""
    problems: List[str] = []
    generated = result.messages_generated
    delivered = result.messages_delivered
    if generated < 1:
        problems.append("no message was generated")
    if not 0 <= delivered <= generated:
        problems.append(f"delivered {delivered} outside [0, {generated}]")
    if delivered < 1:
        problems.append("no message was delivered")
    if not 0.0 <= result.delivery_ratio <= 1.0:
        problems.append(f"delivery ratio {result.delivery_ratio} outside [0, 1]")
    elif generated and abs(result.delivery_ratio - delivered / generated) > 1e-12:
        problems.append("delivery ratio != delivered / generated")
    delays = sim.collector.delays()
    if len(delays) != delivered:
        problems.append(f"{len(delays)} delays recorded for {delivered} deliveries")
    bad = [d for d in delays if not 0.0 <= d <= horizon]
    if bad:
        problems.append(f"{len(bad)} delays outside [0, {horizon}], e.g. {bad[0]}")
    if delays and abs(sum(delays) / len(delays) - result.average_delay_s) > 1e-6:
        problems.append("average delay != mean of recorded delays")
    if level == "packet":
        if not result.average_power_mw > 0.0:
            problems.append(f"average power {result.average_power_mw} mW")
        if result.transmissions < delivered:
            problems.append("fewer transmissions than deliveries")
    else:
        if not 0 <= result.usable_contacts <= result.contacts:
            problems.append("usable contacts outside [0, contacts]")
        if result.transfers < delivered:
            problems.append("fewer transfers than deliveries")
    if getattr(result.config, "trace_path", None):
        problems.extend(_consume_trace(Path(result.config.trace_path),
                                       generated, delivered))
    return problems


def _consume_trace(path: Path, generated: int, delivered: int) -> List[str]:
    """Check a run's JSONL trace against its result, then delete it."""
    counts = {"message.generated": 0, "message.delivered": 0}
    with path.open() as fh:
        for line in fh:
            if '"message.' in line:
                topic = json.loads(line)["topic"]
                if topic in counts:
                    counts[topic] += 1
    path.unlink()
    if counts != {"message.generated": generated,
                  "message.delivered": delivered}:
        return [f"trace holds {counts}, result has {generated} generated "
                f"and {delivered} delivered"]
    return []


def _tx(level: str, result: Any) -> int:
    return result.transmissions if level == "packet" else result.transfers


@dataclasses.dataclass
class MemberTiming:
    """One timed build-and-run of a member, scaled by the speed probe."""

    sim: Any
    result: Any
    setups: List[float]  # scaled CPU seconds of each build
    run: float  # scaled CPU seconds of run()
    raw_run: float  # unscaled CPU seconds of run()


def _timed_member(probe: SpeedProbe, level: str, config: Any,
                  setup_repeats: int) -> MemberTiming:
    """Build ``setup_repeats`` times (timing each), then run the last."""
    setups: List[float] = []
    sim = None
    for _ in range(setup_repeats):
        sim = None
        gc.collect()
        sim, _, scaled = probe.measure(build, level, config)
        setups.append(scaled)
    gc.collect()
    result, raw, scaled = probe.measure(sim.run)
    return MemberTiming(sim, result, setups, scaled, raw)


@dataclasses.dataclass
class RunReport:
    """What one invocation measured."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    detail: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def fail(self, what: str, problems: List[str]) -> None:
        self.failed += 1
        self.failures.extend(f"{what}: {p}" for p in problems)


def timed_run(workload: str, configs: List[Any], seconds: float) -> RunReport:
    """End-to-end metrics of the whole ensemble, nothing wrapped."""
    level = WORKLOADS[workload].level
    report = RunReport()
    samples: List[List[float]] = [[] for _ in configs]
    raw: List[List[float]] = [[] for _ in configs]
    setups: List[float] = []
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(configs)
    totals = {"generated": 0, "delivered": 0, "delay_sum": 0.0, "tx": 0}
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        passes = _cycle(level, configs, deadline, probe, report, samples,
                        raw, setups, outcomes, totals)

    measured = [k for k, s in enumerate(samples) if s]
    sim_hours = sum(horizon_s(configs[k]) for k in measured) / 3600.0
    run_cpu = sum(statistics.median(samples[k]) for k in measured)
    delivered = totals["delivered"]
    report.metrics = {
        "cpu_s_per_sim_hour": run_cpu / sim_hours if sim_hours else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "delivery_ratio": delivered / totals["generated"] if totals["generated"] else 0.0,
        "mean_delay_s": totals["delay_sum"] / delivered if delivered else 0.0,
        "tx_per_delivery": totals["tx"] / delivered if delivered else 0.0,
    }
    raw_cpu = sum(statistics.median(raw[k]) for k in measured)
    report.detail = {
        "passes": passes,
        "raw_cpu_s_per_sim_hour": raw_cpu / sim_hours if sim_hours else 0.0,
        "run_cpu_s_per_member": samples, "raw_run_cpu_s_per_member": raw,
        "setup_s_samples": setups}
    return report


def _cycle(level: str, configs: List[Any], deadline: float,
           probe: SpeedProbe, report: RunReport,
           samples: List[List[float]], raw: List[List[float]],
           setups: List[float], outcomes: List[Optional[Dict[str, Any]]],
           totals: Dict[str, Any]) -> int:
    """Run members in turn until ``deadline``; returns the passes made."""
    wall: List[float] = [0.0] * len(configs)
    passes = 0
    while True:
        for k, config in enumerate(configs):
            # After the first pass, start a member only if its last run
            # still fits before the deadline.
            if passes and time.perf_counter() + wall[k] > deadline:
                continue
            report.attempted += 1
            began = time.perf_counter()
            try:
                timing = _timed_member(probe, level, config, SETUP_REPEATS)
                sim, result = timing.sim, timing.result
                problems = check(level, sim, result, horizon_s(config))
                seen = outcome(level, result)
            except Exception as exc:  # a crash is a failed operation
                report.fail(f"member {k}", [repr(exc)])
                continue
            finally:
                wall[k] = time.perf_counter() - began
            if outcomes[k] is None:
                outcomes[k] = seen
                if not problems:
                    totals["generated"] += result.messages_generated
                    totals["delivered"] += result.messages_delivered
                    totals["delay_sum"] += sum(sim.collector.delays())
                    totals["tx"] += _tx(level, result)
            elif seen != outcomes[k]:
                problems.append("a rerun of the same seed gave another result")
            if problems:
                report.fail(f"member {k}", problems)
                continue
            samples[k].append(timing.run)
            raw[k].append(timing.raw_run)
            setups.extend(timing.setups)
        passes += 1
        if all(time.perf_counter() + w > deadline for w in wall):
            return passes


def traced_run(workload: str, configs: List[Any], out: Dict[str, Any]) -> RunReport:
    """Per-layer metrics of member 0, traced, against an untraced run.

    The traced packet run also arms the runtime invariant checker; its
    periodic sweeps are extra events, so ``events_fired`` is left out of
    the comparison there.  ``out`` receives the span records and
    aggregates for the trace file.
    """
    level = WORKLOADS[workload].level
    config = configs[0]
    horizon = horizon_s(config)
    report = RunReport()

    report.attempted += 1
    try:
        with SpeedProbe() as probe:
            timing = _timed_member(probe, level, config, 1)
        sim, result, untraced_cpu = timing.sim, timing.result, timing.raw_run
        problems = check(level, sim, result, horizon)
        reference = outcome(level, result)
    except Exception as exc:
        report.fail("untraced run", [repr(exc)])
        return report
    if problems:
        report.fail("untraced run", problems)
    del sim, result, timing

    traced_config = config
    if level == "packet":
        traced_config = dataclasses.replace(config, check_invariants=True)
        reference.pop("events_fired")
    recorder = SpanRecorder()
    probes = Probes(recorder)
    report.attempted += 1
    try:
        probes.install()
        gc.collect()
        traced_sim = recorder.wrap("other.setup", build, record=True)(
            level, traced_config)
        parse_s = recorder.aggregate("scenario.parse")[1]
        recorder.reset()
        if level == "packet":
            probes.wrap_radio_hooks(traced_sim)
        gc.collect()
        start = cpu_s()
        traced = traced_sim.run()
        traced_cpu = cpu_s() - start
    except Exception as exc:
        report.fail("traced run", [repr(exc)])
        return report
    finally:
        left = probes.uninstall()

    problems = check(level, traced_sim, traced, horizon)
    if left:
        problems.append(f"wrappers not restored: {left}")
    seen = outcome(level, traced)
    if level == "packet":
        seen.pop("events_fired")
    if seen != reference:
        problems.append("traced result differs from the untraced one")
    metrics = probes.metrics()
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(accounted - traced_cpu) > ACCOUNTING_TOLERANCE * traced_cpu:
        problems.append(f"layer self times sum to {accounted:.3f} s, "
                        f"traced run() took {traced_cpu:.3f} s")
    if problems:
        report.fail("traced run", problems)

    packet = level == "packet"
    scheduled = metrics["des.scheduled"]
    events = traced.events_fired if packet else 0
    totals = traced.agent_totals if packet else {}
    metrics.update({
        "des.events": events,
        "des.cancelled_ratio": (scheduled - events) / scheduled if scheduled else 0.0,
        "radio.corrupt_ratio": (traced.frames_corrupted / traced.transmissions
                                if packet and traced.transmissions else 0.0),
        "energy.avg_power_mw": traced.average_power_mw if packet else 0.0,
        "core.handshake_success_ratio": (
            totals["multicasts_confirmed"] / totals["tx_attempts"]
            if totals.get("tx_attempts") else 0.0),
        "contact.usable_ratio": (traced.usable_contacts / traced.contacts
                                 if not packet and traced.contacts else 0.0),
        "contact.transfer_ratio": (traced.transfers / metrics["contact.accepts"]
                                   if not packet and metrics["contact.accepts"] else 0.0),
        "scenario.parse_s": parse_s,
        "trace.run_cpu_s": traced_cpu,
        "trace.untraced_cpu_s": untraced_cpu,
        "trace.overhead_ratio": traced_cpu / untraced_cpu if untraced_cpu else 0.0,
        "trace.accounted_ratio": accounted / traced_cpu if traced_cpu else 0.0,
    })
    report.metrics = metrics
    out["spans"] = recorder.records
    out["aggregates"] = {name: {"calls": int(c[0]), "total_s": c[1], "self_s": c[2]}
                         for name, c in sorted(recorder.aggregates.items())
                         if c[0]}
    out["counters"] = dict(sorted(recorder.counters.items()))
    return report
