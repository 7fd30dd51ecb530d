"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

from hostspeed import PROBE_NOMINAL_S, SpeedProbe  # noqa: E402
from measure import check, timed_run, traced_run  # noqa: E402
from probes import PER_LAYER, Probes  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import (  # noqa: E402
    PLAN_SENSORS,
    PLAN_SINKS,
    WORKLOADS,
    build_configs,
    config_digest,
    generate_contact_plan,
    member_seed,
)

from repro.contact.simulator import ContactSimConfig  # noqa: E402
from repro.network.config import SimulationConfig  # noqa: E402


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_contact_plan_is_a_function_of_the_seed():
    assert generate_contact_plan(7) == generate_contact_plan(7)
    assert generate_contact_plan(7) != generate_contact_plan(8)


def test_member_seeds_are_stable_and_distinct():
    seeds = {member_seed(w, s, k) for w in WORKLOADS for s in (1, 2)
             for k in range(8)}
    assert len(seeds) == len(WORKLOADS) * 2 * 8
    assert member_seed("packet-paper", 1, 0) == member_seed("packet-paper", 1, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_configs_are_a_function_of_the_seed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = config_digest(build_configs(workload, 3, Path("a")))
    again = config_digest(build_configs(workload, 3, Path("a")))
    other = config_digest(build_configs(workload, 4, Path("a")))
    assert first == again != other


def test_traced_workload_shares_packet_paper_members(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paper = build_configs("packet-paper", 5, Path("o"))
    traced = build_configs("packet-traced", 5, Path("o"))
    for plain, with_trace in zip(paper, traced):
        assert with_trace.trace_path is not None
        assert plain.to_dict() == {**with_trace.to_dict(), "trace_path": None}


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
#   root  [0, 10]
#     a   [1, 4]      b [5, 9]
#     a.x [2, 3]      b.y [6, 7]   b.y [7.5, 8.5]
SYNTHETIC = [
    (0, "root", 0.0, 10.0, None),
    (1, "a", 1.0, 4.0, 0),
    (2, "x", 2.0, 3.0, 1),
    (3, "b", 5.0, 9.0, 0),
    (4, "y", 6.0, 7.0, 3),
    (5, "y", 7.5, 8.5, 3),
]


def test_self_time_is_duration_minus_covered_children():
    got = self_times(SYNTHETIC)
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "x": 1.0,
                                 "b": 2.0, "y": 2.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [(0, "p", 0.0, 4.0, None), (1, "c", 1.0, 3.0, 0),
             (2, "c", 2.0, 5.0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_recorder_agrees_with_the_reference():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def middle():
        rec.wrap("leaf", leaf, record=True)()
        rec.wrap("leaf", leaf, record=True)()

    def top():
        rec.wrap("middle", middle, record=True)()
        rec.wrap("leaf", leaf, record=True)()

    rec.wrap("top", top, record=True)()
    online = {name: cell[2] for name, cell in rec.aggregates.items()}
    assert online == pytest.approx(self_times(rec.records))
    assert [r[4] for r in rec.records] == [None, 0, 1, 1, 0]


def test_outermost_wrapper_counts_nested_calls_once():
    rec = SpanRecorder()
    group = [0]

    def inner():
        return 1

    wrapped_inner = rec.wrap_outermost("q", inner, group)

    def outer():
        return wrapped_inner() + 1

    assert rec.wrap_outermost("q", outer, group)() == 2
    assert wrapped_inner() == 1
    assert rec.aggregates["q"][0] == 2


# ----------------------------------------------------------------------
# probes and the traced run
# ----------------------------------------------------------------------
def _tiny_packet():
    return SimulationConfig(protocol="opt", seed=3, duration_s=600.0,
                            n_sensors=30, n_sinks=3, area_m=60.0,
                            zones_per_side=2)


def _tiny_plan(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text(generate_contact_plan(11))
    return ContactSimConfig(policy="epidemic", seed=11, duration_s=600.0,
                            n_sinks=PLAN_SINKS, n_sensors=PLAN_SENSORS,
                            plan_path=str(path))


def _class_state():
    probes = Probes(SpanRecorder())
    probes.install()
    owners = [(owner, attr) for owner, attr, _, _ in probes._patched]
    probes.uninstall()
    return {(id(owner), attr): vars(owner).get(attr) for owner, attr in owners}


@pytest.mark.parametrize("workload,make", [
    ("packet-paper", lambda tmp: _tiny_packet()),
    ("contact-replay", _tiny_plan),
])
def test_traced_run_restores_wrappers_and_matches(workload, make, tmp_path):
    config = make(tmp_path)
    level = WORKLOADS[workload].level
    before_state = _class_state()
    before = timed_run(workload, [config], seconds=0.0)
    spans = {}
    report = traced_run(workload, [config], spans)
    assert report.correct, report.failures
    assert _class_state() == before_state
    after = timed_run(workload, [config], seconds=0.0)
    assert before.correct and after.correct
    for name in ("delivery_ratio", "mean_delay_s", "tx_per_delivery"):
        assert before.metrics[name] == after.metrics[name]
    assert set(report.metrics) == set(PER_LAYER)
    assert report.metrics["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.05)
    assert spans["spans"][0][1] == "other.setup"
    if level == "packet":
        assert report.metrics["des.events"] > 0
        assert report.metrics["contact.offers"] == 0
    else:
        assert report.metrics["des.events"] == 0
        assert report.metrics["core.queue_membership_calls"] > 0


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------
def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def test_speed_probe_samples_during_the_call_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        value, cpu, scaled = probe.measure(_spin, 2_000_000)
        # Edge probes on both sides plus at least one timer probe inside.
        assert len(probe.samples) > 4
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert value == _spin(2_000_000)
    assert signal.getsignal(signal.SIGPROF) is before
    assert cpu > 0.0
    speed = sum(PROBE_NOMINAL_S / p for p in probe.samples) / len(probe.samples)
    assert scaled == pytest.approx(cpu * speed)


def test_speed_probe_excludes_its_own_time():
    with SpeedProbe() as probe:
        _, cpu, _ = probe.measure(_spin, 2_000_000)
        in_call = sum(probe.samples[2:-2])
    # The timer probes' CPU time is taken out of the call's time.
    assert in_call > 0.0
    with SpeedProbe() as probe:
        _, short_cpu, _ = probe.measure(_spin, 1_000_000)
    assert cpu == pytest.approx(2 * short_cpu, rel=0.5)


def test_check_flags_broken_conservation(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"topic":"message.generated","time":1.0}\n'
                     '{"topic":"frame.tx","time":2.0}\n')
    result = SimpleNamespace(messages_generated=2, messages_delivered=3,
                             delivery_ratio=1.5, average_delay_s=-1.0,
                             usable_contacts=1, contacts=1, transfers=3,
                             config=SimpleNamespace(trace_path=str(trace)))
    sim = SimpleNamespace(collector=SimpleNamespace(
        delays=lambda: [-1.0, 5.0, 700.0]))
    problems = check("contact", sim, result, horizon=600.0)
    assert any("delivered 3" in p for p in problems)
    assert any("delivery ratio" in p for p in problems)
    assert any("delays outside" in p for p in problems)
    assert any("trace holds" in p for p in problems)
    assert not trace.exists()


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    for name, (unit, better) in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_readme_documents_every_metric():
    readme = (HERE / "README.md").read_text()
    for name in {**END_TO_END, **PER_LAYER}:
        assert f"`{name}`" in readme, name


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200
