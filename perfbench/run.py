#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload packet-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

``--trace 0`` times the workload's ensemble and reports the end-to-end
metrics; ``--trace 1`` runs member 0 under span probes and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any correctness check failed.  A manifest line (git
revision, versions, ``nproc``, config sha256) precedes it, and the full
report, with the trace's spans, is written under ``.perfbench_out/``.
See perfbench/README.md for every metric's unit and direction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench_out")

#: End-to-end metrics: name -> (unit, which direction is better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "cpu_s_per_sim_hour": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "delivery_ratio": ("ratio", "higher"),
    "mean_delay_s": ("s", "lower"),
    "tx_per_delivery": ("tx/delivery", "lower"),
}


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload: str, seed: int, digest: str) -> Dict[str, Any]:
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "config_sha256": digest,
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[Any, Dict[str, Any]]:
    """Measure one workload; returns the report and the manifest."""
    from measure import timed_run, traced_run
    from workloads import build_configs, config_digest

    work_dir = OUT_DIR / workload
    configs = build_configs(workload, seed, work_dir)
    info = manifest(workload, seed, config_digest(configs))
    spans: Dict[str, Any] = {}
    if trace:
        report = traced_run(workload, configs, spans)
    else:
        report = timed_run(workload, configs, seconds)
    work_dir.mkdir(parents=True, exist_ok=True)
    stem = f"report-seed{seed}-trace{int(trace)}.json"
    (work_dir / stem).write_text(json.dumps({
        "manifest": info, "correct": report.correct,
        "attempted": report.attempted, "failed": report.failed,
        "failures": report.failures, "metrics": report.metrics,
        "detail": report.detail, **spans}, indent=1) + "\n")
    return report, info


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} not found; run it "
                 "from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from probes import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload in names:
        started = time.perf_counter()
        report, info = run_workload(workload, args.seed, args.seconds,
                                    bool(args.trace))
        attempted += report.attempted
        failed += report.failed
        print(json.dumps({"manifest": info}), flush=True)
        for problem in report.failures:
            print(f"FAILED {workload} {problem}", flush=True)
        for name, (unit, _) in units.items():
            value = report.metrics.get(name, 0.0)
            print(f"{workload:15s} {name:30s} {value:14.6g} {unit}")
            key = name if len(names) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"{workload}: {report.attempted} runs, {report.failed} failed, "
              f"{time.perf_counter() - started:.1f} s", flush=True)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
