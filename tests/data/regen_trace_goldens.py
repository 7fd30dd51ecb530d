#!/usr/bin/env python
"""Regenerate tests/data/trace_goldens.json (trace-file byte pins).

The goldens pin the sha256 and line count of seeded trace files, JSONL
and CSV, for one packet-level and one contact-level run:

* ``packet_smoke``: the ``SMOKE`` config of
  ``tests/test_obs_integration.py``;
* ``contact_geo_fad``: a small geometric ``fad`` contact run.

Message ids come from a process-global counter, so a trace is only
byte-reproducible from a fresh interpreter: every trace is written by a
child process running this script with ``--write``.
``tests/test_trace_goldens.py`` rewrites each trace the same way and
compares digests.  Regenerate only after an intentional, understood
change to the trace format or to what a seeded run emits::

    PYTHONPATH=src python tests/data/regen_trace_goldens.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, Tuple

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Must stay in sync with ``SMOKE`` in ``tests/test_obs_integration.py``.
SMOKE = dict(protocol="opt", n_sensors=10, n_sinks=2,
             duration_s=500.0, seed=5)

#: name -> (simulation level, config kwargs); names are stable keys.
TRACE_CONFIGS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "packet_smoke": ("packet", SMOKE),
    "contact_geo_fad": ("contact", dict(
        policy="fad", seed=29, duration_s=1500.0, n_sensors=20, n_sinks=2,
        area_m=67.0, zones_per_side=3, queue_capacity=50)),
}

#: Trace file suffixes; ``writer_for_path`` picks the writer from it.
FORMATS = ("jsonl", "csv")


def write_trace(name: str, path: str) -> None:
    """Run config ``name`` in this process with its trace at ``path``."""
    level, kwargs = TRACE_CONFIGS[name]
    if level == "packet":
        from repro.network.config import SimulationConfig
        from repro.network.simulation import run_simulation
        run_simulation(SimulationConfig(trace_path=path, **kwargs))
    else:
        from repro.contact.simulator import ContactSimConfig, ContactSimulation
        ContactSimulation(ContactSimConfig(trace_path=path, **kwargs)).run()


def trace_digest(name: str, fmt: str) -> Dict[str, object]:
    """Write config ``name``'s ``fmt`` trace from a fresh interpreter and
    return its ``{"sha256", "lines"}`` record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{name}.{fmt}"
        subprocess.run([sys.executable, __file__, "--write", name, str(path)],
                       check=True, env=env)
        data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": data.count(b"\n")}


def main() -> None:
    out = HERE / "trace_goldens.json"
    goldens: Dict[str, Dict[str, object]] = {}
    for name in sorted(TRACE_CONFIGS):
        for fmt in FORMATS:
            goldens[f"{name}.{fmt}"] = record = trace_digest(name, fmt)
            print(f"{name}.{fmt}: {record['lines']} lines")
    out.write_text(json.dumps(goldens, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write_trace(sys.argv[2], sys.argv[3])
    else:
        main()
