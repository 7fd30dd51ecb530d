#!/usr/bin/env python
"""Regenerate tests/data/contact_goldens.json (contact-level goldens).

The goldens pin, for a spread of seeded contact-level runs:

* ``contact_result_to_dict(result)`` — the run's outcome;
* the per-run sum of every :class:`~repro.core.queue.QueueStats` field
  over all nodes, so work the exchange loop skips (threshold refusals
  it fast-forwards) is still tallied exactly;
* every FAD / ZBR node's final estimator state ``(_xi, _last_event)``.

Every registered contact policy runs on one geometric config; ``fad``
also runs at the ``contact-geo`` benchmark geometry, and ``fad`` and
``epidemic`` replay a seeded inline contact plan.
``tests/test_contact_goldens.py`` replays the configs and asserts equal
dicts.  Regenerate only after an intentional, understood change to
contact-level semantics::

    PYTHONPATH=src python tests/data/regen_contact_goldens.py
"""

import json
import math
import pathlib
import random
from dataclasses import fields
from typing import Dict

from repro.contact.policies import LazyXiEstimator
from repro.contact.simulator import ContactSimConfig, ContactSimulation
from repro.core.queue import QueueStats
from repro.harness.serialize import contact_result_to_dict
from repro.scenario.spec import ScenarioSpec

#: Every policy of the repro.protocols contact registry.
POLICIES = ("direct", "epidemic", "fad", "meeting_rate", "spray", "two_hop",
            "zbr")

#: Paper density (100 sensors in 150 x 150 m) at 40 sensors; the small
#: buffer keeps epidemic flooding cheap and exercises overflow drops.
_GEO = dict(seed=29, duration_s=1500.0, n_sensors=40, n_sinks=2,
            area_m=95.0, zones_per_side=3, queue_capacity=50)

#: The ``contact-geo`` benchmark geometry (200 sensors, 6 sinks, 30 m
#: zones, 600 s), at the simulation seed of its seed-101 member 0.
_BENCH_GEO = dict(seed=914_263_557, duration_s=600.0, n_sensors=200,
                  n_sinks=6, area_m=math.sqrt(200 / (100.0 / 150.0 ** 2)),
                  zones_per_side=7)


def replay_plan(seed: int = 7, n_nodes: int = 10, horizon_s: float = 2000.0,
                mean_gap_s: float = 300.0, mean_duration_s: float = 30.0,
                rate_bps: int = 10_000) -> str:
    """A seeded inline contact plan: each pair alternates exponential
    gaps and (at least 1 s long) exponential contacts."""
    rng = random.Random(seed)
    lines = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            t = rng.expovariate(1.0 / mean_gap_s)
            while t < horizon_s:
                length = max(1.0, rng.expovariate(1.0 / mean_duration_s))
                lines.append(f"a contact +{t:.3f} +{t + length:.3f} "
                             f"{a} {b} {rate_bps}")
                t += length + rng.expovariate(1.0 / mean_gap_s)
    return "\n".join(lines) + "\n"


def _replay(policy: str) -> Dict[str, object]:
    scenario = ScenarioSpec(name="golden-replay", mobility="plan",
                            n_sensors=8, n_sinks=2, duration_s=2000.0,
                            plan=replay_plan())
    return dict(policy=policy, seed=3, duration_s=2000.0, n_sensors=8,
                n_sinks=2, mean_arrival_s=60.0, scenario=scenario)


#: name -> config kwargs; names are stable keys in the golden file.
GOLDEN_CONFIGS: Dict[str, Dict[str, object]] = {
    **{f"geo_{policy}": dict(_GEO, policy=policy) for policy in POLICIES},
    "bench_geo_fad": dict(_BENCH_GEO, policy="fad"),
    "replay_fad": _replay("fad"),
    "replay_epidemic": _replay("epidemic"),
}


def build_configs() -> Dict[str, ContactSimConfig]:
    """The golden configurations, keyed by name."""
    return {name: ContactSimConfig(**kwargs)  # type: ignore[arg-type]
            for name, kwargs in GOLDEN_CONFIGS.items()}


def golden_of(config: ContactSimConfig) -> Dict[str, object]:
    """Run ``config`` and reduce it to its golden record."""
    sim = ContactSimulation(config)
    result = sim.run()
    queue_stats = {f.name: 0 for f in fields(QueueStats)}
    estimators: Dict[str, list] = {}
    for nid, policy in sorted(sim.policies.items()):
        for name in queue_stats:
            queue_stats[name] += getattr(policy.queue.stats, name)
        for attr in ("estimator", "history"):
            est = getattr(policy, attr, None)
            if isinstance(est, LazyXiEstimator):
                estimators[str(nid)] = [est._xi, est._last_event]
    return {"result": contact_result_to_dict(result),
            "queue_stats": queue_stats, "estimators": estimators}


def main() -> None:
    out = pathlib.Path(__file__).resolve().parent / "contact_goldens.json"
    goldens = {}
    for name, config in sorted(build_configs().items()):
        goldens[name] = golden_of(config)
        result = goldens[name]["result"]
        print(f"{name}: transfers={result['transfers']} "
              f"delivered={result['messages_delivered']}")
    out.write_text(json.dumps(goldens, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
