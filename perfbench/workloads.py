"""The benchmark's four workloads and their seeded inputs.

Every input is a pure function of the workload name and the ``--seed``
argument: member seeds come from a sha256 of ``(workload, seed,
member)``, and the contact plan of ``contact-replay`` is drawn from a
``random.Random`` seeded the same way.  The simulator only ever sees the
generated configs (and the plan file), through its public entry points.

Each workload is an *ensemble* of ``members`` independent simulations.
One simulation's cost and outcome swing with its seed (who meets a sink,
how many messages arrive); pooling a fixed ensemble keeps the per-run
figures steady across seeds while every member stays a plain, seeded
run of the public API.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

from repro.contact.simulator import ContactSimConfig
from repro.harness.bench import PAPER_DENSITY, PAPER_SINK_FRACTION, scale_config
from repro.network.config import SimulationConfig

#: Sensors in the zone-mobility workloads.  ``scale_config`` keeps the
#: paper's density (100 sensors in 150 x 150 m) and 30 m zones, so 200
#: sensors roam a 212 m square of 7 x 7 zones with 6 sinks.
ZONE_SENSORS = 200

#: Simulated seconds of a packet-level member.  Buffers are still
#: filling at 600 s (about 7 % delivered at 300 sensors); by 1200 s a
#: fifth to a quarter of the messages reach a sink.
PACKET_HORIZON_S = 1200.0

#: Simulated seconds of a contact-level member.
CONTACT_HORIZON_S = 600.0

#: The generated contact plan: node count and per-pair contact process.
#: Epidemic's cost grows with the square of the buffered messages, so
#: one run's cost swings with its arrival count; many small members
#: average that out for less CPU than a few large ones.
PLAN_SINKS = 2
PLAN_SENSORS = 20
PLAN_MEAN_GAP_S = 800.0
PLAN_MEAN_DURATION_S = 10.0
PLAN_RATE_BPS = 10_000


@dataclass(frozen=True)
class Workload:
    """One named workload: a simulation level and an ensemble size."""

    name: str
    level: str  # "packet" | "contact"
    members: int
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("packet-paper", "packet", 7,
             "The paper's experiment (opt, zone mobility, paper density): "
             "des, radio, energy and MAC core changes move "
             "cpu_s_per_sim_hour here; contact-level changes must not."),
    Workload("contact-geo", "contact", 10,
             "Contact level, fad, geometric detection: mobility, "
             "ContactTracer.scan and xi/FTD exchange changes move "
             "cpu_s_per_sim_hour here; des, radio, energy changes must not."),
    Workload("contact-replay", "contact", 70,
             "Contact level, epidemic over a seeded ION-style plan, no "
             "mobility: FtdQueue membership/remove-by-id and plan parsing "
             "(setup_s) changes show here; mobility changes must not."),
    Workload("packet-traced", "packet", 3,
             "packet-paper with a JSONL trace_path, the only workload where "
             "obs runs at full rate: obs changes move cpu_s_per_sim_hour "
             "here and must not move packet-paper."),
)}


def member_seed(workload: str, seed: int, member: int) -> int:
    """The simulation seed of one ensemble member (31-bit, stable)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{member}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def generate_contact_plan(seed: int) -> str:
    """A seeded ION-style contact plan over ``PLAN_SINKS + PLAN_SENSORS``
    nodes and ``CONTACT_HORIZON_S`` seconds.

    Every node pair meets as an alternating renewal process: exponential
    gaps (mean ``PLAN_MEAN_GAP_S``) and exponential durations (mean
    ``PLAN_MEAN_DURATION_S``, at least 1 s).  Windows of one pair never
    overlap, as the parser requires.
    """
    rng = random.Random(seed)
    n_nodes = PLAN_SINKS + PLAN_SENSORS
    lines = [f"# perfbench contact plan, seed {seed}"]
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            t = rng.expovariate(1.0 / PLAN_MEAN_GAP_S)
            while t < CONTACT_HORIZON_S:
                duration = max(1.0, rng.expovariate(1.0 / PLAN_MEAN_DURATION_S))
                lines.append(f"a contact +{t:.3f} +{t + duration:.3f} "
                             f"{a} {b} {PLAN_RATE_BPS}")
                t += duration + rng.expovariate(1.0 / PLAN_MEAN_GAP_S)
    return "\n".join(lines) + "\n"


def _zone_contact_config(seed: int, **overrides: object) -> ContactSimConfig:
    """A contact-level config with ``scale_config``'s zone geometry."""
    area_m = math.sqrt(ZONE_SENSORS / PAPER_DENSITY)
    return ContactSimConfig(
        seed=seed, duration_s=CONTACT_HORIZON_S, n_sensors=ZONE_SENSORS,
        n_sinks=max(1, round(ZONE_SENSORS * PAPER_SINK_FRACTION)),
        area_m=area_m, zones_per_side=max(1, round(area_m / 30.0)),
        **overrides)  # type: ignore[arg-type]


def packet_config(seed: int) -> SimulationConfig:
    """The ``packet-paper`` member config for one simulation seed.

    Sinks sit on a grid ("strategic locations", Sec. 1): with random
    placement one seed's sinks can all land in a quiet corner, and the
    per-seed work then swings by a third.
    """
    return scale_config(ZONE_SENSORS, PACKET_HORIZON_S, seed=seed,
                        protocol="opt", sink_placement="grid")


def build_configs(workload: str, seed: int,
                  out_dir: Path) -> List[object]:
    """Every member config of ``workload`` for ``seed``.

    Files the configs name (plans, traces) live under ``out_dir``, given
    relative to the working directory so config hashes do not depend on
    where the checkout sits.  Plans are written here, before any timing.
    """
    spec = WORKLOADS[workload]
    configs: List[object] = []
    for k in range(spec.members):
        sim_seed = member_seed(workload, seed, k)
        if workload == "packet-paper":
            configs.append(packet_config(sim_seed))
        elif workload == "packet-traced":
            # Same members as packet-paper, so the two share outcomes.
            base = packet_config(member_seed("packet-paper", seed, k))
            trace = out_dir / f"trace-{seed}-{k}.jsonl"
            configs.append(replace(base, trace_path=str(trace)))
        elif workload == "contact-geo":
            configs.append(_zone_contact_config(sim_seed, policy="fad"))
        elif workload == "contact-replay":
            plan = out_dir / f"plan-{seed}-{k}.txt"
            out_dir.mkdir(parents=True, exist_ok=True)
            plan.write_text(generate_contact_plan(sim_seed))
            configs.append(ContactSimConfig(
                policy="epidemic", seed=sim_seed,
                duration_s=CONTACT_HORIZON_S, n_sinks=PLAN_SINKS,
                n_sensors=PLAN_SENSORS, plan_path=str(plan)))
        else:  # pragma: no cover - WORKLOADS lookup above rejects it
            raise KeyError(workload)
    return configs


def config_digest(configs: List[object]) -> str:
    """sha256 of the members' configs (and of any plan file they name)."""
    h = hashlib.sha256()
    for config in configs:
        data = config.to_dict()  # type: ignore[attr-defined]
        h.update(json.dumps(data, sort_keys=True).encode())
        plan = data.get("plan_path")
        if plan:
            h.update(Path(str(plan)).read_bytes())
    return h.hexdigest()


def horizon_s(config: object) -> float:
    """Simulated seconds one member covers."""
    return float(config.duration_s)  # type: ignore[attr-defined]

