"""Seeded contact-level goldens.

``tests/data/contact_goldens.json`` pins, per seeded configuration, the
run's ``contact_result_to_dict`` view, the summed ``QueueStats`` ledger
of all nodes, and every FAD / ZBR node's final ``(_xi, _last_event)``.
Any change to contact detection or to the exchange loop must reproduce
these runs exactly, down to every threshold refusal tallied in the
queue ledger and every estimator's decay bookkeeping.
"""

import json
import pathlib

import pytest

from tests.data.regen_contact_goldens import (GOLDEN_CONFIGS, POLICIES,
                                              build_configs, golden_of)

from repro.protocols import CONTACT_POLICIES

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "contact_goldens.json"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_registered_policy():
    assert sorted(POLICIES) == sorted(CONTACT_POLICIES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_seeded_contact_run_matches_golden(name, goldens):
    record = golden_of(build_configs()[name])
    assert json.loads(json.dumps(record)) == goldens[name]
