"""Seeded trace-file byte pins.

``tests/data/trace_goldens.json`` pins the sha256 and line count of the
JSONL and CSV traces of a packet-level and a contact-level seeded run.
A change to a trace writer must keep every file byte-identical: the
same key order, separators, float repr and ``null``/``true``/``NaN``
spellings.
"""

import json
import pathlib

import pytest

from tests.data.regen_trace_goldens import FORMATS, TRACE_CONFIGS, trace_digest

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "trace_goldens.json"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_config_and_format(goldens):
    assert sorted(goldens) == sorted(f"{name}.{fmt}" for name in TRACE_CONFIGS
                                     for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(TRACE_CONFIGS))
def test_seeded_trace_matches_golden(name, fmt, goldens):
    assert trace_digest(name, fmt) == goldens[f"{name}.{fmt}"]
