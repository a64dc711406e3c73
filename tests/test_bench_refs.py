"""Every run trace the benchmark checks, recomputed in-process.

`perfbench/refs.json` holds the SHA-256 of the CSV trace of each preset x
law at each of the benchmark's master seeds. `tests/test_golden.py` pins
seed 2211 through the CLI; this pins all of them, so a change of arithmetic
that moves a printed digit at any seed fails here and not first in the
benchmark. The file is only read.
"""
import hashlib
import json
from pathlib import Path

import pytest

from forcemotion import config
from forcemotion.cli import format_trace_csv
from forcemotion.sim import run

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
RUN_DIGESTS = json.loads(REFS.read_text())["run"]


def test_refs_cover_every_preset_law_and_seed():
    presets, laws, seeds = (set(part) for part in zip(*(key.split("/") for key in RUN_DIGESTS)))
    assert presets == {"exp1", "exp2", "exp3"} and laws == {"pi", "fuzzy"}
    assert len(RUN_DIGESTS) == len(presets) * len(laws) * len(seeds) == 48


@pytest.mark.parametrize("key", sorted(RUN_DIGESTS))
def test_run_trace_matches_benchmark_digest(key):
    preset, law, seed = key.split("/")
    raw = dict(config.preset_config(preset), controller=law, seed=int(seed))
    trace = run(config.scenario_from_config(config.validate_config(raw)))
    assert hashlib.sha256(format_trace_csv(trace).encode()).hexdigest() == RUN_DIGESTS[key]
