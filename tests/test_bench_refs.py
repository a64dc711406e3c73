"""Every run trace and tune leaderboard the benchmark checks, recomputed
in-process.

`perfbench/refs.json` holds the SHA-256 of the CSV trace of each preset x
law at each of the benchmark's master seeds, and the exp2 leaderboard of
each law at each tune seed. `tests/test_golden.py` and
`tests/test_tuning_files.py` pin seed 2211 through the CLI; this pins all of
them, so a change of arithmetic that moves a printed digit or an objective's
last bit at any seed fails here and not first in the benchmark. The file is
only read.
"""
import hashlib
import json
from pathlib import Path

import pytest
import yaml

from forcemotion import config
from forcemotion.cli import format_trace_csv
from forcemotion.sim import run, tune

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
RUN_DIGESTS = json.loads(REFS.read_text())["run"]
TUNE_BOARDS = json.loads(REFS.read_text())["tune"]
TUNING = Path(__file__).resolve().parents[1] / "tuning"


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


def test_refs_cover_both_tune_grids_at_every_seed():
    laws, seeds = (set(part) for part in zip(*(key.split("/") for key in TUNE_BOARDS)))
    assert laws == {"pi", "fuzzy"} and len(TUNE_BOARDS) == len(laws) * len(seeds) == 6


@pytest.mark.parametrize("key", sorted(TUNE_BOARDS))
def test_tune_leaderboard_matches_benchmark_reference(key):
    # Ranking, failures and objectives as equal floats.
    law, seed = key.split("/")
    raw = yaml.safe_load((TUNING / f"exp2_{law}_best.yaml").read_text())
    cfg = config.validate_config(dict(raw, seed=int(seed)))
    settings = config.tuner_settings(cfg)
    _, board = tune(
        config.scenario_from_config(cfg),
        settings["grid"],
        weights=settings["weights"],
        axis=settings["axis"],
        band_pct=settings["band_pct"],
    )
    got = [{"gains": e.gains, "objective": e.objective, "failure": e.failure} for e in board]
    assert got == TUNE_BOARDS[key]
