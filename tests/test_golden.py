"""Golden traces: every preset x controller CSV is pinned by its SHA-256.

The digests are the ones the benchmark records in `perfbench/refs.json` for
the committed master seed 2211, so any change to the arithmetic of the plant,
the control laws or the fuzzy engine that moves a printed digit fails here.
"""
import hashlib
import json
from pathlib import Path

import pytest

from forcemotion.cli import main

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
SEED = 2211


def _expected(preset, controller):
    return json.loads(REFS.read_text())["run"][f"{preset}/{controller}/{SEED}"]


@pytest.mark.parametrize("controller", ["pi", "fuzzy"])
@pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3"])
def test_trace_csv_matches_recorded_digest(preset, controller, tmp_path):
    code = main(
        [
            "run", "--preset", preset, "--controller", controller,
            "--seed", str(SEED), "--out", str(tmp_path),
        ]
    )
    assert code == 0
    data = (tmp_path / f"{preset}_{controller}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _expected(preset, controller)
