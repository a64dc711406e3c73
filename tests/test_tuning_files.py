"""The committed tuning/ files, written again by the CLI.

Each `tuning/<exp>_<law>_best.yaml` holds the grid that produced it. Tuning
it again at the committed master seed must write its leaderboard and its
best config byte for byte as committed, for every experiment and law: the
benchmark checks only the exp2 leaderboards, and their objectives only to a
relative 1e-9.
"""
from pathlib import Path

import pytest

from forcemotion.cli import main
from forcemotion.fuzzy import RuleBase

TUNING = Path(__file__).resolve().parents[1] / "tuning"
STEMS = [f"{exp}_{law}" for exp in ("exp1", "exp2", "exp3") for law in ("pi", "fuzzy")]


def test_every_committed_tuning_is_covered():
    assert sorted(p.name for p in TUNING.iterdir()) == sorted(
        f"{stem}{suffix}" for stem in STEMS for suffix in ("_best.yaml", "_leaderboard.yaml")
    )


@pytest.mark.parametrize("stem", STEMS)
def test_tune_writes_the_committed_files(stem, tmp_path, capsys):
    config = TUNING / f"{stem}_best.yaml"
    assert main(["tune", "--config", str(config), "--seed", "2211", "--out", str(tmp_path)]) == 0
    for suffix in ("_leaderboard.yaml", "_best.yaml"):
        name = f"{stem}{suffix}"
        assert (tmp_path / name).read_bytes() == (TUNING / name).read_bytes(), name


@pytest.mark.parametrize("stem", STEMS)
def test_tune_makes_no_scalar_engine_call(stem, tmp_path, monkeypatch):
    # The column engine integrates every aggregate of every committed grid,
    # those of three shapes included.
    calls = []
    output = RuleBase.output
    monkeypatch.setattr(RuleBase, "output", lambda self, e, de: calls.append((e, de)) or output(self, e, de))
    config = TUNING / f"{stem}_best.yaml"
    assert main(["tune", "--config", str(config), "--seed", "2211", "--out", str(tmp_path)]) == 0
    assert calls == []
