"""Workload generator and output checks for the forcemotion benchmark.

The program only ever sees generated argv lists for ``forcemotion.cli.main``.
Master seeds come from fixed pools, and ``refs.json`` holds the outputs this
commit produced for every command the generator can emit, so each command is
checked against an exact reference whatever the workload seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import yaml

WORKLOADS = ("scenario-pi", "scenario-fuzzy", "tune-grid")
PRESETS = ("exp1", "exp2", "exp3")
TUNE_CONTROLLERS = ("fuzzy", "pi")
# The master seed of the committed presets and tuning/ leaderboards.
COMMITTED_SEED = 2211
# Every round of a cycle uses one master seed from these pools. A run walks
# whole pools, so its work is the same for every workload seed; the seed
# only orders it.
RUN_SEEDS = (COMMITTED_SEED, 7, 101, 4242, 9001, 31337, 65535, 123457)
TUNE_SEEDS = (COMMITTED_SEED, 17, 5003)
TICKS = 301
# Objectives must agree to this relative tolerance with the reference.
OBJECTIVE_RTOL = 1e-9
REFS = Path(__file__).with_name("refs.json")


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    kind: str  # "run" | "tune"
    key: str  # reference key in refs.json
    seed: int
    outputs: Tuple[str, ...]  # files written under --out, the trace or leaderboard first
    scenarios: int  # scenarios simulated and scored


def tune_config(root: Path, controller: str) -> Path:
    return root / "tuning" / f"exp2_{controller}_best.yaml"


def run_command(preset: str, controller: str, seed: int, out: Path) -> Command:
    argv = ("run", "--preset", preset, "--controller", controller, "--seed", str(seed), "--out", str(out))
    stem = f"{preset}_{controller}"
    return Command(argv, "run", f"{preset}/{controller}/{seed}", seed, (f"{stem}.csv", f"{stem}_summary.yaml"), 1)


def tune_command(root: Path, controller: str, seed: int, out: Path) -> Command:
    config = tune_config(root, controller)
    grid = yaml.safe_load(config.read_text())["tuner"]["grid"]
    argv = ("tune", "--config", str(config), "--seed", str(seed), "--out", str(out))
    stem = f"exp2_{controller}"
    outputs = (f"{stem}_leaderboard.yaml", f"{stem}_best.yaml")
    return Command(argv, "tune", f"{controller}/{seed}", seed, outputs, math.prod(len(v) for v in grid.values()))


def generate(workload: str, seed: int, root: Path, out: Path) -> List[List[Command]]:
    """One cycle of rounds for `workload`; the same seed gives the same cycle.

    A round is one master seed: the three presets on the scenario workloads,
    both grids on tune-grid.
    """
    rng = random.Random(seed)
    if workload == "tune-grid":
        return [
            [tune_command(root, c, s, out) for c in rng.sample(TUNE_CONTROLLERS, len(TUNE_CONTROLLERS))]
            for s in rng.sample(TUNE_SEEDS, len(TUNE_SEEDS))
        ]
    controller = {"scenario-pi": "pi", "scenario-fuzzy": "fuzzy"}[workload]
    return [
        [run_command(p, controller, s, out) for p in rng.sample(PRESETS, len(PRESETS))]
        for s in rng.sample(RUN_SEEDS, len(RUN_SEEDS))
    ]


def build_scenarios(workload: str, root: Path) -> int:
    """Validate and build every scenario the workload can run, as the CLI does.

    This is the set-up a fresh process pays; the benchmark times it in a
    child interpreter.
    """
    from forcemotion import config

    built = 0
    if workload == "tune-grid":
        for controller in TUNE_CONTROLLERS:
            raw = yaml.safe_load(tune_config(root, controller).read_text())
            for seed in TUNE_SEEDS:
                cfg = config.validate_config(dict(raw, seed=seed))
                config.tuner_settings(cfg)
                config.scenario_from_config(cfg)
                built += 1
        return built
    controller = {"scenario-pi": "pi", "scenario-fuzzy": "fuzzy"}[workload]
    for preset in PRESETS:
        for seed in RUN_SEEDS:
            raw = dict(config.preset_config(preset), controller=controller, seed=seed)
            config.scenario_from_config(config.validate_config(raw))
            built += 1
    return built


def trace_csv_error(data: bytes) -> Optional[str]:
    """None when the CSV holds a header and TICKS rows of finite numbers."""
    lines = data.decode().splitlines()
    if len(lines) != TICKS + 1:
        return f"trace has {len(lines) - 1} rows, expected {TICKS}"
    for number, line in enumerate(lines[1:], start=1):
        if not all(math.isfinite(float(v)) for v in line.split(",")):
            return f"trace row {number} is not finite"
    return None


def leaderboard_error(entries: Sequence[dict], reference: Sequence[dict]) -> Optional[str]:
    """None when the ranking, failures and objectives (within OBJECTIVE_RTOL) match."""
    if len(entries) != len(reference):
        return f"leaderboard has {len(entries)} entries, reference {len(reference)}"
    for rank, (got, want) in enumerate(zip(entries, reference)):
        if got["gains"] != want["gains"]:
            return f"rank {rank}: gains {got['gains']} differ from {want['gains']}"
        if got["failure"] != want["failure"]:
            return f"rank {rank}: failure {got['failure']!r} differs from {want['failure']!r}"
        a, b = got["objective"], want["objective"]
        if not (a == b or abs(a - b) <= OBJECTIVE_RTOL * abs(b)):
            return f"rank {rank}: objective {a!r} differs from {b!r}"
    return None


def reference_entries(board: dict) -> List[dict]:
    return [{k: e[k] for k in ("gains", "objective", "failure")} for e in board["entries"]]


class Checker:
    """Checks each command's output files; returns an error message or None."""

    def __init__(self, root: Path):
        self.refs = json.loads(REFS.read_text())
        self.committed = {
            c: reference_entries(yaml.safe_load((root / "tuning" / f"exp2_{c}_leaderboard.yaml").read_text()))
            for c in TUNE_CONTROLLERS
        }

    def check(self, cmd: Command, out: Path) -> Optional[str]:
        missing = [n for n in cmd.outputs if not (out / n).is_file() or (out / n).stat().st_size == 0]
        if missing:
            error = f"{missing} missing or empty"
        else:
            error = self._check_outputs(cmd, (out / cmd.outputs[0]).read_bytes())
        return error and f"{cmd.key}: {error}"

    def _check_outputs(self, cmd: Command, main: bytes) -> Optional[str]:
        if cmd.kind == "run":
            error = trace_csv_error(main)
            if error is None and hashlib.sha256(main).hexdigest() != self.refs["run"].get(cmd.key):
                error = "trace SHA-256 differs from the reference"
            return error
        entries = yaml.safe_load(main)["entries"]
        if len(entries) != cmd.scenarios:
            return f"leaderboard has {len(entries)} entries for {cmd.scenarios} grid points"
        for e in entries:
            scored = e["failure"] is None and math.isfinite(e["objective"])
            if not scored and not (isinstance(e["failure"], str) and e["failure"]):
                return f"grid point {e['gains']} neither scored nor failed"
        if cmd.key not in self.refs["tune"]:
            return f"no reference leaderboard for {cmd.key}"
        error = leaderboard_error(entries, self.refs["tune"][cmd.key])
        if error is None and cmd.seed == COMMITTED_SEED:
            error = leaderboard_error(entries, self.committed[cmd.key.split("/")[0]])
            error = error and f"against tuning/: {error}"
        return error
