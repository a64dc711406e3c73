"""Command-line front end: run / compare / tune / infer.

Exit codes: 0 success, 2 config error (an unusable --out or result file
included), 3 simulation abort, 4 tuner failure. Result names are checked
before anything is simulated. A command's results are all written to temp
names and then renamed; a failure removes what was written, so no truncated
CSV, partial result set or *.tmp file is left behind.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import config as cfgmod
from . import fuzzy
from .config import ConfigInvalid
from .control import AXES, LAWS, FuzzyPIGains
from .plant import fmt_num
from .presets import PRESET_NAMES, TUNED_FUZZY
from .sim import (
    AllRunsFailed,
    NoContact,
    Trace,
    TRACE_COLUMNS,
    WorkspaceViolation,
    compute_metrics,
    run,
    tune,
)


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _write_results(results: Dict[Path, str]) -> None:
    """Create the results' directory, write each text to its path's temp name
    and rename them all; a failure removes every temp and result written."""
    out = next(iter(results)).parent
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"--out {out}: {exc.strerror or exc}") from None
    written: List[Path] = []
    try:
        for path, text in results.items():
            written.append(_tmp(path))
            _tmp(path).write_text(text)
        for path in results:
            os.replace(_tmp(path), path)
            written.append(path)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink()
        raise ConfigInvalid(f"{path}: cannot write: {exc.strerror or exc}") from None


# Every value is printed with "%.9g", one %-format per row; tests/test_golden.py
# pins the bytes.
_CSV_HEADER = ",".join(TRACE_COLUMNS) + "\n"
_CSV_ROW = ",".join(["%.9g"] * len(TRACE_COLUMNS)) + "\n"


def format_trace_csv(trace: Trace) -> str:
    return _CSV_HEADER + (_CSV_ROW * len(trace)) % tuple(trace.values.ravel().tolist())


def _selected_axes(cfg: Dict[str, Any]) -> List[str]:
    return [axis for axis in AXES if cfg["selection"][axis]]


def _effective_config(args) -> Dict[str, Any]:
    if args.preset and args.config:
        raise ConfigInvalid("--preset and --config are mutually exclusive")
    if args.preset:
        raw = cfgmod.preset_config(args.preset)
    elif args.config:
        raw = cfgmod.read_config(args.config)
    else:
        raise ConfigInvalid("provide --preset or --config")
    if getattr(args, "controller", None):
        raw["controller"] = args.controller
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.set:
        raw = cfgmod.apply_overrides(raw, args.set)
    return cfgmod.validate_config(raw)


def _result_paths(args, *names: str) -> List[Path]:
    """The result files in --out, checked before anything is simulated (--out
    is created only to write them): the longest part of --out that exists
    must be a directory, and neither a result name nor its temp name may be
    held by a directory."""
    out = Path(args.out)
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if not os.path.isdir(existing):
        raise ConfigInvalid(f"--out {out}: {existing} is not a directory")
    paths = [out / name for name in names]
    for path in paths:
        for taken in (path, _tmp(path)):
            if taken.is_dir():
                raise ConfigInvalid(f"{taken}: cannot write: Is a directory")
    return paths


def _metrics_summary(cfg: Dict[str, Any], trace: Trace) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    for axis in _selected_axes(cfg):
        setpoint = float(cfg["setpoint"][axis])
        try:
            metrics[axis] = dataclasses.asdict(compute_metrics(trace, axis, setpoint))
        except NoContact as exc:
            metrics[axis] = {"error": str(exc)}
    return metrics


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    scenario = cfgmod.scenario_from_config(cfg)
    stem = f"{cfg['name']}_{cfg['controller']}"
    csv_path, summary_path = _result_paths(args, f"{stem}.csv", f"{stem}_summary.yaml")
    trace = run(scenario)

    metrics = _metrics_summary(cfg, trace)
    summary = {"config": cfg, "ticks": len(trace), "trace_csv": csv_path.name, "metrics": metrics}
    _write_results({csv_path: format_trace_csv(trace), summary_path: cfgmod.to_yaml(summary)})
    print(f"wrote {csv_path} and {summary_path}")
    for axis, m in metrics.items():
        if "error" in m:
            print(f"  {axis}: {m['error']}")
        else:
            settle = "not settled"
            if m["settled"]:
                settle = f"settled at {fmt_num(m['settling_time'], '.3f')} s"
            print(
                f"  {axis}: setpoint {cfg['setpoint'][axis]} N, overshoot "
                f"{fmt_num(m['overshoot_pct'], '.2f')} %, {settle}, steady RMS "
                f"{fmt_num(m['steady_state_rms'], '.3f')} N"
            )
    return 0


_DELTA_KEYS = ("overshoot_pct", "settling_time", "steady_state_rms", "max_force", "itae")


def _delta(pi: Optional[float], fz: Optional[float]) -> Optional[float]:
    """fz - pi; None when either is None or the difference is NaN (inf - inf)."""
    if pi is None or fz is None or math.isnan(fz - pi):
        return None
    return fz - pi


def cmd_compare(args) -> int:
    """Run both laws on one config and report each selected axis from the
    two run summaries (`_metrics_summary`, as `run` writes them)."""
    cfg = _effective_config(args)
    name = cfg["name"]
    *csv_paths, report_path = _result_paths(
        args, *(f"{name}_{kind}.csv" for kind in LAWS), f"{name}_compare.yaml"
    )
    scenarios = {kind: cfgmod.scenario_from_config(dict(cfg, controller=kind)) for kind in LAWS}
    traces = {kind: run(scenario) for kind, scenario in scenarios.items()}
    summaries = {kind: _metrics_summary(cfg, trace) for kind, trace in traces.items()}

    report: Dict[str, Any] = {"scenario": name, "config": cfg, "axes": {}}
    for axis in _selected_axes(cfg):
        pi, fz = summaries["pi"][axis], summaries["fuzzy"][axis]
        body: Dict[str, Any] = {"setpoint": float(cfg["setpoint"][axis])}
        error = pi.get("error") or fz.get("error")
        if error:
            body["error"] = error
        else:
            body["pi"], body["fuzzy"] = pi, fz
            body["deltas_fuzzy_minus_pi"] = {key: _delta(pi[key], fz[key]) for key in _DELTA_KEYS}
            # Fresh mappings per axis: to_yaml writes a shared one as an alias.
            body["gains"] = {
                kind: {a: dataclasses.asdict(g) for a, g in scenario.gains.items()}
                for kind, scenario in scenarios.items()
            }
        report["axes"][axis] = body

    report["trace_csv"] = {kind: path.name for kind, path in zip(traces, csv_paths)}
    results = {path: format_trace_csv(trace) for path, trace in zip(csv_paths, traces.values())}
    _write_results({**results, report_path: cfgmod.to_yaml(report)})

    print(f"wrote {report_path}")
    for axis, body in report["axes"].items():
        print(f"  axis {axis} (setpoint {body['setpoint']} N):")
        if "error" in body:
            print(f"    {body['error']}")
            continue
        for kind in LAWS:
            m = body[kind]
            settle = "not settled" if not m["settled"] else f"{fmt_num(m['settling_time'], '.3f')} s"
            print(
                f"    {kind:5s} overshoot {fmt_num(m['overshoot_pct'], '.2f'):>8s} %  "
                f"settling {settle:>12s}  rms {fmt_num(m['steady_state_rms'], '.3f')} N  "
                f"itae {fmt_num(m['itae'], '.3f')}"
            )
    return 0


def cmd_tune(args) -> int:
    cfg = _effective_config(args)
    settings = cfgmod.tuner_settings(cfg)
    scenario = cfgmod.scenario_from_config(cfg)
    kind = cfg["controller"]
    stem = f"{cfg['name']}_{kind}"
    board_path, best_path = _result_paths(args, f"{stem}_leaderboard.yaml", f"{stem}_best.yaml")
    best, leaderboard = tune(scenario, **settings)

    board = {
        "scenario": scenario.name,
        "controller": kind,
        "axis": settings["axis"],
        "entries": [dataclasses.asdict(e) for e in leaderboard],
    }
    best_cfg = copy.deepcopy(cfg)
    for axis in AXES:
        best_cfg["gains"][kind][axis] = dict(best.gains)
    _write_results({board_path: cfgmod.to_yaml(board), best_path: cfgmod.to_yaml(best_cfg)})
    print(f"wrote {board_path} and {best_path}")
    print(f"  best gains: {best.gains} (objective {fmt_num(best.objective, '.4f')})")
    return 0


def cmd_infer(args) -> int:
    for flag in ("e", "de", "kp", "ki", "kx"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ConfigInvalid(f"--{flag}: expected a finite number, got {value}")
    try:
        gains = FuzzyPIGains(kp=args.kp, ki=args.ki, kx=args.kx)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    rules = fuzzy.RuleBase.default()
    e_norm = gains.ki * args.e
    de_norm = gains.kp * args.de
    e_degrees = fuzzy.fuzzify(e_norm)
    de_degrees = fuzzy.fuzzify(de_norm)
    # `infer` fires the rules again; the firings are fired here for printing.
    firings = fuzzy.fire_rules(e_degrees, de_degrees, rules)
    agg = fuzzy.infer(e_degrees, de_degrees, rules)
    centroid = fuzzy.defuzzify_coa(agg)
    du = gains.kx * centroid
    print(f"e = {args.e:g} N, de = {args.de:g} N")
    print(f"scaled inputs: ki*e = {e_norm:.6f}, kp*de = {de_norm:.6f} (clamped to [-1, 1])")
    print("fired rules:")
    for f in sorted(firings, key=lambda f: (-f.strength, f.e_label, f.de_label)):
        print(
            f"  e={f.e_label.name:2s} & de={f.de_label.name:2s} -> {f.out_label.name.lower()}"
            f"  (strength {f.strength:.4f})"
        )
    clips = {label.name.lower(): round(c, 6) for label, c in sorted(agg.clips.items())}
    print(f"aggregated output clips: {clips}")
    print(f"centroid = {centroid:.6f}")
    print(f"du = kx * centroid = {du:.6e} m")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_controller: bool = True) -> None:
    parser.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    parser.add_argument("--config", help="YAML scenario config file")
    if with_controller:
        parser.add_argument("--controller", choices=tuple(LAWS), help="force loop law")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path, YAML value); repeatable",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="master seed override")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parse_args() fills a fresh namespace on
    every call, and the `append` action copies its default list."""
    parser = argparse.ArgumentParser(
        prog="forcemotion",
        description="Planar hybrid force/motion control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario, write CSV trace + summary")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run PI and fuzzy-PI on one scenario, same seed")
    _add_common(p_cmp, with_controller=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_tune = sub.add_parser("tune", help="grid-search gains, write leaderboard + best config")
    _add_common(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_inf = sub.add_parser("infer", help="inspect one fuzzy-PI step for given e, de")
    # Read "-1e-3" and "-inf" as values, not options: argparse's own
    # negative-number pattern has neither, and no infer option looks like one.
    p_inf._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    p_inf.add_argument("--e", type=float, required=True, help="force error [N]")
    p_inf.add_argument("--de", type=float, required=True, help="error change [N]")
    default = TUNED_FUZZY["exp2"]
    p_inf.add_argument("--kp", type=float, default=default.kp, help="de scale [1/N]")
    p_inf.add_argument("--ki", type=float, default=default.ki, help="e scale [1/N]")
    p_inf.add_argument("--kx", type=float, default=default.kx, help="output scale [m]")
    p_inf.set_defaults(func=cmd_infer)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A reader that went away shows up here, not in the exit-time flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more: send what is left to devnull, so that
        # the flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WorkspaceViolation as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3
    except AllRunsFailed as exc:
        print(f"tuner failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
