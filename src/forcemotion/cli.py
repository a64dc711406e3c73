"""Command-line front end: run / compare / tune / infer.

Exit codes: 0 success, 2 config error (an unusable --out or result file
included), 3 simulation abort, 4 tuner failure. Result files are written to a
temp name and renamed on success; a failed write removes the temp file, so no
truncated CSV or *.tmp file is left behind.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import config as cfgmod
from . import fuzzy
from .config import ConfigInvalid
from .control import AXES, FuzzyPIGains
from .plant import fmt_num
from .presets import PRESET_NAMES, TUNED_FUZZY
from .sim import (
    AllRunsFailed,
    NoContact,
    Trace,
    TRACE_COLUMNS,
    WorkspaceViolation,
    compare,
    compute_metrics,
    run,
    tune,
)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigInvalid(f"{path}: cannot write: {exc.strerror or exc}") from None


# Every value is printed with "%.9g", one %-format per row; tests/test_golden.py
# pins the bytes.
_CSV_HEADER = ",".join(TRACE_COLUMNS) + "\n"
_CSV_ROW = ",".join(["%.9g"] * len(TRACE_COLUMNS)) + "\n"


def format_trace_csv(trace: Trace) -> str:
    return _CSV_HEADER + "".join([_CSV_ROW % tuple(row) for row in trace.values.tolist()])


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


def _out_path(args) -> Path:
    """--out, checked before anything is simulated (and created only to
    write results): the longest part of it that exists must be a directory."""
    out = Path(args.out)
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if not os.path.isdir(existing):
        raise ConfigInvalid(f"--out {out}: {existing} is not a directory")
    return out


def _make_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"--out {out}: {exc.strerror or exc}") from None


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
    out = _out_path(args)
    trace = run(scenario)

    _make_dir(out)
    stem = f"{scenario.name}_{scenario.controller_kind}"
    csv_path = out / f"{stem}.csv"
    summary_path = out / f"{stem}_summary.yaml"
    metrics = _metrics_summary(cfg, trace)
    _atomic_write(csv_path, format_trace_csv(trace))
    _atomic_write(
        summary_path,
        cfgmod.to_yaml(
            {
                "config": cfg,
                "ticks": len(trace),
                "trace_csv": csv_path.name,
                "metrics": metrics,
            }
        ),
    )
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


def cmd_compare(args) -> int:
    cfg = _effective_config(args)
    out = _out_path(args)
    traces: Dict[str, Trace] = {}
    scenarios = {}
    for kind in cfgmod._LAWS:
        scenario = cfgmod.scenario_from_config(cfg, controller=kind)
        scenarios[kind] = scenario
        traces[kind] = run(scenario)

    name = cfg["name"]
    report: Dict[str, Any] = {"scenario": name, "config": cfg, "axes": {}}
    for axis in _selected_axes(cfg):
        setpoint = float(cfg["setpoint"][axis])
        try:
            rep = compare(
                traces["pi"],
                traces["fuzzy"],
                axis,
                setpoint,
                label_a="pi",
                label_b="fuzzy",
                gains_a=scenarios["pi"].gains,
                gains_b=scenarios["fuzzy"].gains,
            )
        except NoContact as exc:
            report["axes"][axis] = {"setpoint": setpoint, "error": str(exc)}
            continue
        report["axes"][axis] = {
            "setpoint": setpoint,
            "pi": dataclasses.asdict(rep.metrics_a),
            "fuzzy": dataclasses.asdict(rep.metrics_b),
            "deltas_fuzzy_minus_pi": rep.deltas,
            "gains": {"pi": rep.gains_a, "fuzzy": rep.gains_b},
        }

    _make_dir(out)
    csv_paths = {}
    for kind, trace in traces.items():
        csv_path = out / f"{name}_{kind}.csv"
        _atomic_write(csv_path, format_trace_csv(trace))
        csv_paths[kind] = csv_path.name
    report["trace_csv"] = csv_paths
    report_path = out / f"{name}_compare.yaml"
    _atomic_write(report_path, cfgmod.to_yaml(report))

    print(f"wrote {report_path}")
    for axis, body in report["axes"].items():
        print(f"  axis {axis} (setpoint {body['setpoint']} N):")
        if "error" in body:
            print(f"    {body['error']}")
            continue
        for kind in cfgmod._LAWS:
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
    out = _out_path(args)
    best, leaderboard = tune(
        scenario,
        settings["grid"],
        weights=settings["weights"],
        axis=settings["axis"],
        band_pct=settings["band_pct"],
    )

    _make_dir(out)
    stem = f"{scenario.name}_{scenario.controller_kind}"
    board_path = out / f"{stem}_leaderboard.yaml"
    best_path = out / f"{stem}_best.yaml"
    _atomic_write(
        board_path,
        cfgmod.to_yaml(
            {
                "scenario": scenario.name,
                "controller": scenario.controller_kind,
                "axis": settings["axis"],
                "entries": [dataclasses.asdict(e) for e in leaderboard],
            }
        ),
    )
    best_cfg = copy.deepcopy(cfg)
    for axis in AXES:
        best_cfg["gains"][scenario.controller_kind][axis] = dict(best.gains)
    _atomic_write(best_path, cfgmod.to_yaml(best_cfg))
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
    e_set = fuzzy.fuzzify(e_norm)
    de_set = fuzzy.fuzzify(de_norm)
    # `infer` fires the rules again; the firings are fired here for printing.
    firings = fuzzy.fire_rules(e_set, de_set, rules)
    agg = fuzzy.infer(e_set, de_set, rules)
    centroid = fuzzy.defuzzify_coa(agg)
    du = gains.kx * centroid
    print(f"e = {args.e:g} N, de = {args.de:g} N")
    print(f"scaled inputs: ki*e = {e_norm:.6f}, kp*de = {de_norm:.6f} (clamped to [-1, 1])")
    if firings:
        print("fired rules:")
        for f in sorted(firings, key=lambda f: (-f.strength, f.e_label, f.de_label)):
            print(
                f"  e={f.e_label.name:2s} & de={f.de_label.name:2s} -> {f.out_label.name.lower()}"
                f"  (strength {f.strength:.4f})"
            )
    else:
        print("fired rules: none")
    clips = {label.name.lower(): round(c, 6) for label, c in sorted(agg.clips.items())}
    print(f"aggregated output clips: {clips}")
    print(f"centroid = {centroid:.6f}")
    print(f"du = kx * centroid = {du:.6e} m")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_controller: bool = True) -> None:
    parser.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    parser.add_argument("--config", help="YAML scenario config file")
    if with_controller:
        parser.add_argument("--controller", choices=tuple(cfgmod._LAWS), help="force loop law")
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
