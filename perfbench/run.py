"""Benchmark of the forcemotion CLI: `run`, fuzzy `run` and `tune`.

    python3 perfbench/run.py --workload scenario-pi --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

It calls ``forcemotion.cli.main`` in-process, from one thread, as a closed
loop with one client: the next command starts when the previous one returns.
`--trace 0` measures the end-to-end metrics with no wrappers installed;
`--trace 1` installs span wrappers (spans.py) and reports the per-layer
metrics. Every command's outputs are checked against refs.json. The last
line of stdout is one JSON object; METRICS.md defines every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# The child prints perf_counter() when its work is done. CLOCK_MONOTONIC is
# shared by every process, so set-up ends there; the interpreter's exit and
# the parent's wait, which this machine's process teardown makes jumpy, are
# left out.
SETUP_CODE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import forcemotion.cli, workloads; workloads.build_scenarios(sys.argv[3], Path(sys.argv[4])); "
    "import time; print(repr(time.perf_counter()))"
)


class Bench:
    """Runs generated commands through the CLI and checks what each one wrote."""

    def __init__(self, main: Callable, checker, out: Path):
        self.main = main
        self.checker = checker
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0

    def command(self, cmd) -> Optional[float]:
        """Seconds from argv to outputs on disk, or None when the call did not return.

        A non-zero exit code, an exception or a failed output check counts in
        `failed`; a command that returned keeps its time either way.
        """
        self.attempted += 1
        for name in cmd.outputs:  # so that a stale file from an earlier command cannot pass the checks
            (self.out / name).unlink(missing_ok=True)
        sink = io.StringIO()
        seconds = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = self.main(list(cmd.argv))
                seconds = time.perf_counter() - t0
            error = f"exit code {code}: {sink.getvalue()[-300:]}" if code != 0 else None
        except SystemExit as exc:
            error = f"exit {exc.code}: {sink.getvalue()[-300:]}"
        except Exception as exc:  # a failing command is counted; the benchmark keeps going
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            error = self.checker.check(cmd, self.out)
            self.bytes_written += sum((self.out / name).stat().st_size for name in cmd.outputs)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(cmd.argv)}: {error}", file=sys.stderr)
        return seconds


def measure_setup(workload: str, repeats: int) -> float:
    """Median wall time from spawning a fresh interpreter to its having imported
    the CLI and built every scenario of the workload."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(ROOT)],
            check=True,
            cwd=ROOT,
            timeout=120,
            capture_output=True,
            text=True,
        )
        times.append(float(child.stdout) - t0)
    return statistics.median(times)


def run_rounds(bench: Bench, rounds) -> List[dict]:
    """Run each round in order; one record of timings per round whose commands all returned."""
    records = []
    for round_ in rounds:
        seconds = [bench.command(cmd) for cmd in round_]
        if None not in seconds:
            records.append({"commands": list(zip(round_, seconds)), "seconds": sum(seconds)})
    return records


def upper_quartile(values: List[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def throughput(records: List[dict], ticks: int) -> Dict[str, float]:
    """Simulated ticks and scored scenarios per host second of a cycle.

    Each distinct command counts once, with the upper quartile of its timed
    repeats. A shared host can switch between a fast and a slow state every
    few seconds and be slow most of the time. A command's median falls in
    one state or the other depending on how much fast time a run happened to
    get; its upper quartile lies in the slow state in nearly every run. And
    the figure does not depend on which commands a pass repeated once more.
    """
    if not records:
        raise RuntimeError("no round completed: every one had a command that did not return")
    times = defaultdict(list)
    for record in records:
        for cmd, seconds in record["commands"]:
            times[cmd].append(seconds)
    cycle_seconds = sum(upper_quartile(t) for t in times.values())
    cycle_scenarios = sum(cmd.scenarios for cmd in times)
    return {
        "sim_ticks_per_s": cycle_scenarios * ticks / cycle_seconds,
        "grid_points_per_s": cycle_scenarios / cycle_seconds,
    }


def untraced_pass(bench: Bench, workload: str, cycle, seconds: float, ticks: int):
    """End-to-end metrics from whole rounds, the last one started before `seconds` ran out."""
    records = []
    start = time.perf_counter()
    for round_ in itertools.cycle(cycle):
        records += run_rounds(bench, [round_])
        if time.perf_counter() - start >= seconds:
            break
    metrics = throughput(records, ticks)
    # A request is one `run` command, or on tune-grid one round of both grids.
    if workload == "tune-grid":
        requests = [r["seconds"] for r in records]
    else:
        requests = [s for r in records for _, s in r["commands"]]
    ms = [1e3 * s for s in requests]
    metrics["run_ms_p50"] = statistics.median(ms)
    metrics["run_ms_p90"] = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, len(ms)


def traced_pass(bench: Bench, cycle, seconds: float, ticks: int, spans_path: Path) -> Dict[str, float]:
    """Per-layer metrics from whole cycles, the last one started before `seconds` ran out.

    Every cycle runs the same commands, so each count must repeat exactly
    from cycle to cycle; a difference counts as a failed check.
    """
    import counts  # imports forcemotion, so only after main() has found src/
    from forcemotion import cli

    tracer = spans.Tracer()
    tally = Counter()
    runs = []

    def on_run(args, trace):
        runs.append((args[0], trace.values))

    def on_fire(args, firings):
        tally["fire_rules_calls"] += 1
        tally["rules_fired"] += len(firings)

    def on_infer(args, agg):
        tally["infer_calls"] += 1
        tally["clips"] += len(agg.clips)

    wrapped_main = tracer.wrap("cli.main", cli.main)

    def traced_main(argv):
        tracer.command_id += 1
        return wrapped_main(argv)

    cycles = []
    records = []
    bench.main = traced_main
    spans.install(tracer, on_run, on_fire, on_infer)
    start = time.perf_counter()
    try:
        while not cycles or time.perf_counter() - start < seconds:
            first, bytes_before = len(tracer), bench.bytes_written
            tally.clear()
            for round_ in cycle:
                records += run_rounds(bench, [round_])
                for scenario, values in runs:
                    tally.update(counts.trace_counts(scenario, values))
                runs.clear()
            tally["bytes_written"] = bench.bytes_written - bytes_before
            cycles.append((tracer.totals(first), Counter(tally)))
    finally:
        tracer.restore()
        bench.main = cli.main
    tracer.save(spans_path)

    repeatable = [({name: calls for name, (calls, _) in t.items()}, c) for t, c in cycles]
    if any(r != repeatable[0] for r in repeatable):
        bench.failed += 1
        print("FAILED: call counts or trace counts differ between cycles", file=sys.stderr)

    requested = len(cycles) * sum(cmd.scenarios for round_ in cycle for cmd in round_)
    total = Counter()
    for _, c in cycles:
        total.update(c)
    metrics = {}
    module_ms = Counter()
    for name in spans.FUNCTIONS:
        calls = sum(t[name][0] for t, _ in cycles)
        self_ms = 1e3 * sum(t[name][1] for t, _ in cycles)
        metrics[f"{name}.calls"] = calls / requested
        metrics[f"{name}.self_ms"] = self_ms / requested
        module_ms[name.split(".")[0]] += self_ms / requested
    for module in spans.MODULES:
        metrics[f"{module}.self_ms"] = module_ms[module]
    metrics.update(counts.count_metrics(total))
    metrics["cli.bytes_written"] = total["bytes_written"] / requested
    metrics["trace.sim_ticks_per_s"] = throughput(records, ticks)["sim_ticks_per_s"]
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Generate the workload, warm up, run one pass; returns (bench, metrics, samples)."""
    from forcemotion import cli

    checker = workloads.Checker(ROOT)
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cycle = workloads.generate(workload, seed, ROOT, out)
        if smoke:
            cycle = cycle[:1]
        bench = Bench(cli.main, checker, out)
        setup_s = None if trace else measure_setup(workload, 1 if smoke else SETUP_REPEATS)
        run_rounds(bench, cycle[:1])  # warm-up, untimed
        if trace:
            spans_path = SPANS_DIR / f"spans-{workload}.npz"
            return bench, traced_pass(bench, cycle, seconds, workloads.TICKS, spans_path), None
        metrics, samples = untraced_pass(bench, workload, cycle, seconds, workloads.TICKS)
        metrics["setup_s"] = setup_s
        return bench, metrics, samples
    finally:
        shutil.rmtree(out, ignore_errors=True)


def result_json(bench: Bench, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def declared_metrics() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def smoke() -> int:
    """Every workload with one round, untraced and twice traced; asserts the declared metrics."""
    declared = declared_metrics()
    for workload in workloads.WORKLOADS:
        bench, e2e, _ = measure(workload, 0, 0, trace=False, smoke=True)
        traced = [measure(workload, 0, 0, trace=True, smoke=True) for _ in range(2)]
        problems = []
        if set(e2e) != set(declared["end_to_end"]):
            problems.append(f"end-to-end metrics {sorted(set(e2e) ^ set(declared['end_to_end']))}")
        layers = [m for _, m, _ in traced]
        if set(layers[0]) != set(declared["per_layer"]):
            problems.append(f"per-layer metrics {sorted(set(layers[0]) ^ set(declared['per_layer']))}")
        counted = [n for n in layers[0] if not n.endswith(("self_ms", "_per_s"))]
        changed = [n for n in counted if layers[0][n] != layers[1][n]]
        if changed:
            problems.append(f"counts differ between traced passes: {changed}")
        if bench.failed or any(b.failed for b, _, _ in traced):
            problems.append("a command failed its checks")
        if workload == "scenario-pi":
            fuzzy_calls = [n for n in counted if n.startswith("fuzzy.") and layers[0][n]]
            if fuzzy_calls:
                problems.append(f"fuzzy calls on scenario-pi: {fuzzy_calls}")
        overhead = e2e["sim_ticks_per_s"] / layers[0]["trace.sim_ticks_per_s"]
        print(f"{workload}: tracing slows sim_ticks_per_s {overhead:.2f}x; "
              + ("; ".join(problems) if problems else "ok"))
        if problems:
            return 1
    print("smoke ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="measured wall time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check of every workload and metric")
    args = parser.parse_args(argv)
    if not (SRC / "forcemotion" / "cli.py").is_file():
        print(f"forcemotion sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    bench, metrics, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    for name, unit in units.items():
        note = f"  (n={samples})" if name.startswith("run_ms") else ""
        print(f"{args.workload:15s} {name:45s} {metrics[name]:14.6g} {unit}{note}")
    print(f"{args.workload:15s} {'failed_ratio':45s} {bench.failed / bench.attempted:14.6g} "
          f"({bench.failed}/{bench.attempted} commands)")
    print(result_json(bench, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
