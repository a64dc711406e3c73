"""The traced benchmark pass patches program functions by name from
perfbench/spans.py. These tests fail when a refactor removes, renames or
bypasses one of them, so the benchmark would break or read zero."""
import importlib.util
from pathlib import Path

import pytest

from forcemotion import cli, config, sim

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _noop(args, result):
    pass


def test_install_wraps_each_name_and_restore_undoes_it():
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, _noop, _noop, _noop)
    patches = list(tracer._patches)
    try:
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.restore()
    assert len(patches) >= len(spans.FUNCTIONS) - 1  # all but cli.main, wrapped by the caller
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original


@pytest.mark.parametrize("controller", ["pi", "fuzzy"])
def test_traced_functions_stay_on_the_call_path(controller, tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    spans.install(tracer, _noop, _noop, _noop)
    try:
        argv = ["run", "--preset", "exp1", "--controller", controller, "--out", str(tmp_path)]
        assert main(argv) == 0
    finally:
        tracer.restore()
    calls = {name: n for name, (n, _) in tracer.totals().items()}
    # What a `run` never reaches: preset scenarios are built from config
    # documents, tune is its own command, and each law calls only its own step.
    unused = {"presets.preset_scenario", "sim.tune"}
    if controller == "pi":
        unused |= {"control.fuzzy_pi_step"} | {n for n in calls if n.startswith("fuzzy.")}
    else:
        unused |= {"control.pi_step"}
    assert {name for name, n in calls.items() if n == 0} == unused


@pytest.mark.parametrize(
    "preset,inputs,calls,fired,clips",
    [("exp1", 1204, 602, 1313, 848), ("exp2", 602, 301, 1202, 602)],
)
def test_fuzzy_layer_call_counts_per_run(preset, inputs, calls, fired, clips, tmp_path):
    # The benchmark's fuzzy.*.calls, rules_fired_per_call and clips_per_call
    # count these: a faster engine must not change what they measure. One
    # engine call per selected axis and tick (exp1 regulates x and z, exp2
    # only z, 301 ticks each), fuzzify once for e and once for de.
    spans = _load_spans()
    tracer = spans.Tracer()
    totals = {"fired": 0, "clips": 0}

    def on_fire(args, firings):
        totals["fired"] += len(firings)

    def on_infer(args, agg):
        totals["clips"] += len(agg.clips)

    main = tracer.wrap("cli.main", cli.main)
    spans.install(tracer, _noop, on_fire, on_infer)
    try:
        argv = ["run", "--preset", preset, "--controller", "fuzzy", "--out", str(tmp_path)]
        assert main(argv) == 0
    finally:
        tracer.restore()
    counts = {name: n for name, (n, _) in tracer.totals().items() if name.startswith("fuzzy.")}
    assert counts == {
        "fuzzy.fuzzify": inputs,
        "fuzzy.infer": calls,
        "fuzzy.fire_rules": calls,
        "fuzzy.defuzzify_coa": calls,
    }
    assert totals == {"fired": fired, "clips": clips}


@pytest.mark.parametrize("controller", ["pi", "fuzzy"])
@pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3"])
def test_run_makes_one_plant_call_per_tick(preset, controller):
    # The benchmark's plant.*.calls count these: nothing is computed before
    # tick 0, so each of the 301 ticks calls the arm, the environment, the
    # sensor and the controller once, and the joint torques come in one call.
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, _noop, _noop, _noop)
    try:
        sim.run(config.preset_scenario(preset, controller))
    finally:
        tracer.restore()
    calls = {name: n for name, (n, _) in tracer.totals().items()}
    per_tick = [
        "plant.PlanarArm.fk",
        "plant.PlanarArm.servo_step",
        "plant.Environment.contact_force",
        "plant.SensorModel.sense",
        "control.HybridForceController.step",
    ]
    assert {name: calls[name] for name in per_tick} == dict.fromkeys(per_tick, 301)
    assert calls["plant.PlanarArm.joint_torques"] == 1
