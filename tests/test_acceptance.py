"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""
import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest

from forcemotion.cli import main as cli_main
from forcemotion.config import experiment1_scenario, experiment2_scenario, experiment3_scenario
from forcemotion.control import AxisForce, CorrectionLimits, HybridForceController, PIGains, SelectionMatrix
from forcemotion.control import fuzzy_pi_step
from forcemotion.fuzzy import (
    AggregatedOutput,
    FuzzyInference,
    Label,
    RuleBase,
    defuzzify_coa,
)
from forcemotion.plant import PlanarArm, Pose, ik
from forcemotion.presets import TUNED_FUZZY
from forcemotion.sim import compute_metrics, run

import oracles
from table_fixture import RULE_TABLE_CELLS


def final_fraction(values: np.ndarray, fraction: float) -> np.ndarray:
    start = int(round((1.0 - fraction) * (len(values) - 1)))
    return values[start:]


@pytest.fixture(scope="module")
def exp1_results():
    baseline = dataclasses.replace(
        experiment1_scenario("pi"), selection=SelectionMatrix.none()
    )
    out = {"baseline": run(baseline)}
    for kind in ("pi", "fuzzy"):
        out[kind] = run(experiment1_scenario(kind))
    return out


def test_criterion_1_rule_base_fidelity():
    rules = RuleBase.default()
    for (e_name, de_name), out_name in RULE_TABLE_CELLS.items():
        assert rules.lookup(Label[e_name], Label[de_name]) is Label[out_name]
    for e in Label:
        for de in Label:
            assert rules.lookup(e.negate(), de.negate()) is rules.lookup(e, de).negate()
    for de in Label:
        row = [rules.lookup(e, de) for e in sorted(Label)]
        assert row == sorted(row)
        assert rules.lookup(Label.ZR, de) is Label.ZR
    print("ACCEPTANCE 1: PASS - default rule base matches the 49-cell fixture "
          "with antisymmetry, row monotonicity, and ZR column")


def test_criterion_2_defuzzifier_against_oracle():
    rng = np.random.default_rng(8899)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 5))
        labels = rng.choice(7, size=count, replace=False)
        clips = {int(i): float(rng.uniform(0.05, 1.0)) for i in labels}
        agg = AggregatedOutput({Label(i - 3): c for i, c in clips.items()})
        diff = abs(defuzzify_coa(agg) - oracles.riemann_coa(clips))
        worst = max(worst, diff)
        assert diff <= 1e-6
    engine = FuzzyInference()
    assert abs(engine.output(0.0, 0.0)) <= 1e-9
    print(f"ACCEPTANCE 2: PASS - CoA matches the 1e6-point Riemann oracle "
          f"(worst |diff| = {worst:.2e} <= 1e-6); zero input gives |du| <= 1e-9")


def test_criterion_3_experiment2_regulation():
    durations = {}
    for kind in ("pi", "fuzzy"):
        t0 = time.perf_counter()
        trace = run(experiment2_scenario(kind, smooth=True))
        durations[(kind, "smooth")] = time.perf_counter() - t0
        tail = final_fraction(trace.column("f_z"), 0.2)
        assert np.abs(tail - 30.0).max() <= 0.5

        t0 = time.perf_counter()
        trace = run(experiment2_scenario(kind, smooth=False))
        durations[(kind, "rough")] = time.perf_counter() - t0
        half = final_fraction(trace.column("f_z"), 0.5)
        assert 29.0 <= float(half.mean()) <= 31.0
    assert max(durations.values()) <= 2.0
    print("ACCEPTANCE 3: PASS - smooth runs hold |f_z - 30| <= 0.5 N, rough "
          "runs keep the final-half mean in 30 +/- 1 N for both controllers, "
          f"slowest run {max(durations.values()):.2f} s <= 2 s")


def test_criterion_4_experiment1_comparison(exp1_results):
    baseline_max = float(np.abs(exp1_results["baseline"].column("f_z")).max())
    metrics = {
        kind: compute_metrics(exp1_results[kind], "z", 10.0) for kind in ("pi", "fuzzy")
    }
    assert metrics["fuzzy"].overshoot_pct < metrics["pi"].overshoot_pct
    assert metrics["fuzzy"].settled and metrics["pi"].settled
    assert metrics["fuzzy"].settling_time < metrics["pi"].settling_time
    assert metrics["pi"].max_force < baseline_max
    assert metrics["fuzzy"].max_force < baseline_max
    print("ACCEPTANCE 4: PASS - fuzzy-PI overshoot "
          f"{metrics['fuzzy'].overshoot_pct:.1f}% < PI {metrics['pi'].overshoot_pct:.1f}%, "
          f"settling {metrics['fuzzy'].settling_time:.2f} s < {metrics['pi'].settling_time:.2f} s, "
          f"peaks {metrics['fuzzy'].max_force:.1f}/{metrics['pi'].max_force:.1f} N < "
          f"uncontrolled {baseline_max:.1f} N")


def test_criterion_5_experiment3_dual_axis():
    means = {}
    for kind in ("pi", "fuzzy"):
        trace = run(experiment3_scenario(kind))
        fx = float(final_fraction(trace.column("f_x"), 0.5).mean())
        fz = float(final_fraction(trace.column("f_z"), 0.5).mean())
        means[kind] = (fx, fz)
        assert 5.0 <= fx <= 7.0
        assert 29.0 <= fz <= 31.0
    print("ACCEPTANCE 5: PASS - steady means "
          f"pi (x={means['pi'][0]:.2f}, z={means['pi'][1]:.2f}) N, "
          f"fuzzy (x={means['fuzzy'][0]:.2f}, z={means['fuzzy'][1]:.2f}) N inside "
          "6 +/- 1 and 30 +/- 1")


def test_criterion_6_kinematics_suite():
    rng = np.random.default_rng(654)
    worst_rt = 0.0
    for _ in range(1000):
        radius = rng.uniform(0.05, 0.999)
        angle = rng.uniform(-math.pi, math.pi)
        target = Pose(radius * math.cos(angle), radius * math.sin(angle))
        q1, q2 = ik(0.5, 0.5, target, "down" if rng.random() < 0.5 else "up")
        pose = PlanarArm(0.5, 0.5, q1, q2).fk()
        worst_rt = max(worst_rt, math.hypot(pose.x - target.x, pose.z - target.z))
    assert worst_rt <= 1e-9

    worst_jac = 0.0
    for _ in range(100):
        q1, q2 = rng.uniform(-math.pi, math.pi, size=2)
        arm = PlanarArm(0.5, 0.5, q1, q2)
        fd = oracles.finite_difference_jacobian(
            lambda a, b: PlanarArm(0.5, 0.5, a, b).fk(), q1, q2
        )
        worst_jac = max(worst_jac, float(np.abs(arm.jacobian() - fd).max()))
    assert worst_jac <= 1e-6

    arm = PlanarArm(0.5, 0.5, 0.37, -0.81)
    q = np.array([[arm.q1, arm.q2]])
    f = np.array([[2.25, -6.5]])
    tau = arm.joint_torques(f, q)
    doubled = arm.joint_torques(2 * f, q)
    assert doubled.tolist() == (2 * tau).tolist()
    print(f"ACCEPTANCE 6: PASS - fk/ik round trip worst {worst_rt:.1e} m <= 1e-9, "
          f"Jacobian vs finite differences worst {worst_jac:.1e} <= 1e-6, "
          "torque map exactly linear under doubling")


def test_criterion_7_pi_form_equivalence():
    rng = np.random.default_rng(321)
    kp, ki = 2.3e-4, 6.1e-5
    errors = rng.uniform(-20.0, 20.0, size=1000)
    expected = oracles.pi_closed_form(kp, ki, errors)
    gains, limits = PIGains(kp, ki), CorrectionLimits(-math.inf, math.inf, math.inf)
    hybrid = HybridForceController(
        {"x": gains, "z": gains}, {"x": limits, "z": limits}, SelectionMatrix.identity(), FuzzyInference()
    )
    worst = 0.0
    for k, e_k in enumerate(errors):
        # x sees the error e_k and z its negation: the law is odd in (e, de).
        u, _, _ = hybrid.step(AxisForce(float(e_k), -float(e_k)), AxisForce(0.0, 0.0))
        assert u[1] == -u[0]
        worst = max(worst, abs(u[0] - expected[k]))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 7: PASS - incremental PI matches the discretized "
          f"position form within {worst:.1e} <= 1e-12 over 1000 random errors")


def test_criterion_8_preset_determinism(tmp_path):
    for preset in ("exp1", "exp2", "exp3"):
        for kind in ("pi", "fuzzy"):
            payloads = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{preset}_{kind}_{attempt}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(
                        ["run", "--preset", preset, "--controller", kind, "--out", str(out)]
                    )
                assert code == 0
                payloads.append((out / f"{preset}_{kind}.csv").read_bytes())
            assert payloads[0] == payloads[1]
    print("ACCEPTANCE 8: PASS - repeated CLI runs of every preset/controller "
          "produce byte-identical CSV traces")


def test_criterion_9_fuzzy_pi_bound_and_antisymmetry():
    gains = TUNED_FUZZY["exp2"]
    engine = FuzzyInference()
    es = np.linspace(-2.0 / gains.ki, 2.0 / gains.ki, 101)
    des = np.linspace(-2.0 / gains.kp, 2.0 / gains.kp, 101)
    outputs = np.empty((101, 101))
    for i, e in enumerate(es):
        for j, de in enumerate(des):
            outputs[i, j] = fuzzy_pi_step(gains, float(e), float(de), engine)
    assert np.abs(outputs).max() <= gains.kx
    mirrored = -outputs[::-1, ::-1]
    assert np.abs(outputs - mirrored).max() <= 1e-9
    print(f"ACCEPTANCE 9: PASS - |du| <= kx on the 101x101 grid "
          f"(max {np.abs(outputs).max():.2e} vs kx {gains.kx}), antisymmetric "
          f"within {np.abs(outputs - mirrored).max():.1e} <= 1e-9")
