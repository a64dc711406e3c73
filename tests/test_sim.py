import dataclasses
import math

import numpy as np
import pytest

from forcemotion.config import (
    experiment1_scenario,
    experiment2_scenario,
    experiment3_scenario,
    preset_scenario,
)
from forcemotion import sim
from forcemotion.control import (
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
)
from forcemotion.plant import Environment, PlanarArm, Pose, SensorModel
from forcemotion.sim import (
    AllRunsFailed,
    ArmParams,
    NoContact,
    NominalPath,
    PressDirection,
    Scenario,
    Trace,
    TRACE_COLUMNS,
    WorkspaceViolation,
    compare,
    compute_metrics,
    run,
    tune,
)


def make_trace(t, f_z, f_x=None):
    """Synthetic trace with only the time and force columns populated."""
    t = np.asarray(t, dtype=float)
    values = np.zeros((len(t), len(TRACE_COLUMNS)))
    values[:, TRACE_COLUMNS.index("t")] = t
    values[:, TRACE_COLUMNS.index("f_z")] = np.asarray(f_z, dtype=float)
    if f_x is not None:
        values[:, TRACE_COLUMNS.index("f_x")] = np.asarray(f_x, dtype=float)
    return Trace(values)


def free_space_scenario(**overrides):
    base = dict(
        name="free",
        setpoint=AxisForce(0.0, 0.0),
        path=NominalPath(((0.0, Pose(0.6, 0.2)), (1.0, Pose(0.7, 0.3)))),
        environment=Environment((), seed=1),
        gains={"x": PIGains(1e-4, 5e-5), "z": PIGains(1e-4, 5e-5)},
        duration=1.5,
    )
    base.update(overrides)
    return Scenario(**base)


class TestNominalPath:
    def test_interpolates_linearly(self):
        path = NominalPath(((0.0, Pose(0.0, 0.0)), (2.0, Pose(1.0, -1.0))))
        assert path.pose_at(1.0) == pytest.approx((0.5, -0.5))

    def test_holds_ends(self):
        path = NominalPath(((1.0, Pose(0.1, 0.2)), (2.0, Pose(0.3, 0.4))))
        assert path.pose_at(0.0) == (0.1, 0.2)
        assert path.pose_at(5.0) == (0.3, 0.4)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            NominalPath(((0.0, Pose(0, 0)), (0.0, Pose(1, 1))))
        with pytest.raises(ValueError):
            NominalPath(())


class TestScenarioValidation:
    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown gains type"):
            free_space_scenario(gains={"x": (1e-4, 5e-5), "z": (1e-4, 5e-5)})

    def test_rejects_mismatched_gains(self):
        with pytest.raises(ValueError, match="one control law"):
            free_space_scenario(
                gains={"x": PIGains(1e-4, 5e-5), "z": FuzzyPIGains(0.1, 0.1, 1e-3)}
            )

    def test_rejects_unreachable_waypoint(self):
        with pytest.raises(ValueError, match="unreachable"):
            free_space_scenario(path=NominalPath(((0.0, Pose(1.5, 0.0)),)))

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            free_space_scenario(dt=0.0)
        with pytest.raises(ValueError):
            free_space_scenario(duration=0.001)

    @pytest.mark.parametrize(
        "timing", [{"dt": 1.0e-6}, {"dt": 1.0e-300}, {"dt": 5.0e-324}, {"duration": math.inf}]
    )
    def test_rejects_too_many_ticks(self, timing):
        # Checked before run() allocates the trace, one row per tick.
        with pytest.raises(ValueError, match="duration / dt"):
            free_space_scenario(**timing)

    def test_accepts_a_million_ticks(self):
        dt = 2.0 ** -20
        assert free_space_scenario(dt=dt, duration=10**6 * dt).dt == dt
        with pytest.raises(ValueError, match="duration / dt"):
            free_space_scenario(dt=dt, duration=(10**6 + 1) * dt)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("l1", 0.0, "link lengths must be positive"),
            ("tau_servo", 0.0, "tau_servo must be positive"),
            ("qdot_max", -1.0, "qdot_max must be positive"),
        ],
    )
    def test_arm_params_apply_the_arm_checks(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ArmParams(**{field: value})


class TestRun:
    def test_free_space_tracks_nominal(self):
        trace = run(free_space_scenario())
        assert np.all(trace.column("f_x") == 0.0)
        assert np.all(trace.column("f_z") == 0.0)
        assert np.all(trace.column("u_x") == 0.0)
        assert np.all(trace.column("u_z") == 0.0)
        gap = np.hypot(
            trace.column("act_x") - trace.column("nom_x"),
            trace.column("act_z") - trace.column("nom_z"),
        )
        # The servo lags the moving target, then closes in during the hold.
        assert gap[-1] < 1e-6

    def test_deterministic(self):
        scenario = experiment2_scenario("fuzzy")
        a = run(scenario)
        b = run(scenario)
        assert np.array_equal(a.values, b.values)

    def test_smooth_surface_regulates_to_setpoint(self):
        trace = run(experiment2_scenario("pi", smooth=True))
        f_z = trace.column("f_z")
        tail = f_z[int(round(0.8 * (len(f_z) - 1))):]
        assert np.abs(tail - 30.0).max() <= 0.5

    def test_correction_accumulation_identity(self):
        # u in row k is the correction used at tick k; it advances by the
        # selected du and never shrinks by any other mechanism.
        trace = run(experiment2_scenario("fuzzy"))
        u_z = trace.column("u_z")
        du_z = trace.column("du_z")
        limits = CorrectionLimits()
        for k in range(len(trace) - 1):
            expected = min(max(u_z[k] + du_z[k], limits.u_min), limits.u_max)
            assert u_z[k + 1] == pytest.approx(expected, abs=1e-15)
        assert np.all(trace.column("u_x") == 0.0)  # x is motion-only in exp2

    def test_commanded_pose_deviates_from_nominal_by_u(self):
        # With an effectively instantaneous servo the actual pose equals the
        # commanded one, exposing cmd = nominal + press * u directly.
        scenario = experiment2_scenario("pi", smooth=True)
        scenario = dataclasses.replace(
            scenario, arm=ArmParams(tau_servo=1e-9, qdot_max=1e9)
        )
        trace = run(scenario)
        act_z = trace.column("act_z")
        nom_z = trace.column("nom_z")
        u_z = trace.column("u_z")
        assert np.abs(act_z - (nom_z - u_z)).max() <= 1e-9
        assert np.abs(trace.column("act_x") - trace.column("nom_x")).max() <= 1e-9

    def test_workspace_violation_records_tick(self):
        scenario = free_space_scenario(
            setpoint=AxisForce(0.0, 10.0),
            path=NominalPath(((0.0, Pose(0.75, 0.65)),)),
            press_direction=PressDirection(x=1, z=1),
            selection=SelectionMatrix(x=False, z=True),
            gains={"x": PIGains(0.0, 2e-4), "z": PIGains(0.0, 2e-4)},
            limits={
                "x": CorrectionLimits(-0.05, 0.05, 5e-4),
                "z": CorrectionLimits(-0.05, 0.05, 5e-4),
            },
            duration=1.5,
        )
        with pytest.raises(WorkspaceViolation) as exc_info:
            run(scenario)
        assert exc_info.value.tick > 0
        assert "outside workspace" in exc_info.value.cause

    def test_uncontrolled_exp1_exceeds_setpoint(self):
        scenario = dataclasses.replace(
            experiment1_scenario("pi"), selection=SelectionMatrix.none()
        )
        trace = run(scenario)
        assert trace.column("f_z").max() > 10.0

    def test_exp1_obstacle_on_path(self):
        scenario = experiment1_scenario("pi")
        trace = run(scenario)
        assert trace.column("f_z").max() > 0.1  # collision happens without doubt

    def test_exp3_setpoints(self):
        scenario = experiment3_scenario("pi")
        assert scenario.setpoint == (6.0, 30.0)
        assert scenario.selection == SelectionMatrix.identity()

    def test_exp3_regulates_through_sensor_noise(self):
        # Integral action rejects zero-mean sensor noise; steady means stay
        # inside the regulation bands.
        for kind in ("pi", "fuzzy"):
            scenario = dataclasses.replace(
                experiment3_scenario(kind), sensor=SensorModel(noise_sigma=0.5, seed=777)
            )
            trace = run(scenario)
            fx = trace.column("f_x")
            fz = trace.column("f_z")
            assert 5.0 <= fx[len(fx) // 2:].mean() <= 7.0
            assert 29.0 <= fz[len(fz) // 2:].mean() <= 31.0

    def test_run_respects_joint_rate_and_correction_clamps(self):
        scenario = experiment1_scenario("fuzzy")
        trace = run(scenario)
        for joint in ("q1", "q2"):
            rates = np.abs(np.diff(trace.column(joint))) / scenario.dt
            assert rates.max() <= scenario.arm.qdot_max + 1e-12
        u_z = trace.column("u_z")
        limits = scenario.limits["z"]
        assert u_z.min() >= limits.u_min - 1e-15
        assert u_z.max() <= limits.u_max + 1e-15

    def test_exp2_setpoint_and_selection(self):
        scenario = experiment2_scenario("fuzzy")
        assert scenario.setpoint.z == 30.0
        assert scenario.selection == SelectionMatrix(x=False, z=True)
        surface = scenario.environment.obstacles[0]
        assert surface.roughness_amplitude > 0.0

    def test_sensor_model_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SensorModel().seed = 3

    def test_shared_noisy_sensor_gives_order_independent_traces(self):
        # run() draws the noise from its own generator, so two scenarios that
        # share one SensorModel do not disturb each other's stream.
        sensor = SensorModel(noise_sigma=0.5, seed=777)
        a = dataclasses.replace(experiment3_scenario("pi"), sensor=sensor)
        b = dataclasses.replace(experiment3_scenario("fuzzy"), sensor=sensor)
        a_first, b_second = run(a).values, run(b).values
        b_first, a_second = run(b).values, run(a).values
        assert np.array_equal(a_first, a_second)
        assert np.array_equal(b_first, b_second)

    @pytest.mark.parametrize("kind", ["pi", "fuzzy"])
    def test_loop_values_are_python_floats(self, kind, monkeypatch):
        # Every value the tick loop carries or logs is a Python float: a
        # numpy scalar leaking in (from the noise profile, the sensor draw or
        # the controller) slows every operation it meets.
        seen = []

        def spy(owner, name):
            original = getattr(owner, name)

            def recording(*args, **kwargs):
                result = original(*args, **kwargs)
                seen.append((name, result))
                return result

            monkeypatch.setattr(owner, name, recording)

        for owner, name in [
            (sim, "ik"),
            (PlanarArm, "fk"),
            (Environment, "contact_force"),
            (SensorModel, "sense"),
            (HybridForceController, "step"),
        ]:
            spy(owner, name)
        for preset in ("exp1", "exp2", "exp3"):
            scenario = preset_scenario(preset, kind)
            run(dataclasses.replace(scenario, sensor=SensorModel(noise_sigma=0.5, seed=3)))

        def leaves(value):
            if isinstance(value, tuple):
                return [leaf for item in value for leaf in leaves(item)]
            return [value]

        assert {name for name, _ in seen} == {"ik", "fk", "contact_force", "sense", "step"}
        leaked = {(name, type(v).__name__) for name, r in seen for v in leaves(r) if type(v) is not float}
        assert not leaked

    def test_preset_lookup(self):
        assert preset_scenario("exp1", "pi").name == "exp1"
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("exp9")


class TestMetrics:
    def test_constant_at_setpoint(self):
        t = np.arange(0, 3.0, 0.01)
        m = compute_metrics(make_trace(t, np.full_like(t, 30.0)), "z", 30.0)
        assert m.overshoot_pct == 0.0
        assert m.settled and m.settling_time == m.first_contact_time == 0.0
        assert m.steady_state_rms == 0.0

    def test_overshoot_percentage(self):
        t = np.arange(0, 1.0, 0.01)
        f = np.full_like(t, 30.0)
        f[50] = 36.0
        m = compute_metrics(make_trace(t, f), "z", 30.0)
        assert m.overshoot_pct == pytest.approx(20.0)
        assert m.max_force == 36.0

    def test_never_in_band_not_settled(self):
        t = np.arange(0, 1.0, 0.01)
        m = compute_metrics(make_trace(t, np.full_like(t, 20.0)), "z", 30.0)
        assert not m.settled
        assert m.settling_time is None

    def test_no_contact(self):
        t = np.arange(0, 1.0, 0.01)
        with pytest.raises(NoContact):
            compute_metrics(make_trace(t, np.zeros_like(t)), "z", 30.0)

    def test_settling_measured_after_contact(self):
        t = np.arange(0, 2.0, 0.01)
        f = np.zeros_like(t)
        f[100:] = 30.0  # contact at t = 1.0, instantly in band
        m = compute_metrics(make_trace(t, f), "z", 30.0)
        assert m.first_contact_time == pytest.approx(1.0)
        assert m.settling_time == pytest.approx(1.0)

    def test_zero_setpoint_uses_absolute_band(self):
        t = np.arange(0, 1.0, 0.01)
        f = np.zeros_like(t)
        f[10:] = 0.5  # within the 1 N absolute band
        m = compute_metrics(make_trace(t, f, f_x=f), "x", 0.0)
        assert m.overshoot_pct == 0.0
        assert m.settled

    def test_band_monotonicity(self):
        rng = np.random.default_rng(12)
        t = np.arange(0, 3.0, 0.01)
        f = 30.0 + 8.0 * np.exp(-t / 0.4) * np.cos(8 * t) + rng.normal(0, 0.2, t.shape)
        trace = make_trace(t, f)
        times = []
        for band in (0.10, 0.05, 0.02):
            m = compute_metrics(trace, "z", 30.0, band_pct=band)
            times.append(m.settling_time if m.settled else math.inf)
        assert times[0] <= times[1] <= times[2]

    def test_itae_formula(self):
        t = np.arange(0, 1.0, 0.1)
        f = np.full_like(t, 28.0)
        m = compute_metrics(make_trace(t, f), "z", 30.0)
        assert m.itae == pytest.approx(float(np.sum(t * 2.0) * 0.1))


class TestCompare:
    def test_identical_traces_zero_deltas(self):
        t = np.arange(0, 1.0, 0.01)
        f = np.full_like(t, 30.0)
        trace = make_trace(t, f)
        report = compare(trace, trace, "z", 30.0)
        assert all(d == 0.0 for d in report.deltas.values())

    def test_gains_carried_for_audit(self):
        scenario_pi = experiment1_scenario("pi")
        scenario_fz = experiment1_scenario("fuzzy")
        report = compare(
            run(scenario_pi),
            run(scenario_fz),
            "z",
            10.0,
            label_a="pi",
            label_b="fuzzy",
            gains_a=scenario_pi.gains,
            gains_b=scenario_fz.gains,
        )
        assert report.gains_a["z"]["ki"] == scenario_pi.gains["z"].ki
        assert report.gains_b["z"]["kx"] == scenario_fz.gains["z"].kx
        assert report.metrics_b.overshoot_pct < report.metrics_a.overshoot_pct


class TestTune:
    def test_single_point_grid(self):
        scenario = experiment2_scenario("pi", smooth=True)
        best, board = tune(scenario, {"kp": [1e-4], "ki": [5e-5]})
        assert best.gains == {"kp": 1e-4, "ki": 5e-5}
        assert len(board) == 1

    def test_stable_gains_beat_unstable(self):
        scenario = experiment2_scenario("pi", smooth=True)
        best, board = tune(scenario, {"kp": [1e-4], "ki": [2e-5, 5e-3]})
        assert best.gains["ki"] == 2e-5
        assert len(board) == 2

    def test_enumeration_order_irrelevant(self):
        scenario = experiment2_scenario("pi", smooth=True)
        grid_a = {"kp": [0.0, 1e-4], "ki": [2e-5, 1e-4]}
        grid_b = {"ki": [1e-4, 2e-5], "kp": [1e-4, 0.0]}
        best_a, _ = tune(scenario, grid_a)
        best_b, _ = tune(scenario, grid_b)
        assert best_a.gains == best_b.gains

    def test_best_is_leaderboard_minimum(self):
        scenario = experiment2_scenario("fuzzy", smooth=True)
        best, board = tune(
            scenario, {"kp": [0.05, 0.1], "ki": [1 / 30], "kx": [1e-3, 2e-3]}
        )
        assert best.objective == min(e.objective for e in board)
        assert board[0] == best

    def test_all_runs_failed(self):
        scenario = free_space_scenario()  # no obstacle: every run is NoContact
        with pytest.raises(AllRunsFailed):
            tune(scenario, {"kp": [1e-4], "ki": [5e-5]})

    def test_grid_validation(self):
        scenario = experiment2_scenario("pi", smooth=True)
        with pytest.raises(ValueError, match="empty"):
            tune(scenario, {})
        with pytest.raises(ValueError, match="must define"):
            tune(scenario, {"kp": [1e-4]})
        with pytest.raises(ValueError, match="unknown gain"):
            tune(scenario, {"kp": [1e-4], "ki": [1e-5], "kq": [1.0]})
