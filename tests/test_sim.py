import dataclasses
import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from forcemotion import config, sim
from forcemotion.config import preset_scenario
from forcemotion.fuzzy import RuleBase
from forcemotion.control import (
    AXES,
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
)
from forcemotion.plant import Box, Environment, PlanarArm, Pose, RoughSurface, SensorModel
from forcemotion.sim import (
    AllRunsFailed,
    NoContact,
    NominalPath,
    ObjectiveWeights,
    PressDirection,
    Scenario,
    Trace,
    TRACE_COLUMNS,
    WorkspaceViolation,
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

    @staticmethod
    def _scalar_pose(waypoints, t):
        """The per-time interpolation `poses` vectorises."""
        if t <= waypoints[0][0]:
            return waypoints[0][1]
        for (t0, p0), (t1, p1) in zip(waypoints, waypoints[1:]):
            if t <= t1:
                s = (t - t0) / (t1 - t0)
                return Pose(p0.x + s * (p1.x - p0.x), p0.z + s * (p1.z - p0.z))
        return waypoints[-1][1]

    @pytest.mark.parametrize(
        "waypoints",
        [
            ((0.7, Pose(0.6, 0.3)),),
            ((0.0, Pose(0.55, 0.31)), (0.37, Pose(0.7, 0.27)), (1.1, Pose(0.61, 0.2))),
        ],
        ids=["one-waypoint", "three-waypoints"],
    )
    def test_poses_interpolate_as_each_time_alone(self, waypoints):
        path = NominalPath(waypoints)
        times = [tw for tw, _ in waypoints]
        # Before, on and after each waypoint, its neighbouring doubles, the
        # tick times of a run and a NaN, which holds the last waypoint.
        t = [*times, *(np.nextafter(tw, -np.inf) for tw in times), *(np.nextafter(tw, np.inf) for tw in times)]
        t += [times[0] - 1.0, times[-1] + 1.0, -0.0, math.nan, *(np.arange(151) * 0.01)]
        want = np.array([self._scalar_pose(waypoints, float(tk)) for tk in t])
        got = path.poses(np.array(t, dtype=float))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for tk, row in zip(t, got.tolist()):
            assert path.pose_at(float(tk)) == Pose(*row)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            NominalPath(((0.0, Pose(0, 0)), (0.0, Pose(1, 1))))
        with pytest.raises(ValueError):
            NominalPath(())

    @pytest.mark.parametrize("times", [(0.0, math.nan), (math.nan, 1.0), (math.nan,)])
    def test_rejects_nan_times(self, times):
        # Every comparison with NaN is false, so a NaN time passed the order
        # check, and pose_at then held the end pose from the NaN on.
        waypoints = tuple((t, Pose(0.6, 0.2 + 0.1 * i)) for i, t in enumerate(times))
        with pytest.raises(ValueError, match="waypoint times"):
            NominalPath(waypoints)


class TestScenarioValidation:
    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown gains type"):
            free_space_scenario(gains={"x": (1e-4, 5e-5), "z": (1e-4, 5e-5)})

    def test_rejects_mismatched_gains(self):
        with pytest.raises(ValueError, match="one control law"):
            free_space_scenario(
                gains={"x": PIGains(1e-4, 5e-5), "z": FuzzyPIGains(0.1, 0.1, 1e-3)}
            )

    def test_rejects_a_missing_axis(self):
        with pytest.raises(ValueError, match="^missing gains for axis z$"):
            free_space_scenario(gains={"x": PIGains(1e-4, 5e-5)})
        with pytest.raises(ValueError, match="^missing limits for axis z$"):
            free_space_scenario(limits={"x": CorrectionLimits()})

    def test_rejects_unreachable_waypoint(self):
        with pytest.raises(ValueError, match="unreachable"):
            free_space_scenario(path=NominalPath(((0.0, Pose(1.5, 0.0)),)))

    @pytest.mark.parametrize(
        "waypoints,where",
        [
            # math.hypot puts this pose on the inner edge of the workspace,
            # and ik's sqrt(x*x + z*z) an ulp inside it.
            (((0.0, Pose(-0.061200066677516644, -0.1904062809842877)),), "path[0]: waypoint at t=0.0"),
            # Both waypoints are reachable; the pose at t = 0 between them is not.
            (((-1.0, Pose(0.6, 0.1)), (1.0, Pose(-0.6, 0.1))), "path: the path's start at t=0.0"),
        ],
        ids=["inner-edge", "start-between-waypoints"],
    )
    def test_rejects_a_start_that_ik_rejects(self, waypoints, where):
        # run() would raise Unreachable from its first ik call.
        with pytest.raises(ValueError, match=f"^{re.escape(where)} is unreachable"):
            free_space_scenario(arm=PlanarArm(l2=0.3), path=NominalPath(waypoints))

    @pytest.mark.parametrize("pose", [Pose(math.nan, 0.2), Pose(0.6, math.nan)])
    def test_rejects_nan_waypoint_pose(self, pose):
        # Its radius is NaN, which compares false with both reach limits.
        with pytest.raises(ValueError, match=r"^path\[1\]: waypoint at t=1.0 is unreachable"):
            free_space_scenario(path=NominalPath(((0.0, Pose(0.6, 0.2)), (1.0, pose))))

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            free_space_scenario(dt=0.0)
        with pytest.raises(ValueError):
            free_space_scenario(duration=0.001)

    @pytest.mark.parametrize(
        "timing,message",
        [
            ({"dt": math.nan}, "dt must be positive"),
            ({"duration": math.nan}, "duration must be at least one tick"),
        ],
    )
    def test_rejects_nan_timing_by_name(self, timing, message):
        with pytest.raises(ValueError, match=message):
            free_space_scenario(**timing)

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
        "timing", [{"duration": 0.015}, {"duration": 0.025}, {"duration": 3.004}, {"dt": 0.007}]
    )
    def test_rejects_a_duration_of_part_ticks(self, timing):
        # run() would round duration / dt to whole ticks and stop early or late.
        with pytest.raises(ValueError, match="^duration: expected a whole number of ticks of dt = "):
            free_space_scenario(**timing)

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
            PlanarArm(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration", 30000.0),  # 3e6 ticks, past the tick limit
            ("gains", {"x": PIGains(1e-4, 5e-5), "z": FuzzyPIGains(0.1, 0.1, 1e-3)}),
        ],
    )
    def test_fields_cannot_be_assigned_past_the_checks(self, field, value):
        scenario = free_space_scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, field, value)


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
        scenario = preset_scenario("exp2", "fuzzy")
        a = run(scenario)
        b = run(scenario)
        assert np.array_equal(a.values, b.values)

    def test_smooth_surface_regulates_to_setpoint(self, smooth_exp2):
        trace = run(smooth_exp2("pi"))
        f_z = trace.column("f_z")
        tail = f_z[int(round(0.8 * (len(f_z) - 1))):]
        assert np.abs(tail - 30.0).max() <= 0.5

    def test_correction_accumulation_identity(self):
        # u in row k is the correction used at tick k; it advances by the
        # selected du and never shrinks by any other mechanism.
        trace = run(preset_scenario("exp2", "fuzzy"))
        u_z = trace.column("u_z")
        du_z = trace.column("du_z")
        limits = CorrectionLimits()
        for k in range(len(trace) - 1):
            expected = min(max(u_z[k] + du_z[k], limits.u_min), limits.u_max)
            assert u_z[k + 1] == pytest.approx(expected, abs=1e-15)
        assert np.all(trace.column("u_x") == 0.0)  # x is motion-only in exp2

    def test_commanded_pose_deviates_from_nominal_by_u(self, smooth_exp2):
        # With an effectively instantaneous servo the actual pose equals the
        # commanded one, exposing cmd = nominal + press * u directly.
        scenario = smooth_exp2("pi")
        scenario = dataclasses.replace(
            scenario, arm=PlanarArm(tau_servo=1e-9, qdot_max=1e9)
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
            preset_scenario("exp1", "pi"), selection=SelectionMatrix(False, False)
        )
        trace = run(scenario)
        assert trace.column("f_z").max() > 10.0

    def test_exp1_obstacle_on_path(self):
        scenario = preset_scenario("exp1", "pi")
        trace = run(scenario)
        assert trace.column("f_z").max() > 0.1  # collision happens without doubt

    def test_exp3_setpoints(self):
        scenario = preset_scenario("exp3", "pi")
        assert scenario.setpoint == (6.0, 30.0)
        assert scenario.selection == SelectionMatrix.identity()

    def test_exp3_regulates_through_sensor_noise(self):
        # Integral action rejects zero-mean sensor noise; steady means stay
        # inside the regulation bands.
        for kind in ("pi", "fuzzy"):
            scenario = dataclasses.replace(
                preset_scenario("exp3", kind), sensor=SensorModel(noise_sigma=0.5, seed=777)
            )
            trace = run(scenario)
            fx = trace.column("f_x")
            fz = trace.column("f_z")
            assert 5.0 <= fx[len(fx) // 2:].mean() <= 7.0
            assert 29.0 <= fz[len(fz) // 2:].mean() <= 31.0

    def test_run_respects_joint_rate_and_correction_clamps(self):
        scenario = preset_scenario("exp1", "fuzzy")
        trace = run(scenario)
        for joint in ("q1", "q2"):
            rates = np.abs(np.diff(trace.column(joint))) / scenario.dt
            assert rates.max() <= scenario.arm.qdot_max + 1e-12
        u_z = trace.column("u_z")
        limits = scenario.limits["z"]
        assert u_z.min() >= limits.u_min - 1e-15
        assert u_z.max() <= limits.u_max + 1e-15

    def test_exp2_setpoint_and_selection(self):
        scenario = preset_scenario("exp2", "fuzzy")
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
        a = dataclasses.replace(preset_scenario("exp3", "pi"), sensor=sensor)
        b = dataclasses.replace(preset_scenario("exp3", "fuzzy"), sensor=sensor)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0e154, 1.0e200, 1.0e300])
    def test_rms_of_finite_errors_whose_squares_overflow(self, scale):
        # Errors of +-3.5 times the scale square beyond float range; their
        # RMS, 3.5 times the scale, does not.
        t = np.arange(0, 1.0, 0.01)
        f = scale * np.tile([3.5, -3.5], 50)
        rms = compute_metrics(make_trace(t, f), "z", 0.0).steady_state_rms
        assert rms == pytest.approx(3.5 * scale, rel=1e-15)

    def test_rms_of_non_finite_errors_stays_non_finite(self):
        t = np.arange(0, 1.0, 0.01)
        f = np.full_like(t, 1.0e300)
        f[-1] = math.inf
        assert compute_metrics(make_trace(t, f), "z", 0.0).steady_state_rms == math.inf
        f[-1] = math.nan
        assert math.isnan(compute_metrics(make_trace(t, f), "z", 0.0).steady_state_rms)

    def test_overshoot_percentage(self):
        t = np.arange(0, 1.0, 0.01)
        f = np.full_like(t, 30.0)
        f[50] = 36.0
        m = compute_metrics(make_trace(t, f), "z", 30.0)
        assert m.overshoot_pct == pytest.approx(20.0)
        assert m.max_force == 36.0

    @pytest.mark.parametrize("setpoint", [6.0, 30.0, 0.0])
    def test_a_mirrored_trace_reads_the_same(self, setpoint):
        # Overshoot is measured away from zero, on the setpoint's side.
        t = np.arange(0, 3.0, 0.01)
        f = setpoint + 8.0 * np.exp(-t / 0.4) * np.cos(8 * t)
        f[:20] = 0.0
        forward = compute_metrics(make_trace(t, f, f_x=f), "x", setpoint)
        mirrored = compute_metrics(make_trace(t, -f, f_x=-f), "x", -setpoint)
        assert forward == mirrored
        assert forward.overshoot_pct > 0.0

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

    def test_contact_threshold_matches_the_benchmark_copy(self):
        # perfbench/counts.py counts contact ticks with its own copy.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "counts.py"
        spec = importlib.util.spec_from_file_location("perfbench_counts", path)
        counts = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(counts)
        assert sim._CONTACT_N == counts.CONTACT_N


class TestTune:
    def test_single_point_grid(self, smooth_exp2):
        scenario = smooth_exp2("pi")
        best, board = tune(scenario, {"kp": [1e-4], "ki": [5e-5]})
        assert best.gains == {"kp": 1e-4, "ki": 5e-5}
        assert len(board) == 1

    def test_stable_gains_beat_unstable(self, smooth_exp2):
        scenario = smooth_exp2("pi")
        best, board = tune(scenario, {"kp": [1e-4], "ki": [2e-5, 5e-3]})
        assert best.gains["ki"] == 2e-5
        assert len(board) == 2

    def test_enumeration_order_irrelevant(self, smooth_exp2):
        scenario = smooth_exp2("pi")
        grid_a = {"kp": [0.0, 1e-4], "ki": [2e-5, 1e-4]}
        grid_b = {"ki": [1e-4, 2e-5], "kp": [1e-4, 0.0]}
        best_a, _ = tune(scenario, grid_a)
        best_b, _ = tune(scenario, grid_b)
        assert best_a.gains == best_b.gains

    def test_best_is_leaderboard_minimum(self, smooth_exp2):
        scenario = smooth_exp2("fuzzy")
        best, board = tune(
            scenario, {"kp": [0.05, 0.1], "ki": [1 / 30], "kx": [1e-3, 2e-3]}
        )
        assert best.objective == min(e.objective for e in board)
        assert board[0] == best

    def test_all_runs_failed(self):
        scenario = free_space_scenario()  # no obstacle: every run is NoContact
        with pytest.raises(AllRunsFailed, match="every grid point failed"):
            tune(scenario, {"kp": [1e-4], "ki": [5e-5]})

    def test_no_finite_objective_is_a_failure(self, smooth_exp2):
        # A 1e308 N sensor bias makes every scored force, and so every
        # objective, inf; the gain tuple's order alone would pick a "best".
        scenario = smooth_exp2("pi")
        scenario = dataclasses.replace(scenario, sensor=SensorModel(bias=AxisForce(0.0, 1.0e308)))
        with pytest.raises(AllRunsFailed, match="no grid point scored a finite objective"):
            tune(scenario, {"kp": [0.0, 1e-4], "ki": [2e-5]})

    @pytest.mark.parametrize("value", [-1000.0, -5e-324, math.nan])
    @pytest.mark.parametrize("name", ["overshoot", "not_settled"])
    def test_weights_must_be_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            ObjectiveWeights(**{name: value})
        assert getattr(ObjectiveWeights(**{name: -0.0}), name) == 0.0

    def test_zero_weight_drops_its_term(self, smooth_exp2):
        # At a setpoint of 1e-307 N every overshoot percentage is inf; a zero
        # weight times it made the objective NaN, which sorts anywhere.
        scenario = smooth_exp2("pi")
        scenario = dataclasses.replace(scenario, setpoint=AxisForce(0.0, 1.0e-307))
        grid = {"kp": [1e-4], "ki": [2e-5, 5e-5]}
        _, board = tune(scenario, grid, ObjectiveWeights(overshoot=0.0))
        for entry in board:
            assert entry.overshoot_pct == math.inf
            assert entry.objective == entry.itae + (0.0 if entry.settled else 1000.0)
            assert math.isfinite(entry.objective)

    def test_grid_validation(self, smooth_exp2):
        scenario = smooth_exp2("pi")
        with pytest.raises(ValueError, match="empty"):
            tune(scenario, {})
        with pytest.raises(ValueError, match="must define"):
            tune(scenario, {"kp": [1e-4]})
        with pytest.raises(ValueError, match="unknown gain"):
            tune(scenario, {"kp": [1e-4], "ki": [1e-5], "kq": [1.0]})
        for values in ([0.0, -0.0], [1, 1.0], [1e-4, 2e-4, 1e-4]):
            with pytest.raises(ValueError, match="duplicate"):
                tune(scenario, {"kp": values, "ki": [1e-5]})

    @pytest.mark.parametrize("values", [[math.nan], [math.nan, 1e-4], [1e-4, math.nan]])
    @pytest.mark.parametrize("law", [PIGains, FuzzyPIGains])
    def test_grid_rejects_a_nan_gain_by_name(self, law, values):
        # min() neither orders NaN below 0 nor returns one that comes later.
        names = [f.name for f in dataclasses.fields(law)]
        grid = {name: [1e-4] for name in names}
        grid[names[-1]] = values
        with pytest.raises(ValueError, match=f"^{names[-1]}: expected nonnegative gains, got nan$"):
            sim.check_grid(law, grid)
        grid[names[-1]] = [1e-4, -2.0, -1.0]
        with pytest.raises(ValueError, match=f"^{names[-1]}: expected nonnegative gains, got -2.0$"):
            sim.check_grid(law, grid)

    @pytest.mark.parametrize("band_pct", [math.nan, 0.0, -1.0])
    def test_band_must_be_positive(self, band_pct, smooth_exp2, monkeypatch):
        # Checked before any point is simulated, and by compute_metrics: a
        # NaN band would report any trace as settled at first contact.
        monkeypatch.setattr(sim, "_lockstep", None)
        message = f"^band_pct: expected a positive number, got {band_pct}$"
        with pytest.raises(ValueError, match=message):
            tune(smooth_exp2("pi"), {"kp": [1e-4], "ki": [2e-5]}, band_pct=band_pct)
        with pytest.raises(ValueError, match=message):
            compute_metrics(make_trace([0.0, 0.01], [30.0, 30.0]), "z", 30.0, band_pct=band_pct)

    def test_axis_must_be_one_of_the_axes(self, smooth_exp2, monkeypatch):
        monkeypatch.setattr(sim, "_lockstep", None)
        with pytest.raises(ValueError, match=r"^axis: expected one of \('x', 'z'\), got 'y'$"):
            tune(smooth_exp2("pi"), {"kp": [1e-4], "ki": [2e-5]}, axis="y")

    @pytest.mark.parametrize("law", ["pi", "fuzzy"])
    def test_committed_exp2_tunes_never_leave_the_column_engine(self, law, monkeypatch):
        # The column engine integrates every aggregate of these grids in
        # numpy, so the scalar engine is never called (README).
        calls = []
        output = RuleBase.output
        monkeypatch.setattr(RuleBase, "output", lambda self, e, de: calls.append((e, de)) or output(self, e, de))
        raw = config.read_config(Path(__file__).resolve().parents[1] / "tuning" / f"exp2_{law}_best.yaml")
        raw["seed"] = 2211
        cfg = config.validate_config(raw)
        tune(config.scenario_from_config(cfg), **config.tuner_settings(cfg))
        assert calls == []


def lockstep(scenario, gains_list, j):
    """tune's lockstep loop over the gain sets, as one chunk, logging the
    measured force on the axis AXES[j]."""
    scenario = dataclasses.replace(scenario, gains={"x": gains_list[0], "z": gains_list[0]})
    columns = np.array([dataclasses.astuple(g) for g in gains_list], dtype=float).T
    return list(sim._lockstep(scenario, columns, j))


def batch_against_run(scenario, gains_list):
    """run() of the scenario with each member's gains on both axes, checked
    against tune's lockstep loop on each axis, with numpy warnings as
    errors: the logged force bit for bit against run()'s f_x or f_z, or the
    same WorkspaceViolation. Returns run()'s results."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = []
        for gains in gains_list:
            try:
                results.append(run(dataclasses.replace(scenario, gains={"x": gains, "z": gains})))
            except WorkspaceViolation as exc:
                results.append(exc)
        for j, axis in enumerate(AXES):
            forces = lockstep(scenario, gains_list, j)
            assert len(forces) == len(gains_list)
            for got, want in zip(forces, results):
                if isinstance(want, WorkspaceViolation):
                    assert isinstance(got, WorkspaceViolation)
                    assert (got.tick, got.t, str(got)) == (want.tick, want.t, str(want))
                else:
                    assert isinstance(got, np.ndarray)
                    assert np.array_equal(got.view(np.uint64), want.column(f"f_{axis}").view(np.uint64))
    return results


def floor_scenario(**overrides):
    """A slide over a compliant floor 2 cm below the nominal path."""
    base = dict(
        name="floor",
        setpoint=AxisForce(0.0, 10.0),
        path=NominalPath(((0.0, Pose(0.5, 0.27)), (0.8, Pose(0.7, 0.27)))),
        environment=Environment((RoughSurface(height_base=0.25),), seed=3),
        gains={"x": PIGains(1e-4, 5e-5), "z": PIGains(1e-4, 5e-5)},
        selection=SelectionMatrix(False, True),
        duration=1.0,
    )
    base.update(overrides)
    return Scenario(**base)


PI_GRID = [PIGains(kp, ki) for kp in (0.0, 5e-4) for ki in (2e-5, 2e-4)]
FUZZY_GRID = [FuzzyPIGains(kp, 1 / 15, kx) for kp in (0.05, 0.2) for kx in (1e-3, 3e-3)]


class TestRunBatch:
    """tune's lockstep loop runs a batch of gain sets, each bit for bit as
    run() does, on hand-built scenarios where each feature reaches the
    logged force."""

    def test_box_entered_and_left(self):
        scenario = floor_scenario(
            path=NominalPath(
                ((0.0, Pose(0.6, 0.40)), (0.5, Pose(0.6, 0.22)), (1.0, Pose(0.6, 0.40)))
            ),
            environment=Environment((Box(0.5, 0.7, 0.15, 0.30),), seed=3),
            selection=SelectionMatrix.identity(),
            duration=1.5,
        )
        for grid in (PI_GRID, FUZZY_GRID):
            for trace in batch_against_run(scenario, grid):
                contact = np.abs(trace.column("f_z")) > 0.1
                assert contact.any() and not contact[-1]

    def test_friction_noise_profile_and_roughness(self):
        surface = RoughSurface(
            height_base=0.25,
            roughness_amplitude=0.002,
            noise_amplitude=0.001,
            friction_coeff=0.3,
        )
        scenario = floor_scenario(
            setpoint=AxisForce(3.0, 10.0),
            environment=Environment((surface,), seed=5),
            selection=SelectionMatrix.identity(),
        )
        for grid in (PI_GRID, FUZZY_GRID):
            for trace in batch_against_run(scenario, grid):
                assert np.abs(trace.column("f_x")).max() > 0.1

    @pytest.mark.parametrize("roughness,noise", [(0.002, 0.0), (0.0, 0.001), (0.002, 0.001)])
    def test_shortest_wavelength_accepted(self, roughness, noise):
        # A shorter wavelength lets a profile phase overflow to inf within the
        # arm's reach, where math.sin raises and np.sin gives NaN; the scenario
        # rejects it. At the shortest accepted one, every phase is finite and
        # huge, and run() and the lockstep loop agree bit for bit.
        def scenario(wavelength):
            surface = RoughSurface(
                height_base=0.25,
                roughness_amplitude=roughness,
                roughness_wavelength=wavelength,
                noise_amplitude=noise,
                friction_coeff=0.3,
            )
            return floor_scenario(environment=Environment((surface,), seed=5))

        # Bisect over the bit patterns of the positive doubles.
        lo, hi = np.float64(5e-324).view(np.int64), np.float64(1.0).view(np.int64)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                scenario(float(np.int64(mid).view(np.float64)))
            except ValueError as exc:
                assert str(exc).startswith("environment.obstacles[0].roughness_wavelength: ")
                lo = mid
            else:
                hi = mid
        shortest = float(np.int64(hi).view(np.float64))
        assert shortest < 1e-306
        for grid in (PI_GRID, FUZZY_GRID):
            batch_against_run(scenario(shortest), grid)

    def test_sensor_noise_and_bias(self):
        sensor = SensorModel(noise_sigma=0.5, bias=AxisForce(0.3, -0.7), seed=11)
        for grid in (PI_GRID, FUZZY_GRID):
            batch_against_run(floor_scenario(sensor=sensor), grid)

    def test_elbow_up(self):
        # A floor in reach of the correction: the two elbow branches servo
        # along paths that differ in the last bits, and so do their forces.
        scenario = floor_scenario(
            environment=Environment((RoughSurface(height_base=0.255),), seed=3),
            arm=PlanarArm(elbow="up"),
        )
        for trace in batch_against_run(scenario, PI_GRID):
            assert np.all(trace.column("q2") < 0.0)
        for gains in PI_GRID:
            up = dataclasses.replace(scenario, gains={"x": gains, "z": gains})
            down = dataclasses.replace(up, arm=PlanarArm(elbow="down"))
            assert np.any(run(up).column("f_z") != run(down).column("f_z"))

    def test_deselected_axis_evaluates_no_law(self):
        # On a rough floor, a correction along x moves the tool to another
        # height of the profile, so a law run on the deselected x axis would
        # show in f_z.
        surface = RoughSurface(height_base=0.25, roughness_amplitude=0.002)
        scenario = floor_scenario(
            setpoint=AxisForce(5.0, 10.0), environment=Environment((surface,), seed=3)
        )
        for trace in batch_against_run(scenario, FUZZY_GRID):
            assert np.all(trace.column("du_x") == 0.0) and np.all(trace.column("u_x") == 0.0)
            assert np.any(trace.column("e_x") != 0.0)
        for gains in FUZZY_GRID:
            member = dataclasses.replace(scenario, gains={"x": gains, "z": gains})
            both = dataclasses.replace(member, selection=SelectionMatrix.identity())
            assert np.any(run(member).column("f_z") != run(both).column("f_z"))

    def test_members_leave_the_workspace_at_their_own_ticks(self):
        # In free space the error stays at the setpoint, so u grows by ki * 10
        # a tick and pushes the target down out of reach, faster for larger ki.
        scenario = free_space_scenario(
            setpoint=AxisForce(0.0, 10.0),
            path=NominalPath(((0.0, Pose(0.6, -0.5)),)),
            selection=SelectionMatrix(False, True),
            limits={"x": CorrectionLimits(), "z": CorrectionLimits(-1.0, 1.0, 1.0)},
        )
        grid = [PIGains(0.0, ki) for ki in (1e-2, 1e-5, 5e-3, 1e-2)]
        results = batch_against_run(scenario, grid)
        first, never, later, again = results
        assert isinstance(first, WorkspaceViolation) and isinstance(later, WorkspaceViolation)
        assert first.tick < later.tick
        assert str(again) == str(first)
        assert isinstance(never, Trace) and len(never) == 151
        with pytest.raises(NoContact):
            compute_metrics(never, "z", 10.0)

    def test_huge_sensor_noise_aborts_with_a_nan_target(self):
        scenario = preset_scenario("exp2", "pi")
        sensor = dataclasses.replace(scenario.sensor, noise_sigma=1.0e308)
        grid = [scenario.gains["z"], *PI_GRID]
        results = batch_against_run(dataclasses.replace(scenario, sensor=sensor), grid)
        for result in results:
            assert isinstance(result, WorkspaceViolation) and "nan" in result.cause
        assert results[0].tick == 29

    def test_signed_zero_clamps_as_python_does(self):
        # u pinned to [-0.0, -0.0]: Python's min and max keep their first
        # argument on a tie, numpy's minimum and maximum their second, so the
        # two loops may hold zeros of either sign. The forces agree bit for
        # bit; the sign of a zero u reaches no output of the lockstep loop.
        zero = CorrectionLimits(-0.0, -0.0, 5e-4)
        scenario = floor_scenario(limits={"x": zero, "z": zero})
        batch_against_run(scenario, [PIGains(0.0, 0.0), PIGains(0.0, 1e-4)])

    def test_presets_with_their_committed_gains(self):
        for preset in ("exp1", "exp2", "exp3"):
            for kind, grid in (("pi", PI_GRID), ("fuzzy", FUZZY_GRID)):
                scenario = preset_scenario(preset, kind)
                batch_against_run(scenario, [scenario.gains["x"], *grid[:1]])

    @pytest.mark.parametrize("kind", ["pi", "fuzzy"])
    def test_one_member(self, kind):
        # Every (2, B) array is a single column: the width at which numpy's
        # reductions pair rows differently.
        for preset in ("exp1", "exp2", "exp3"):
            scenario = preset_scenario(preset, kind)
            batch_against_run(scenario, [scenario.gains["z"]])

    def test_empty_batch(self):
        # A grid with an empty value list has no point to run or rank.
        with pytest.raises(ValueError, match="empty value list in tuner grid"):
            tune(floor_scenario(), {"kp": [], "ki": [5e-5]})

    def test_members_that_take_the_scalar_engine(self, monkeypatch):
        # The column engine leaves an aggregate of three or more shapes to
        # `output`. Both inputs must then lie between label centres, as on
        # a few ticks of exp1 with this grid.
        scenario = preset_scenario("exp1", "fuzzy")
        scalar_calls = []
        output = RuleBase.output
        monkeypatch.setattr(
            RuleBase, "output", lambda self, e, de: scalar_calls.append(e) or output(self, e, de)
        )
        lockstep(scenario, FUZZY_GRID, 1)
        assert scalar_calls and len(scalar_calls) < len(FUZZY_GRID) * 2 * 301
        batch_against_run(scenario, FUZZY_GRID)

    @pytest.mark.parametrize("members_per_chunk,sizes", [(1, [1, 1, 1, 1, 1]), (2, [2, 2, 1])])
    def test_chunks_match_one_loop(self, members_per_chunk, sizes, monkeypatch):
        # Each chunk replays the noisy sensor stream from its seed. A floor
        # 3 cm below the path: the largest ki leaves the workspace, the
        # smallest never reaches the floor, the others regulate.
        scenario = floor_scenario(
            path=NominalPath(((0.0, Pose(0.6, -0.5)),)),
            environment=Environment((RoughSurface(height_base=-0.53),), seed=3),
            sensor=SensorModel(noise_sigma=0.5, seed=11),
            limits={"x": CorrectionLimits(), "z": CorrectionLimits(-0.05, 1.0, 1.0)},
            duration=1.5,
        )
        grid = {"kp": [0.0], "ki": [1e-6, 2e-5, 1e-4, 3e-4, 5e-2]}
        _, whole = tune(scenario, grid)
        assert {e.failure is None for e in whole} == {True, False}
        chunks = []
        loop = sim._lockstep
        monkeypatch.setattr(
            sim, "_lockstep", lambda s, cols, j: chunks.append(cols.shape[1]) or loop(s, cols, j)
        )
        # Room for that many members' forces: 151 ticks of one float each.
        monkeypatch.setattr(sim, "_CHUNK_BYTES", members_per_chunk * 151 * 8)
        _, chunked = tune(scenario, grid)
        assert chunks == sizes
        assert chunked == whole


class TestTuneLogsOnlyTheScoredForce:
    def test_chunk_budget_counts_one_float_per_member_and_tick(self, monkeypatch):
        # The scenario of TestTuneScoresEachRun: scored and failed points.
        scenario = floor_scenario(
            path=NominalPath(((0.0, Pose(0.6, -0.5)),)),
            environment=Environment((RoughSurface(height_base=-0.53),), seed=3),
            limits={"x": CorrectionLimits(), "z": CorrectionLimits(-0.05, 1.0, 1.0)},
            duration=1.5,
        )
        grid = {"kp": [0.0, 1e-5], "ki": [1e-6, 1e-4, 5e-2]}
        _, whole = tune(scenario, grid)
        chunks = []
        loop = sim._lockstep
        monkeypatch.setattr(
            sim, "_lockstep", lambda *args: chunks.append(args[1].shape[1]) or loop(*args)
        )
        # Room for all six members' forces, 151 ticks of 8 bytes each; a byte
        # less leaves room for five.
        for budget, sizes in ((6 * 151 * 8, [6]), (6 * 151 * 8 - 1, [5, 1])):
            chunks.clear()
            monkeypatch.setattr(sim, "_CHUNK_BYTES", budget)
            _, board = tune(scenario, grid)
            assert chunks == sizes
            assert board == whole


class TestTuneScoresEachRun:
    def test_entries_match_scoring_each_run(self):
        # A floor 3 cm below the path: the smallest ki never reaches it, the
        # middle one regulates, the largest leaves the workspace at tick 1.
        scenario = floor_scenario(
            path=NominalPath(((0.0, Pose(0.6, -0.5)),)),
            environment=Environment((RoughSurface(height_base=-0.53),), seed=3),
            limits={"x": CorrectionLimits(), "z": CorrectionLimits(-0.05, 1.0, 1.0)},
            duration=1.5,
        )
        grid = {"kp": [0.0, 1e-5], "ki": [1e-6, 1e-4, 5e-2]}
        _, board = tune(scenario, grid)
        failures = {e.failure.split(" (")[0].split(":")[0] for e in board if e.failure}
        assert failures == {"no contact on axis z", "tick 1"}
        for entry in board:
            member = dataclasses.replace(
                scenario, gains={a: PIGains(**entry.gains) for a in ("x", "z")}
            )
            try:
                m = compute_metrics(run(member), "z", 10.0)
            except (WorkspaceViolation, NoContact) as exc:
                assert entry.failure == str(exc) and entry.objective == math.inf
                continue
            objective = m.itae + 10.0 * m.overshoot_pct + (0.0 if m.settled else 1000.0)
            assert entry.failure is None
            assert (entry.objective, entry.overshoot_pct, entry.itae) == (
                objective,
                m.overshoot_pct,
                m.itae,
            )
