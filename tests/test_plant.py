import dataclasses
import math

import numpy as np
import pytest

from forcemotion.control import AxisForce
from forcemotion.plant import (
    Box,
    Environment,
    PlanarArm,
    Pose,
    RoughSurface,
    SensorModel,
    Unreachable,
    _jacobians,
    fk_batch,
    ik,
    ik_batch,
    outside_workspace,
    servo_step_batch,
)

import oracles


ARM = PlanarArm(l1=0.5, l2=0.5)


class TestForwardKinematics:
    def test_fully_stretched(self):
        assert ARM.fk((0.0, 0.0)) == pytest.approx((1.0, 0.0))

    def test_right_angle_elbow(self):
        assert ARM.fk((0.0, math.pi / 2)) == pytest.approx((0.5, 0.5))

    def test_vertical_stretch(self):
        assert ARM.fk((math.pi / 2, 0.0)) == pytest.approx((0.0, 1.0), abs=1e-15)


class TestInverseKinematics:
    def test_boundary_stretch(self):
        assert ik(0.5, 0.5, Pose(1.0, 0.0)) == pytest.approx((0.0, 0.0))

    def test_right_angle_case(self):
        q1, q2 = ik(0.5, 0.5, Pose(0.5, 0.5), elbow="down")
        assert (q1, q2) == pytest.approx((0.0, math.pi / 2))
        assert ARM.fk((q1, q2)) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_unreachable(self):
        with pytest.raises(Unreachable):
            ik(0.5, 0.5, Pose(2.0, 0.0))
        with pytest.raises(Unreachable):
            ik(0.8, 0.2, Pose(0.1, 0.0))  # inside the inner annulus radius

    @pytest.mark.parametrize(
        "l1,l2,target,text",
        [
            (0.5, 0.5, Pose(2.0, -0.25), "(2.0000, -0.2500) outside workspace [0.0000, 1.0000]"),
            (0.8, 0.2, Pose(999999999.99994, math.nan), "(999999999.9999, nan) outside workspace [0.6000, 1.0000]"),
            (0.5, 0.5, Pose(0.5507, -1e299), "(0.5507, -1.000e+299) outside workspace [0.0000, 1.0000]"),
            (4e9, 1e9, Pose(1e300, -math.inf), "(1.000e+300, -inf) outside workspace [3.000e+09, 5.000e+09]"),
        ],
    )
    def test_unreachable_message_prints_huge_numbers_in_exponent_form(self, l1, l2, target, text):
        # Fixed point below 1e9 and .3e from 1e9 on, as the CLI prints metrics.
        assert str(outside_workspace(l1, l2, target)) == "target " + text

    @pytest.mark.parametrize("target", [Pose(math.nan, 0.3), Pose(0.5, math.nan)])
    def test_nan_target_is_unreachable(self, target):
        with pytest.raises(Unreachable):
            ik(0.5, 0.5, target)

    def test_elbow_branches_mirror(self):
        down = ik(0.5, 0.5, Pose(0.6, 0.3), elbow="down")
        up = ik(0.5, 0.5, Pose(0.6, 0.3), elbow="up")
        assert down[1] == pytest.approx(-up[1])
        for q1, q2 in (down, up):
            assert ARM.fk((q1, q2)) == pytest.approx((0.6, 0.3), abs=1e-12)

    def test_round_trip_on_random_reachable_targets(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            radius = rng.uniform(0.05, 0.999)
            angle = rng.uniform(-math.pi, math.pi)
            target = Pose(radius * math.cos(angle), radius * math.sin(angle))
            elbow = "down" if rng.random() < 0.5 else "up"
            q1, q2 = ik(0.5, 0.5, target, elbow)
            pose = ARM.fk((q1, q2))
            assert math.hypot(pose.x - target.x, pose.z - target.z) <= 1e-9


class TestLinkLengths:
    @pytest.mark.parametrize(
        "l1,l2",
        [(1.0e154, 1.0e154), (1.0e200, 1.0e200), (1.0e300, 1.0e-10), (1.0e-170, 1.0e-170)],
        ids=["squares-overflow", "far-beyond", "one-square-overflows", "product-underflows"],
    )
    def test_rejects_lengths_that_break_ik_arithmetic(self, l1, l2):
        # ik's cosine would be +-inf or NaN, or divide by zero.
        with pytest.raises(ValueError, match=r"l1\*l1 \+ l2\*l2 and 2\*l1\*l2 must be finite"):
            PlanarArm(l1, l2)

    def test_largest_lengths_still_solve(self):
        arm = PlanarArm(1.0e150, 1.0e150)
        q1, q2 = ik(arm.l1, arm.l2, Pose(1.0e150, 0.0))
        assert q2 == pytest.approx(2.0 * math.pi / 3.0)
        assert arm.l1 * math.cos(q1) + arm.l2 * math.cos(q1 + q2) == pytest.approx(1.0e150)


class TestJacobian:
    def test_stretched_configuration(self):
        jac = _jacobians(ARM.l1, ARM.l2, np.array([(0.0, 0.0)]))[0]
        fd = oracles.finite_difference_jacobian(
            lambda q1, q2: ARM.fk((q1, q2)), 0.0, 0.0
        )
        assert np.abs(jac - fd).max() <= 1e-6
        assert jac == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.5]]), abs=1e-12)

    def test_vertical_configuration(self):
        jac = _jacobians(ARM.l1, ARM.l2, np.array([(math.pi / 2, 0.0)]))[0]
        assert jac == pytest.approx(np.array([[-1.0, -0.5], [0.0, 0.0]]), abs=1e-12)

    def test_matches_finite_differences_on_random_configurations(self):
        rng = np.random.default_rng(1618)
        for _ in range(100):
            q1, q2 = rng.uniform(-math.pi, math.pi, size=2)
            jac = _jacobians(ARM.l1, ARM.l2, np.array([(q1, q2)]))[0]
            fd = oracles.finite_difference_jacobian(
                lambda a, b: ARM.fk((a, b)), q1, q2
            )
            assert np.abs(jac - fd).max() <= 1e-6

    def test_second_column_is_link2_contribution(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            q1, q2 = rng.uniform(-math.pi, math.pi, size=2)
            jac = _jacobians(ARM.l1, ARM.l2, np.array([(q1, q2)]))[0]
            q12 = q1 + q2
            assert jac[:, 1] == pytest.approx(
                [-0.5 * math.sin(q12), 0.5 * math.cos(q12)], abs=1e-12
            )


def torques(q, fx, fz):
    """joint_torques of one force at the joint angles q, as a one-row array."""
    return ARM.joint_torques(np.array([[fx, fz]]), np.array([q]))


class TestJointTorques:
    def test_zero_force(self):
        assert torques((0.0, 0.0), 0.0, 0.0).tolist() == [[0.0, 0.0]]

    def test_downward_force_at_stretch(self):
        # tau = J^T f with the finite-difference-verified Jacobian.
        tau = torques((0.0, 0.0), 0.0, -10.0)
        assert tau[0] == pytest.approx((-10.0, -5.0))

    def test_doubling_force_doubles_torque_exactly(self):
        q = (0.7, -1.1)
        fx, fz = 3.3, -7.7
        tau = torques(q, fx, fz)
        doubled = torques(q, 2 * fx, 2 * fz)
        assert doubled.tolist() == (2 * tau).tolist()

    def test_linearity_random_combination(self):
        q = (0.3, 0.9)
        fa, fb = AxisForce(1.2, -0.4), AxisForce(-2.0, 5.5)
        combined = torques(q, fa.x + fb.x, fa.z + fb.z)
        parts = torques(q, *fa) + torques(q, *fb)
        assert combined[0] == pytest.approx(tuple(parts[0]), abs=1e-12)

    def test_whole_trace_matches_per_tick_bit_for_bit(self):
        # One stacked matmul over a trace's joint angles and tool forces must
        # give the bits of J^T f taken one tick at a time.
        rng = np.random.default_rng(20131)
        n = 50_000
        q = rng.uniform(-math.pi, math.pi, (n, 2))
        f = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        assert np.all(f != 0.0)
        arm = ARM
        tau = arm.joint_torques(f, q)
        assert tau.shape == (n, 2)
        l1, l2 = arm.l1, arm.l2
        expected = np.empty((n, 2))
        for k, ((q1, q2), force) in enumerate(zip(q.tolist(), f.tolist())):
            s1, c1 = math.sin(q1), math.cos(q1)
            s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
            jac = np.array([[-l1 * s1 - l2 * s12, -l2 * s12], [l1 * c1 + l2 * c12, l2 * c12]])
            expected[k] = jac.T @ np.array(force)
        assert np.array_equal(tau.view(np.int64), expected.view(np.int64))


class TestServo:
    def test_fixed_point(self):
        assert ARM.servo_step((0.3, -0.2), (0.3, -0.2), *ARM.servo_rates(0.01)) == (0.3, -0.2)

    def test_small_time_constant_snaps_within_rate_limit(self):
        arm = PlanarArm(tau_servo=1e-9, qdot_max=1000.0)
        q = arm.servo_step((0.0, 0.0), (0.5, -0.4), *arm.servo_rates(0.01))
        assert q == pytest.approx((0.5, -0.4), abs=1e-9)

    def test_first_order_response(self):
        # One step of length tau covers 1 - exp(-1) of the remaining distance.
        arm = PlanarArm(tau_servo=0.04, qdot_max=1000.0)
        q1, _ = arm.servo_step((0.0, 0.0), (1.0, 0.0), *arm.servo_rates(0.04))
        assert q1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_rate_limit(self):
        arm = PlanarArm(tau_servo=1e-9, qdot_max=2.0)
        q = arm.servo_step((0.0, 0.0), (1.0, -1.0), *arm.servo_rates(0.01))
        assert q == pytest.approx((0.02, -0.02))

    def test_distance_non_increasing(self):
        arm = PlanarArm(tau_servo=0.04, qdot_max=2.0)
        q = (-1.0, 1.2)
        target = (0.8, -0.5)
        rates = arm.servo_rates(0.01)
        previous = math.inf
        for _ in range(200):
            q = arm.servo_step(q, target, *rates)
            distance = math.hypot(q[0] - target[0], q[1] - target[1])
            assert distance <= previous + 1e-15
            previous = distance
        assert previous < 1e-6

    def test_arm_holds_no_joint_angles(self):
        # The tick loops carry q; the arm is a frozen description.
        assert [f.name for f in dataclasses.fields(PlanarArm)] == [
            "l1", "l2", "tau_servo", "qdot_max", "elbow"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ARM.l1 = 1.0

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rates_reject_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            ARM.servo_rates(dt)


class TestContact:
    def flat_floor(self, friction=0.0):
        surface = RoughSurface(height_base=0.2, stiffness=10_000.0, friction_coeff=friction)
        return Environment((surface,), seed=5)

    def test_no_contact_above_obstacles(self):
        env = self.flat_floor()
        assert env.contact_force(Pose(0.5, 0.25), (0.1, 0.0)) == (0.0, 0.0)

    def test_hooke_normal_force(self):
        env = self.flat_floor()
        f = env.contact_force(Pose(0.5, 0.199), (0.0, 0.0))
        assert f.z == pytest.approx(10.0)
        assert f.x == 0.0

    def test_coulomb_friction_opposes_sliding(self):
        env = self.flat_floor(friction=0.2)
        f = env.contact_force(Pose(0.5, 0.199), (0.1, 0.0))
        assert f == pytest.approx((-2.0, 10.0))
        f_back = env.contact_force(Pose(0.5, 0.199), (-0.1, 0.0))
        assert f_back == pytest.approx((2.0, 10.0))

    def test_unilateral(self):
        env = self.flat_floor()
        for z in np.linspace(0.1, 0.4, 61):
            f = env.contact_force(Pose(0.5, float(z)), (0.0, 0.0))
            assert f.z >= 0.0
            if z >= 0.2:
                assert f.z == 0.0

    def test_linear_in_penetration(self):
        env = self.flat_floor()
        depths = np.linspace(1e-4, 5e-3, 20)
        forces = [env.contact_force(Pose(0.5, 0.2 - d), (0.0, 0.0)).z for d in depths]
        assert forces == pytest.approx(list(10_000.0 * depths))

    def test_box_top_face(self):
        env = Environment((Box(0.4, 0.6, 0.0, 0.3, stiffness=10_000.0),), seed=0)
        f = env.contact_force(Pose(0.5, 0.299), (0.0, 0.0))
        assert f == pytest.approx((0.0, 10.0))

    def test_box_side_face_dominates_when_shallower(self):
        env = Environment((Box(0.4, 0.6, 0.0, 0.3, stiffness=10_000.0),), seed=0)
        f = env.contact_force(Pose(0.401, 0.15), (0.0, 0.0))
        assert f == pytest.approx((-10.0, 0.0))

    def test_box_outside(self):
        env = Environment((Box(0.4, 0.6, 0.0, 0.3),), seed=0)
        assert env.contact_force(Pose(0.7, 0.2), (0.0, 0.0)) == (0.0, 0.0)

    def test_obstacle_contributions_sum(self):
        env = Environment(
            (
                RoughSurface(height_base=0.2, stiffness=10_000.0),
                RoughSurface(height_base=0.2005, stiffness=10_000.0),
            ),
            seed=0,
        )
        f = env.contact_force(Pose(0.5, 0.199), (0.0, 0.0))
        assert f.z == pytest.approx(10.0 + 15.0)

    def test_rough_profile_deterministic_per_seed(self):
        surface = RoughSurface(
            height_base=0.25,
            roughness_amplitude=1e-3,
            roughness_wavelength=0.05,
            noise_amplitude=2e-4,
        )
        env_a = Environment((surface,), seed=42)
        env_b = Environment((surface,), seed=42)
        env_c = Environment((surface,), seed=43)
        xs = np.linspace(0.4, 0.8, 100)
        heights_a = [env_a.surface_height(0, float(x)) for x in xs]
        heights_b = [env_b.surface_height(0, float(x)) for x in xs]
        heights_c = [env_c.surface_height(0, float(x)) for x in xs]
        assert heights_a == heights_b
        assert heights_a != heights_c

    def test_seed_is_changed_only_by_replace(self):
        # The noise profiles are built from the seed once, at construction.
        surface = RoughSurface(height_base=0.25, noise_amplitude=2e-4)
        env = Environment((surface,), seed=42)
        with pytest.raises(dataclasses.FrozenInstanceError):
            env.seed = 43
        reseeded = dataclasses.replace(env, seed=43)
        assert reseeded.surface_height(0, 0.6) != env.surface_height(0, 0.6)

    def test_noise_bounded_by_amplitude(self):
        surface = RoughSurface(
            height_base=0.25, noise_amplitude=2e-4, roughness_wavelength=0.05
        )
        env = Environment((surface,), seed=7)
        for x in np.linspace(0.0, 1.0, 500):
            assert abs(env.surface_height(0, float(x)) - 0.25) <= 2e-4 + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 301])
    def test_noise_heights_sum_as_the_scalar_profile(self, n):
        # heights sums its sine rows down a running sum: np.add.reduce would
        # pair the rows of a single column differently from `height`.
        surface = RoughSurface(height_base=0.25, noise_amplitude=2e-4)
        profile = Environment((surface,), seed=7)._noise[0]
        rng = np.random.default_rng(n)
        for _ in range(2000 // n):
            x = rng.uniform(-1.0, 1.0, n)
            got = profile.heights(x)
            want = np.array([profile.height(v) for v in x.tolist()])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_noise_profile_holds_python_floats(self):
        # The profile is evaluated every tick; numpy scalars there are slow
        # and would leak into the force loop.
        surface = RoughSurface(height_base=0.25, noise_amplitude=2e-4)
        env = Environment((surface,), seed=7)
        profile = env._noise[0]
        values = [*profile.omegas, *profile.phases, profile.amplitude]
        assert len(values) == 17
        assert {type(v) for v in values} == {float}
        assert type(env.surface_height(0, 0.6)) is float

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: PlanarArm(l1=v),
            lambda v: PlanarArm(tau_servo=v),
            lambda v: PlanarArm(qdot_max=v),
            lambda v: RoughSurface(0.25, stiffness=v),
            lambda v: RoughSurface(0.25, noise_amplitude=v),
            lambda v: RoughSurface(0.25, roughness_wavelength=v),
            lambda v: RoughSurface(0.25, friction_coeff=v),
            lambda v: Box(v, 0.6, 0.1, 0.2),
            lambda v: Box(0.5, 0.6, 0.1, 0.2, stiffness=v),
            lambda v: SensorModel(noise_sigma=v),
        ],
        ids=[
            "l1", "tau_servo", "qdot_max", "stiffness", "noise_amplitude", "wavelength",
            "friction", "box.x_min", "box.stiffness", "noise_sigma",
        ],
    )
    def test_nan_rejected(self, make):
        with pytest.raises(ValueError):
            make(math.nan)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoughSurface(height_base=0.2, stiffness=0.0)
        with pytest.raises(ValueError):
            Box(0.5, 0.4, 0.0, 0.3)


class TestSensor:
    def test_identity_without_noise(self):
        sensor = SensorModel()
        assert sensor.sense(AxisForce(3.0, 7.0), np.random.default_rng(sensor.seed)) == (3.0, 7.0)

    def test_pure_bias(self):
        sensor = SensorModel(bias=AxisForce(1.0, 0.0))
        assert sensor.sense(AxisForce(0.0, 0.0), np.random.default_rng(sensor.seed)) == (1.0, 0.0)

    def test_deterministic_stream(self):
        a = SensorModel(noise_sigma=0.5, seed=9)
        b = SensorModel(noise_sigma=0.5, seed=9)
        rng_a = np.random.default_rng(a.seed)
        rng_b = np.random.default_rng(b.seed)
        seq_a = [a.sense(AxisForce(1.0, 2.0), rng_a) for _ in range(10)]
        seq_b = [b.sense(AxisForce(1.0, 2.0), rng_b) for _ in range(10)]
        assert seq_a == seq_b
        rng_a = np.random.default_rng(a.seed)
        assert [a.sense(AxisForce(1.0, 2.0), rng_a) for _ in range(10)] == seq_a


def bits(values) -> np.ndarray:
    """The float64 bit patterns of `values`, so that -0.0 differs from 0.0."""
    return np.array(values, dtype=float).view(np.uint64)


class TestBatchTwins:
    """Each (2, B) batch function gives, column by column, the bits of its
    scalar twin, which `run()` calls once per tick."""

    def test_fk_batch(self):
        rng = np.random.default_rng(41)
        q = np.concatenate((rng.uniform(-math.pi, math.pi, (2, 500)), [[0.0, -0.0, 1e3], [-0.0, 0.0, -1e3]]), axis=1)
        arm = PlanarArm(0.7, 0.3)
        want = [arm.fk(column) for column in q.T.tolist()]
        assert np.array_equal(bits(fk_batch(arm.l1, arm.l2, q).T), bits(want))

    def test_servo_step_batch(self):
        rng = np.random.default_rng(42)
        q = rng.uniform(-2.0, 2.0, (2, 400))
        q_des = q + rng.uniform(-0.1, 0.1, (2, 400))
        # Exact ties: alpha * (q_des - q) lands on +-dq_max, or the limit is
        # 0.0, where Python's clamp keeps -0.0 and q = -0.0 shows the sign.
        q[:, :4] = [[0.0, 0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, -0.0]]
        q_des[:, :4] = [[0.5, -0.5, -0.5, 0.0], [-0.0, 0.5, 0.5, -0.0]]
        arm = PlanarArm()
        for alpha, dq_max in [arm.servo_rates(0.01), (0.5, 0.25), (0.5, 0.0), (1.0, 1e-3)]:
            want = [arm.servo_step(a, b, alpha, dq_max) for a, b in zip(q.T.tolist(), q_des.T.tolist())]
            got = servo_step_batch(q.copy(), q_des, alpha, dq_max)
            assert np.array_equal(bits(got.T), bits(want))

    @pytest.mark.parametrize("l1,l2", [(0.5, 0.5), (0.8, 0.2), (0.3, 0.9), (1.0e150, 1.0e150)])
    @pytest.mark.parametrize("elbow", ["down", "up"])
    def test_ik_batch(self, l1, l2, elbow):
        rng = np.random.default_rng(43)
        angle = rng.uniform(-math.pi, math.pi, 60)
        lo, hi = abs(l1 - l2), l1 + l2
        # At, just inside and just beyond both reach limits, and within them.
        edges = [np.full(3, r * (1.0 + d)) for r in (lo, hi) for d in (0.0, 1e-12, -1e-12, 3e-12, -3e-12)]
        radius = np.concatenate([*edges, rng.uniform(lo, hi, 30)])
        target = np.array((radius * np.cos(angle), radius * np.sin(angle)))
        target[:, -1] = (math.nan, 0.3)
        q, reachable = ik_batch(l1, l2, target, elbow)
        for i, (x, z) in enumerate(target.T.tolist()):
            try:
                want = ik(l1, l2, Pose(x, z), elbow)
            except Unreachable:
                assert not reachable[i]
                continue
            assert reachable[i]
            assert np.array_equal(bits(q[:, i]), bits(want))
        assert reachable.any() and not reachable.all()

    def test_contact_force_batch(self):
        rng = np.random.default_rng(44)
        floor = RoughSurface(0.25, roughness_amplitude=1e-3, noise_amplitude=2e-4, friction_coeff=0.3)
        box = Box(0.5, 0.7, 0.1, 0.3)
        env = Environment((floor, box), seed=5)
        x = rng.uniform(0.45, 0.75, 300)
        z = rng.uniform(0.05, 0.35, 300)
        # A box centre and diagonal points tie two or four faces.
        x[:3], z[:3] = (0.6, 0.55, 0.65), (0.2, 0.15, 0.25)
        vx = rng.uniform(-1.0, 1.0, 300)
        vx[3:7] = (0.0, -0.0, 0.0, -0.0)
        x[3:7], z[3:7] = 0.6, 0.2495
        want = [env.contact_force(Pose(a, b), (v, 0.0)) for a, b, v in zip(x.tolist(), z.tolist(), vx.tolist())]
        got = env.contact_force_batch(np.array((x, z)), vx)
        assert np.array_equal(bits(got.T), bits(want))
        assert np.any(got[0, 7:] != 0.0) and np.all(got[0, 3:7] == 0.0)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_sense_batch(self, noise_sigma):
        # Every member's run draws one noise pair a tick from its own
        # generator with the sensor seed.
        rng = np.random.default_rng(45)
        sensor = SensorModel(noise_sigma, AxisForce(0.3, -0.7), seed=9)
        forces = rng.uniform(-50.0, 50.0, (20, 2, 8))
        batch_rng = np.random.default_rng(sensor.seed)
        got = np.array([sensor.sense_batch(f, batch_rng) for f in forces])
        for i in range(forces.shape[2]):
            member_rng = np.random.default_rng(sensor.seed)
            want = [sensor.sense(AxisForce(*f[:, i].tolist()), member_rng) for f in forces]
            assert np.array_equal(bits(got[:, :, i]), bits(want))
