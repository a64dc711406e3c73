import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcemotion import control
from forcemotion.config import preset_scenario
from forcemotion.control import (
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
    clamp,
    fuzzy_pi_step,
    pi_step,
)
from forcemotion.fuzzy import RuleBase
from forcemotion.sim import run

import oracles

ENGINE = RuleBase.default()


class TestGainsValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PIGains(kp=-1.0, ki=0.0)
        with pytest.raises(ValueError):
            FuzzyPIGains(kp=0.1, ki=0.1, kx=-1e-3)
        with pytest.raises(ValueError):
            CorrectionLimits(u_min=0.01, u_max=-0.01)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: PIGains(kp=v, ki=0.0),
            lambda v: PIGains(kp=0.0, ki=v),
            lambda v: FuzzyPIGains(kp=v, ki=0.1, kx=1e-3),
            lambda v: FuzzyPIGains(kp=0.1, ki=v, kx=1e-3),
            lambda v: FuzzyPIGains(kp=0.1, ki=0.1, kx=v),
            lambda v: CorrectionLimits(u_min=v),
            lambda v: CorrectionLimits(u_max=v),
            lambda v: CorrectionLimits(du_max=v),
        ],
        ids=["pi.kp", "pi.ki", "fuzzy.kp", "fuzzy.ki", "fuzzy.kx", "u_min", "u_max", "du_max"],
    )
    def test_nan_rejected(self, make):
        with pytest.raises(ValueError):
            make(math.nan)


UNCLAMPED = CorrectionLimits(-math.inf, math.inf, math.inf)
ORIGIN = AxisForce(0.0, 0.0)


def _hybrid(gains, limits=CorrectionLimits(), selection=SelectionMatrix.identity()):
    """The controller with `gains` and `limits` on both axes."""
    return HybridForceController({"x": gains, "z": gains}, {"x": limits, "z": limits}, selection, ENGINE)


class TestErrorStep:
    """The error formation inside HybridForceController.step, seen through
    an unclamped PI law with kp = 1 and ki = 0, whose increment is de."""

    def test_on_setpoint(self):
        hybrid = _hybrid(PIGains(1.0, 0.0), UNCLAMPED)
        hybrid.e_prev_x = hybrid.e_prev_z = 0.0
        _, de, e = hybrid.step(AxisForce(30.0, -30.0), AxisForce(30.0, -30.0))
        assert (e, de) == ((0.0, 0.0), (0.0, 0.0))

    def test_direct_evaluation(self):
        hybrid = _hybrid(PIGains(1.0, 0.0), UNCLAMPED)
        hybrid.e_prev_x, hybrid.e_prev_z = 3.0, -1.0
        _, de, e = hybrid.step(AxisForce(30.0, 30.0), AxisForce(25.0, 35.0))
        assert (e, de) == ((5.0, -5.0), (2.0, -4.0))
        assert (hybrid.e_prev_x, hybrid.e_prev_z) == e

    def test_first_call_has_zero_change(self):
        hybrid = _hybrid(PIGains(1.0, 0.0), UNCLAMPED)
        assert (hybrid.e_prev_x, hybrid.e_prev_z) == (None, None)
        _, de, e = hybrid.step(AxisForce(10.0, -4.0), ORIGIN)
        assert (e, de) == ((10.0, -4.0), (0.0, 0.0))
        assert (hybrid.e_prev_x, hybrid.e_prev_z) == e
        _, de, _ = hybrid.step(AxisForce(12.0, -4.0), ORIGIN)
        assert de == (2.0, 0.0)


class TestPIStep:
    def test_zero_error(self):
        assert pi_step(PIGains(1e-4, 5e-5), 0.0, 0.0) == 0.0

    def test_linear_formula(self):
        assert pi_step(PIGains(1e-4, 5e-5), e=2.0, de=1.0) == pytest.approx(2e-4)

    def test_saturation(self):
        assert pi_step(PIGains(0.0, 1e-2), e=100.0, de=0.0, du_max=1e-3) == 1e-3
        assert pi_step(PIGains(0.0, 1e-2), e=-100.0, de=0.0, du_max=1e-3) == -1e-3


class TestFuzzyPIStep:
    def test_zero_fixed_point(self):
        gains = FuzzyPIGains(kp=0.1, ki=1 / 30, kx=1e-3)
        assert fuzzy_pi_step(gains, 0.0, 0.0, ENGINE) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_corner_equals_kx_times_centroid(self):
        # Single rule fires at full strength; expected value from the CoA oracle.
        gains = FuzzyPIGains(kp=1.0, ki=1.0, kx=1e-3)
        expected = 1e-3 * oracles.riemann_coa({6: 1.0})
        assert fuzzy_pi_step(gains, 5.0, 5.0, ENGINE) == pytest.approx(expected, abs=1e-8)

    def test_antisymmetry_on_grid(self):
        gains = FuzzyPIGains(kp=0.1, ki=1 / 30, kx=1e-3)
        for e in np.linspace(-40.0, 40.0, 17):
            for de in np.linspace(-15.0, 15.0, 9):
                plus = fuzzy_pi_step(gains, float(e), float(de), ENGINE)
                minus = fuzzy_pi_step(gains, float(-e), float(-de), ENGINE)
                assert plus == pytest.approx(-minus, abs=1e-9)

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_kx(self, e, de):
        gains = FuzzyPIGains(kp=0.1, ki=1 / 30, kx=2e-3)
        assert abs(fuzzy_pi_step(gains, e, de, ENGINE)) <= gains.kx

    def test_sign_correct_in_monotone_region(self):
        gains = FuzzyPIGains(kp=0.1, ki=1 / 30, kx=1e-3)
        for e_norm in np.linspace(1 / 3, 1.5, 8):
            for de_norm in np.linspace(0.0, 1.5, 8):
                e = e_norm / gains.ki
                de = de_norm / gains.kp
                assert fuzzy_pi_step(gains, e, de, ENGINE) >= 0.0


class TestSelection:
    """The selection matrix decides which axes evaluate their law: a
    deselected axis records its error but gets du = 0 and keeps u."""

    GAINS = PIGains(kp=1e-4, ki=5e-5)
    SETPOINT = AxisForce(2.0, 4.0)
    MEASURED = AxisForce(0.0, 0.0)

    def _step(self, selection, setpoint=SETPOINT):
        return _hybrid(self.GAINS, selection=selection).step(setpoint, self.MEASURED)

    def test_identity(self):
        u, du, e = self._step(SelectionMatrix.identity())
        assert du == (pi_step(self.GAINS, 2.0, 0.0, 5e-4), pi_step(self.GAINS, 4.0, 0.0, 5e-4))
        assert u == du
        assert e == (2.0, 4.0)

    def test_masked_axis(self):
        u, du, e = self._step(SelectionMatrix(False, True))
        assert du == (0.0, pi_step(self.GAINS, 4.0, 0.0, 5e-4))
        assert u == du
        assert e == (2.0, 4.0)

    def test_pure_motion_control(self):
        u, du, e = self._step(SelectionMatrix(False, False))
        assert (u, du) == ((0.0, 0.0), (0.0, 0.0))
        assert e == (2.0, 4.0)

    @given(
        st.booleans(),
        st.booleans(),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, sx, sz, fx, fz):
        # Masking the identity's increments with the selection gives the
        # selected step's increments, and masking those again changes nothing.
        setpoint = AxisForce(fx, fz)
        _, du_all, e_all = self._step(SelectionMatrix.identity(), setpoint)
        u, du, e = self._step(SelectionMatrix(sx, sz), setpoint)
        masked = tuple(d if keep else 0.0 for d, keep in zip(du_all, (sx, sz)))
        assert du == masked
        assert tuple(d if keep else 0.0 for d, keep in zip(du, (sx, sz))) == du
        assert u == du
        assert e == e_all

    def test_deselected_axis_evaluates_no_law(self, monkeypatch):
        # exp2 regulates z only; its x axis must not call the fuzzy law.
        calls = []

        def counting(gains, e, de, engine):
            calls.append(e)
            return fuzzy_pi_step(gains, e, de, engine)

        monkeypatch.setattr(control, "fuzzy_pi_step", counting)
        scenario = preset_scenario("exp2", "fuzzy")
        assert scenario.selection == SelectionMatrix(False, True)
        # A nonzero x setpoint makes the recorded x error visible; a
        # deselected axis's setpoint does not steer the arm.
        scenario = dataclasses.replace(scenario, setpoint=AxisForce(5.0, scenario.setpoint.z))
        trace = run(scenario)
        assert len(trace) == 301
        assert len(calls) == 301
        assert np.all(trace.column("du_x") == 0.0)
        assert np.all(trace.column("u_x") == 0.0)
        assert np.array_equal(trace.column("e_x"), 5.0 - trace.column("f_x"))
        assert calls == list(trace.column("e_z"))


class TestAccumulate:
    """The accumulation inside HybridForceController.step, seen through a
    PI law with kp = 0 and ki = 1, whose increment is the error du = f_d - 0."""

    @staticmethod
    def _step(u_accum, du, u_min, u_max):
        hybrid = _hybrid(PIGains(0.0, 1.0), CorrectionLimits(u_min, u_max, math.inf))
        hybrid.u_x = hybrid.u_z = u_accum
        u, _, _ = hybrid.step(AxisForce(du, du), ORIGIN)
        assert (hybrid.u_x, hybrid.u_z) == u
        assert u[0] == u[1]
        return u[0]

    def test_zero(self):
        assert self._step(0.0, 0.0, -0.02, 0.02) == 0.0

    def test_sum(self):
        assert self._step(1e-3, 5e-4, -0.02, 0.02) == pytest.approx(1.5e-3)

    def test_clamp_boundary(self):
        assert self._step(9.9e-3, 5e-4, -1e-2, 1e-2) == 1e-2
        assert self._step(-9.9e-3, -5e-4, -1e-2, 1e-2) == -1e-2

    def test_deselected_axis_keeps_u(self):
        hybrid = _hybrid(PIGains(0.0, 1.0), selection=SelectionMatrix(False, True))
        hybrid.u_x = hybrid.u_z = 1e-3
        assert hybrid.step(AxisForce(5.0, 5e-4), ORIGIN) == ((1e-3, 1.5e-3), (0.0, 5e-4), (5.0, 5e-4))

    @pytest.mark.parametrize("lo,hi", [(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (-0.5, 0.5)])
    def test_array_clamp_is_python_min_max(self, lo, hi):
        # Bit for bit, signed zeros and NaN included: the batch loop clamps u
        # and the servo step with it.
        values = [-0.0, 0.0, -1.0, 0.25, 1.0, math.inf, -math.inf, math.nan]
        want = np.array([min(max(v, lo), hi) for v in values])
        assert np.array_equal(clamp(np.array(values), lo, hi).view(np.uint64), want.view(np.uint64))


class TestHybridStep:
    def test_all_axes_deselected_keeps_u(self):
        hybrid = _hybrid(PIGains(1e-4, 5e-5), selection=SelectionMatrix(False, False))
        for _ in range(5):
            u, du, _ = hybrid.step(AxisForce(5.0, 10.0), AxisForce(0.0, 0.0))
            assert u == (0.0, 0.0)
            assert du == (0.0, 0.0)

    def test_zero_error_keeps_u(self):
        hybrid = _hybrid(PIGains(1e-4, 5e-5))
        for _ in range(5):
            u, _, e = hybrid.step(AxisForce(5.0, 10.0), AxisForce(5.0, 10.0))
            assert u == (0.0, 0.0)
            assert e == (0.0, 0.0)

    def test_constant_error_closed_form(self):
        # With de = 0 on the first sample, k steps of constant error e give
        # u = u0 + k*ki*e (no kp contribution after the first flat change).
        ki, e = 5e-5, 4.0
        hybrid = _hybrid(PIGains(1e-4, ki), UNCLAMPED)
        for k in range(1, 21):
            u, _, _ = hybrid.step(AxisForce(e, e), AxisForce(0.0, 0.0))
            assert u[0] == pytest.approx(k * ki * e, abs=1e-15)
            assert u[1] == pytest.approx(k * ki * e, abs=1e-15)

    def test_incremental_matches_position_form(self):
        # Telescoped equivalence of the incremental law with the discretized
        # position-form PI, on random error sequences with clamping disabled.
        rng = np.random.default_rng(77)
        kp, ki = 3.1e-4, 7.7e-5
        errors = rng.uniform(-10.0, 10.0, size=1000)
        expected = oracles.pi_closed_form(kp, ki, errors)
        hybrid = _hybrid(PIGains(kp, ki), UNCLAMPED)
        for k, e_k in enumerate(errors):
            u, _, _ = hybrid.step(AxisForce(float(e_k), float(e_k)), ORIGIN)
            assert u[0] == u[1] == pytest.approx(expected[k], abs=1e-12)

    def test_mixed_kind_controllers_per_axis(self):
        gains = {"x": PIGains(1e-4, 5e-5), "z": FuzzyPIGains(0.1, 1 / 30, 1e-3)}
        limits = {"x": CorrectionLimits(), "z": CorrectionLimits()}
        hybrid = HybridForceController(gains, limits, SelectionMatrix.identity(), ENGINE)
        u, du, _ = hybrid.step(AxisForce(2.0, 20.0), ORIGIN)
        assert du[0] == pytest.approx(5e-5 * 2.0)
        assert du[1] > 0.0
        assert u == du
