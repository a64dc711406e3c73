"""External force-control loop: error formation, incremental PI and fuzzy-PI
laws, axis selection, and correction accumulation.

Axes are decoupled: each has its own gains, limits and state, all held by
one HybridForceController. Positive accumulated correction u moves the
end-effector in the direction that increases penetration into the contacted
surface; the scenario maps that onto world axes via its press-direction signs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, NamedTuple, Tuple

import numpy as np

from .fuzzy import FuzzyInference

AXES = ("x", "z")


class AxisForce(NamedTuple):
    """Planar force (or force setpoint) along the controlled x and z axes [N]."""

    x: float
    z: float


@dataclass(frozen=True)
class PIGains:
    """Incremental PI coefficients: du = kp*de + ki*e, both in [m/N]."""

    kind: ClassVar[str] = "pi"
    kp: float
    ki: float

    def __post_init__(self) -> None:
        if not (self.kp >= 0.0 and self.ki >= 0.0):
            raise ValueError("PI gains must be nonnegative")

    def step(self, e: float, de: float, limits: CorrectionLimits, engine: FuzzyInference) -> float:
        """Increment for error e and its change de, clamped to +-du_max."""
        return pi_step(self, e, de, limits.du_max)

    @staticmethod
    def step_columns(
        columns: np.ndarray, e: np.ndarray, de: np.ndarray, limits: CorrectionLimits, engine: FuzzyInference
    ) -> np.ndarray:
        """Column form of `step`, bit for bit: `columns` holds one member's
        kp and ki per column, e and de one value per member."""
        kp, ki = columns
        return clamp(kp * de + ki * e, -limits.du_max, limits.du_max)


@dataclass(frozen=True)
class FuzzyPIGains:
    """Fuzzy-PI scaling factors.

    ki [1/N] scales the error and kp [1/N] the error change onto the
    normalized universe before fuzzification; kx [m] scales the defuzzified
    output to a displacement increment.
    """

    kind: ClassVar[str] = "fuzzy"
    kp: float
    ki: float
    kx: float

    def __post_init__(self) -> None:
        if not (self.kp >= 0.0 and self.ki >= 0.0 and self.kx >= 0.0):
            raise ValueError("fuzzy-PI gains must be nonnegative")

    def step(self, e: float, de: float, limits: CorrectionLimits, engine: FuzzyInference) -> float:
        """Increment for error e and its change de; |du| <= kx, du_max unused."""
        return fuzzy_pi_step(self, e, de, engine)

    @staticmethod
    def step_columns(
        columns: np.ndarray, e: np.ndarray, de: np.ndarray, limits: CorrectionLimits, engine: FuzzyInference
    ) -> np.ndarray:
        """Column form of `step`, bit for bit: `columns` holds one member's
        kp, ki and kx per column, e and de one value per member."""
        kp, ki, kx = columns
        return kx * engine.outputs(ki * e, kp * de)


@dataclass(frozen=True)
class CorrectionLimits:
    """Clamp limits for the accumulated correction and the per-tick increment.

    du_max clamps the PI increment only. The fuzzy-PI increment is bounded
    by its output scale kx instead, since the defuzzified output lies in
    [-1, 1].
    """

    u_min: float = -0.02
    u_max: float = 0.02
    du_max: float = 5e-4

    def __post_init__(self) -> None:
        if not self.u_min <= self.u_max:
            raise ValueError("u_min must not exceed u_max")
        if not self.du_max >= 0.0:
            raise ValueError("du_max must be nonnegative")


class SelectionMatrix(NamedTuple):
    """Diagonal boolean decision maker: which axes receive force corrections."""

    x: bool
    z: bool

    @classmethod
    def identity(cls) -> "SelectionMatrix":
        return cls(True, True)

    @classmethod
    def none(cls) -> "SelectionMatrix":
        return cls(False, False)


def clamp(a: np.ndarray, lo, hi) -> np.ndarray:
    """Elementwise `min(max(a, lo), hi)` with Python's rules, in place: on a
    tie the first argument wins, so -0.0 against 0.0 keeps its sign, and NaN
    passes through. (np.maximum and np.minimum return the second on a tie.)
    Returns `a`, overwritten."""
    np.copyto(a, lo, where=lo > a)
    np.copyto(a, hi, where=hi < a)
    return a


def pi_step(gains: PIGains, e: float, de: float, du_max: float = float("inf")) -> float:
    """Incremental PI increment, clamped to +-du_max."""
    du = gains.kp * de + gains.ki * e
    return min(max(du, -du_max), du_max)


def fuzzy_pi_step(gains: FuzzyPIGains, e: float, de: float, engine: FuzzyInference) -> float:
    """Fuzzy-PI increment: scale, fuzzify, infer, defuzzify, scale back.

    The defuzzified output lies in [-1, 1], so |du| <= kx for any input.
    """
    return gains.kx * engine.output(gains.ki * e, gains.kp * de)


class HybridForceController:
    """The external force loop over both axes, gated by the selection matrix.

    Each axis has its gains (PIGains or FuzzyPIGains: the type selects the
    law), its limits, its accumulated correction u and its previous error
    (None before the first tick). step() gives the correction vector that
    the simulation adds to the nominal path point.
    """

    def __init__(self, gains: Dict[str, PIGains | FuzzyPIGains], limits: Dict[str, CorrectionLimits],
                 selection: SelectionMatrix, engine: FuzzyInference) -> None:
        self.gains_x, self.gains_z = gains["x"], gains["z"]
        self.limits_x, self.limits_z = limits["x"], limits["z"]
        self.selection, self.engine = selection, engine
        self.u_x = self.u_z = 0.0
        self.e_prev_x = self.e_prev_z = None

    def step(self, setpoint: AxisForce, measured: AxisForce) -> Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]:
        """One external-loop tick, axis x then axis z.

        Per axis: the error e = f_d - f_e and its change de (0 on the first
        tick); the law's increment du on a selected axis, 0 on a deselected
        one; and du added to u, clamped to [u_min, u_max], the clamp doubling
        as the anti-windup mechanism. Returns ((u_x, u_z), (du_x, du_z),
        (e_x, e_z)) where u is the accumulated correction after this tick.
        """
        e_x = setpoint.x - measured.x
        de_x = e_x - self.e_prev_x if self.e_prev_x is not None else 0.0
        self.e_prev_x = e_x
        du_x = self.gains_x.step(e_x, de_x, self.limits_x, self.engine) if self.selection.x else 0.0
        self.u_x = u_x = min(max(self.u_x + du_x, self.limits_x.u_min), self.limits_x.u_max)
        e_z = setpoint.z - measured.z
        de_z = e_z - self.e_prev_z if self.e_prev_z is not None else 0.0
        self.e_prev_z = e_z
        du_z = self.gains_z.step(e_z, de_z, self.limits_z, self.engine) if self.selection.z else 0.0
        self.u_z = u_z = min(max(self.u_z + du_z, self.limits_z.u_min), self.limits_z.u_max)
        return (u_x, u_z), (du_x, du_z), (e_x, e_z)
