"""External force-control loop: error formation, incremental PI and fuzzy-PI
laws, axis selection, and correction accumulation.

Axes are decoupled: each controlled axis owns one scalar controller and one
mutable state. Positive accumulated correction u moves the end-effector in
the direction that increases penetration into the contacted surface; the
scenario maps that onto world axes via its press-direction signs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, NamedTuple, Tuple

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


@dataclass
class ControllerState:
    """Mutable per-axis loop state: accumulated correction and previous error."""

    u_accum: float = 0.0
    e_prev: float = 0.0
    initialized: bool = False


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


def pi_step(gains: PIGains, e: float, de: float, du_max: float = float("inf")) -> float:
    """Incremental PI increment, clamped to +-du_max."""
    du = gains.kp * de + gains.ki * e
    return min(max(du, -du_max), du_max)


def fuzzy_pi_step(gains: FuzzyPIGains, e: float, de: float, engine: FuzzyInference) -> float:
    """Fuzzy-PI increment: scale, fuzzify, infer, defuzzify, scale back.

    The defuzzified output lies in [-1, 1], so |du| <= kx for any input.
    """
    return gains.kx * engine.output(gains.ki * e, gains.kp * de)


@dataclass
class AxisController:
    """One scalar force controller with its state and limits; the gains type
    (PIGains or FuzzyPIGains) selects the control law."""

    gains: PIGains | FuzzyPIGains
    limits: CorrectionLimits = CorrectionLimits()
    engine: FuzzyInference = field(default_factory=FuzzyInference)
    state: ControllerState = field(default_factory=ControllerState)

    def step(self, f_d: float, f_e: float, selected: bool = True) -> Tuple[float, float, float]:
        """One tick: error e = f_d - f_e and its change de (0 on the first
        call), the law's increment du (0 when deselected), and du added to
        the correction, clamped to [u_min, u_max]; the clamp doubles as the
        anti-windup mechanism. Returns (u, du, e)."""
        state = self.state
        e = f_d - f_e
        de = e - state.e_prev if state.initialized else 0.0
        state.e_prev = e
        state.initialized = True
        du = self.gains.step(e, de, self.limits, self.engine) if selected else 0.0
        state.u_accum = min(max(state.u_accum + du, self.limits.u_min), self.limits.u_max)
        return state.u_accum, du, e


@dataclass
class HybridForceController:
    """Per-axis controllers composed with the selection matrix.

    step() produces the accumulated Cartesian correction vector that the
    simulation adds to the nominal path point; on deselected axes the
    correction never changes.
    """

    controllers: Dict[str, AxisController]
    selection: SelectionMatrix

    def __post_init__(self) -> None:
        missing = [a for a in AXES if a not in self.controllers]
        if missing:
            raise ValueError(f"missing axis controllers: {missing}")

    def step(self, setpoint: AxisForce, measured: AxisForce) -> Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]:
        """One external-loop tick.

        Every axis records its error; only selected axes evaluate their law,
        and a deselected axis gets du = 0, so its correction never changes.
        Returns ((u_x, u_z), (du_x, du_z), (e_x, e_z)) where u is the
        accumulated correction after this tick.
        """
        u_x, du_x, e_x = self.controllers["x"].step(setpoint.x, measured.x, self.selection.x)
        u_z, du_z, e_z = self.controllers["z"].step(setpoint.z, measured.z, self.selection.z)
        return (u_x, u_z), (du_x, du_z), (e_x, e_z)
