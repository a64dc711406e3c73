"""Closed-loop simulation: nominal paths, scenarios, the fixed-step hybrid
force/motion loop, performance metrics, controller comparison, and a
grid-search gain tuner.

Per tick the loop (1) takes the nominal pose, (2) offsets it by the
accumulated correction mapped through the press-direction signs, (3) solves
inverse kinematics, (4) steps the joint servo, (5) evaluates contact forces
at the actual pose, (6) senses them, and (7) runs the external force loop to
update the correction for the next tick. The nominal poses are interpolated
before the loop and the joint torques computed after it.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .control import (
    AXES,
    AxisController,
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
)
from .fuzzy import FuzzyInference, RuleBase
from .plant import Environment, PlanarArm, Pose, SensorModel, Unreachable, ik

AxisGains = Union[PIGains, FuzzyPIGains]

# Upper bound on duration / dt: run() allocates one trace row per tick.
_MAX_TICKS = 10**6


class WorkspaceViolation(Exception):
    """The commanded pose left the arm workspace; the run was aborted."""

    def __init__(self, tick: int, t: float, cause: str):
        super().__init__(f"tick {tick} (t={t:.3f} s): {cause}")
        self.tick = tick
        self.t = t
        self.cause = cause


class NoContact(Exception):
    """The trace never registered contact on the requested axis."""


class AllRunsFailed(Exception):
    """Every tuner grid point aborted or never made contact."""


@dataclass(frozen=True)
class NominalPath:
    """Time-stamped waypoints with linear interpolation and end holding."""

    waypoints: Tuple[Tuple[float, Pose], ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("path needs at least one waypoint")
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")

    def pose_at(self, t: float) -> Pose:
        points = self.waypoints
        if t <= points[0][0]:
            return points[0][1]
        for (t0, p0), (t1, p1) in zip(points, points[1:]):
            if t <= t1:
                s = (t - t0) / (t1 - t0)
                return Pose(p0.x + s * (p1.x - p0.x), p0.z + s * (p1.z - p0.z))
        return points[-1][1]


class PressDirection(NamedTuple):
    """World-frame direction (+1/-1 per axis) in which positive correction u
    presses further into the contacted surface."""

    x: int = 1
    z: int = -1


@dataclass(frozen=True)
class ArmParams:
    l1: float = 0.5
    l2: float = 0.5
    tau_servo: float = 0.04
    qdot_max: float = 2.0
    elbow: str = "down"

    def __post_init__(self) -> None:
        # Reject what PlanarArm rejects here, not when run() builds the arm.
        PlanarArm(self.l1, self.l2, tau_servo=self.tau_servo, qdot_max=self.qdot_max)


@dataclass
class Scenario:
    """Complete, self-contained experiment definition. Runs are a pure
    function of this object, seeds included."""

    name: str
    setpoint: AxisForce
    path: NominalPath
    environment: Environment
    gains: Dict[str, AxisGains]
    selection: SelectionMatrix = SelectionMatrix.identity()
    press_direction: PressDirection = PressDirection()
    limits: Dict[str, CorrectionLimits] = field(
        default_factory=lambda: {a: CorrectionLimits() for a in AXES}
    )
    arm: ArmParams = ArmParams()
    sensor: SensorModel = field(default_factory=SensorModel)
    rules: RuleBase = field(default_factory=RuleBase.default)
    dt: float = 0.01
    duration: float = 3.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one tick")
        if not self.duration / self.dt <= _MAX_TICKS:
            raise ValueError(
                f"duration / dt: expected at most {_MAX_TICKS} ticks, got "
                f"duration {self.duration} / dt {self.dt} = {self.duration / self.dt:.6g}"
            )
        for axis in AXES:
            if axis not in self.gains:
                raise ValueError(f"missing gains for axis {axis}")
            if axis not in self.limits:
                raise ValueError(f"missing limits for axis {axis}")
        law, law_z = type(self.gains["x"]), type(self.gains["z"])
        if law is not law_z:
            raise ValueError(
                f"both axes must use one control law, got {law.__name__} and {law_z.__name__}"
            )
        if law not in (PIGains, FuzzyPIGains):
            raise ValueError(f"unknown gains type {law.__name__}")
        reach_hi = self.arm.l1 + self.arm.l2
        reach_lo = abs(self.arm.l1 - self.arm.l2)
        for t, pose in self.path.waypoints:
            r = math.hypot(pose.x, pose.z)
            if r > reach_hi + 1e-12 or r < reach_lo - 1e-12:
                raise ValueError(f"waypoint at t={t} is unreachable: {pose}")

    @property
    def controller_kind(self) -> str:
        """The control law, "pi" or "fuzzy", as its gains type names it."""
        return self.gains["x"].kind


TRACE_COLUMNS = (
    "t",
    "f_x",
    "f_z",
    "e_x",
    "e_z",
    "du_x",
    "du_z",
    "u_x",
    "u_z",
    "nom_x",
    "nom_z",
    "act_x",
    "act_z",
    "q1",
    "q2",
    "tau1",
    "tau2",
)


@dataclass
class Trace:
    """Per-tick log. Row k holds the forces/errors seen at tick k, the
    increment computed there, and the correction u that shaped tick k's
    commanded pose (u updates take effect on the next tick)."""

    values: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.values[:, TRACE_COLUMNS.index(name)]

    def __len__(self) -> int:
        return self.values.shape[0]


def run(scenario: Scenario) -> Trace:
    """Simulate the scenario tick by tick; returns the full trace.

    The loop carries only the joint angles (in the arm), the correction u,
    the controller state and the previous pose. Time, the nominal poses and
    the joint torques depend on nothing the loop feeds back, so they are
    computed for the whole trace outside it.

    Raises WorkspaceViolation when a commanded pose cannot be reached.
    """
    arm_p = scenario.arm
    l1, l2, elbow = arm_p.l1, arm_p.l2, arm_p.elbow
    px, pz = scenario.press_direction
    dt = scenario.dt
    setpoint = scenario.setpoint
    contact_force = scenario.environment.contact_force
    sense = scenario.sensor.sense
    engine = FuzzyInference(rules=scenario.rules)
    hybrid = HybridForceController(
        {a: AxisController(scenario.gains[a], scenario.limits[a], engine) for a in AXES},
        scenario.selection,
    )
    sensor_rng = np.random.default_rng(scenario.sensor.seed)

    q1, q2 = ik(l1, l2, scenario.path.pose_at(0.0), elbow)
    arm = PlanarArm(l1, l2, q1, q2, arm_p.tau_servo, arm_p.qdot_max)

    n_ticks = int(round(scenario.duration / dt)) + 1
    # arange(N) * dt is k * dt bit for bit.
    t = np.arange(n_ticks) * dt
    nominal = [scenario.path.pose_at(tk) for tk in t.tolist()]
    rows = []
    u_x = u_z = 0.0
    prev = arm.fk()
    v = (0.0, 0.0)

    for k, (nom_x, nom_z) in enumerate(nominal):
        try:
            q_des = ik(l1, l2, Pose(nom_x + px * u_x, nom_z + pz * u_z), elbow)
        except Unreachable as exc:
            raise WorkspaceViolation(k, k * dt, str(exc)) from exc
        arm.servo_step(q_des, dt)
        pose = arm.fk()
        if k > 0:
            v = ((pose.x - prev.x) / dt, (pose.z - prev.z) / dt)
        f_tool = contact_force(pose, v)
        sensed = sense(f_tool, sensor_rng)
        # The controller regulates the force pressed onto the environment:
        # project the sensed tool force onto the press directions.
        measured = AxisForce(-px * sensed.x, -pz * sensed.z)
        u_next, du, e = hybrid.step(setpoint, measured)
        rows.append((*measured, *e, *du, u_x, u_z, *pose, arm.q1, arm.q2, *f_tool))
        u_x, u_z = u_next
        prev = pose

    logged = np.array(rows)
    # The torque the tool force exerts on the joints: J(q)^T (-f_tool).
    tau = arm.joint_torques(-logged[:, 12:14], logged[:, 10:12])
    return Trace(np.column_stack((t, logged[:, :8], nominal, logged[:, 8:12], tau)))


@dataclass(frozen=True)
class Metrics:
    """Post-contact response summary for one axis."""

    overshoot_pct: float
    settling_time: Optional[float]
    settled: bool
    steady_state_rms: float
    max_force: float
    itae: float
    first_contact_time: float


def compute_metrics(
    trace: Trace,
    axis: str,
    setpoint: float,
    band_pct: float = 0.05,
    zero_band_abs: float = 1.0,
    contact_threshold: float = 0.1,
) -> Metrics:
    """Overshoot, settling, steady-state RMS, peak force, and ITAE.

    Overshoot and settling are measured from first contact (|f| above the
    contact threshold). For a zero setpoint the settling band is the absolute
    `zero_band_abs` and overshoot is the peak excess over that band,
    expressed as a percentage of it.
    """
    f = trace.column(f"f_{axis}")
    t = trace.column("t")
    in_contact = np.abs(f) > contact_threshold
    if not in_contact.any():
        raise NoContact(f"no contact on axis {axis} (threshold {contact_threshold} N)")
    first = int(np.argmax(in_contact))
    post = f[first:]

    if setpoint != 0.0:
        band = band_pct * abs(setpoint)
        overshoot = max(0.0, (float(post.max()) - setpoint) / abs(setpoint) * 100.0)
    else:
        band = zero_band_abs
        overshoot = max(0.0, (float(np.abs(post).max()) - band) / band * 100.0)

    outside = np.abs(post - setpoint) > band
    if outside.any():
        last_bad = int(np.where(outside)[0][-1])
        settle_idx = last_bad + 1
    else:
        settle_idx = 0
    settled = settle_idx < len(post)
    settling_time = float(t[first + settle_idx]) if settled else None

    tail = f[int(round(0.8 * (len(f) - 1))):]
    dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
    # Forces beyond float range once squared or summed give inf, silently.
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean((tail - setpoint) ** 2)))
        itae = float(np.sum(t * np.abs(setpoint - f)) * dt)
    return Metrics(
        overshoot_pct=overshoot,
        settling_time=settling_time,
        settled=settled,
        steady_state_rms=rms,
        max_force=float(np.abs(f).max()),
        itae=itae,
        first_contact_time=float(t[first]),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side metrics for two runs of one scenario; deltas are b - a.

    Gains travel with the report so results stay auditable. No winner is
    declared: interpretation is left to the reader.
    """

    label_a: str
    label_b: str
    metrics_a: Metrics
    metrics_b: Metrics
    deltas: Dict[str, Optional[float]]
    gains_a: Dict[str, Dict[str, float]]
    gains_b: Dict[str, Dict[str, float]]


def _gains_as_dict(gains: Dict[str, AxisGains]) -> Dict[str, Dict[str, float]]:
    return {axis: dataclasses.asdict(g) for axis, g in gains.items()}


def compare(
    trace_a: Trace,
    trace_b: Trace,
    axis: str,
    setpoint: float,
    band_pct: float = 0.05,
    label_a: str = "a",
    label_b: str = "b",
    gains_a: Optional[Dict[str, AxisGains]] = None,
    gains_b: Optional[Dict[str, AxisGains]] = None,
) -> ComparisonReport:
    m_a = compute_metrics(trace_a, axis, setpoint, band_pct)
    m_b = compute_metrics(trace_b, axis, setpoint, band_pct)
    deltas: Dict[str, Optional[float]] = {}
    for name in ("overshoot_pct", "settling_time", "steady_state_rms", "max_force", "itae"):
        va = getattr(m_a, name)
        vb = getattr(m_b, name)
        deltas[name] = None if va is None or vb is None else vb - va
    return ComparisonReport(
        label_a,
        label_b,
        m_a,
        m_b,
        deltas,
        _gains_as_dict(gains_a) if gains_a else {},
        _gains_as_dict(gains_b) if gains_b else {},
    )


@dataclass(frozen=True)
class ObjectiveWeights:
    """Tuner objective J = itae + overshoot*overshoot_pct + not_settled penalty."""

    overshoot: float = 10.0
    not_settled: float = 1000.0


@dataclass(frozen=True)
class TuneEntry:
    gains: Dict[str, float]
    objective: float
    overshoot_pct: Optional[float]
    settling_time: Optional[float]
    itae: Optional[float]
    settled: bool
    failure: Optional[str]


def _with_gains(scenario: Scenario, names: Sequence[str], values: Sequence[float]) -> Scenario:
    gains = type(scenario.gains["x"])(**dict(zip(names, values)))
    return dataclasses.replace(scenario, gains={axis: gains for axis in AXES})


def tune(
    scenario: Scenario,
    grid: Dict[str, Sequence[float]],
    weights: ObjectiveWeights = ObjectiveWeights(),
    axis: str = "z",
    band_pct: float = 0.05,
) -> Tuple[TuneEntry, List[TuneEntry]]:
    """Exhaustive grid search over gain combinations, smallest objective wins.

    The grid holds one value list per field of the scenario's gains type.
    Ties break on lower overshoot, then on the lexicographic order of the
    gain tuple (in field order), so the winner does not depend on
    enumeration order. Returns (best, leaderboard); the leaderboard carries
    every evaluated point.
    """
    if not grid:
        raise ValueError("empty tuner grid")
    law = type(scenario.gains["x"])
    names = [f.name for f in dataclasses.fields(law)]
    extra = set(grid) - set(names)
    if extra:
        raise ValueError(f"unknown gain names in grid: {sorted(extra)}")
    if len(grid) != len(names):
        raise ValueError(f"{law.kind} tuner grid must define {names}, got {sorted(grid)}")
    setpoint = getattr(scenario.setpoint, axis)

    entries: List[TuneEntry] = []
    for combo in itertools.product(*(sorted(grid[n]) for n in names)):
        candidate = _with_gains(scenario, names, combo)
        gains_dict = dict(zip(names, (float(v) for v in combo)))
        try:
            trace = run(candidate)
            m = compute_metrics(trace, axis, setpoint, band_pct)
        except (WorkspaceViolation, NoContact) as exc:
            entries.append(
                TuneEntry(gains_dict, math.inf, None, None, None, False, str(exc))
            )
            continue
        objective = m.itae + weights.overshoot * m.overshoot_pct
        if not m.settled:
            objective += weights.not_settled
        entries.append(
            TuneEntry(
                gains_dict,
                objective,
                m.overshoot_pct,
                m.settling_time,
                m.itae,
                m.settled,
                None,
            )
        )

    def sort_key(entry: TuneEntry):
        overshoot = entry.overshoot_pct if entry.overshoot_pct is not None else math.inf
        gains_tuple = tuple(entry.gains[n] for n in names)
        return (entry.objective, overshoot, gains_tuple)

    leaderboard = sorted(entries, key=sort_key)
    best = leaderboard[0]
    if best.failure is not None:
        raise AllRunsFailed("every grid point failed to produce a scored run")
    return best, leaderboard
