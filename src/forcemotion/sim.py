"""Closed-loop simulation: nominal paths, scenarios, the fixed-step hybrid
force/motion loop, its lockstep batch over many gain sets, performance
metrics, controller comparison, and a grid-search gain tuner.

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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .control import (
    AXES,
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
    clamp,
)
from .fuzzy import FuzzyInference, RuleBase
from .plant import (
    Environment,
    PlanarArm,
    Pose,
    SensorModel,
    Unreachable,
    fk_batch,
    ik,
    ik_batch,
    outside_workspace,
    servo_step_batch,
)

AxisGains = Union[PIGains, FuzzyPIGains]

# Upper bound on duration / dt: run() allocates one trace row per tick, and
# run_batch one per tick and member.
_MAX_TICKS = 10**6
# run_batch splits its members into chunks whose (ticks, B, 14) float row
# arrays take at most this many bytes, or one member when a single member's
# rows take more.
_BATCH_ROW_BYTES = 64 * 2**20


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
        if any(t != t for t in times):
            raise ValueError(f"waypoint times must be numbers, got {times}")
        if any(not a < b for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")

    def pose_at(self, t: float) -> Pose:
        return Pose(*self.poses(np.array([t]))[0].tolist())

    def poses(self, t: np.ndarray) -> np.ndarray:
        """The (len(t), 2) poses at the times t: p0 + s * (p1 - p0) with
        s = (t - t0) / (t1 - t0) on the first segment [t0, t1] holding t,
        and the end waypoints beyond the ends (and at a NaN time, the last)."""
        times = np.array([tk for tk, _ in self.waypoints], dtype=float)
        points = np.array([pose for _, pose in self.waypoints], dtype=float)
        if len(times) == 1:
            return np.repeat(points, len(t), axis=0)
        end = np.clip(np.searchsorted(times, t), 1, len(times) - 1)
        t0, t1 = times[end - 1], times[end]
        p0, p1 = points[end - 1], points[end]
        s = (t - t0) / (t1 - t0)
        poses = p0 + s[:, None] * (p1 - p0)
        poses[t <= times[0]] = points[0]
        poses[~(t <= times[-1])] = points[-1]
        return poses


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
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.duration >= self.dt:
            raise ValueError(f"duration must be at least one tick, got {self.duration}")
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
            if not reach_lo - 1e-12 <= r <= reach_hi + 1e-12:
                raise ValueError(f"waypoint at t={t} is unreachable: {pose}")
        for i, obstacle in enumerate(self.environment.obstacles):
            # fk never puts the tool beyond |x| = l1 + l2.
            if not math.isfinite(self.environment.max_phase(i, reach_hi)):
                raise ValueError(
                    f"environment.obstacles[{i}].roughness_wavelength: "
                    f"{obstacle.roughness_wavelength} is so short that the profile's sine "
                    f"argument overflows within the arm's reach {reach_hi}"
                )

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
    hybrid = HybridForceController(
        scenario.gains, scenario.limits, scenario.selection, FuzzyInference(rules=scenario.rules)
    )
    sensor_rng = np.random.default_rng(scenario.sensor.seed)

    q1, q2 = ik(l1, l2, scenario.path.pose_at(0.0), elbow)
    arm = PlanarArm(l1, l2, q1, q2, arm_p.tau_servo, arm_p.qdot_max)

    alpha, dq_max = arm.servo_rates(dt)
    t = _tick_times(scenario)
    nominal = scenario.path.poses(t)
    rows = []
    u_x = u_z = 0.0
    prev = arm.fk()
    v = (0.0, 0.0)

    for k, (nom_x, nom_z) in enumerate(nominal.tolist()):
        try:
            q_des = ik(l1, l2, Pose(nom_x + px * u_x, nom_z + pz * u_z), elbow)
        except Unreachable as exc:
            raise WorkspaceViolation(k, k * dt, str(exc)) from exc
        arm.servo_step(q_des, alpha, dq_max)
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

    return _trace(arm, t, nominal, np.array(rows))


def _tick_times(scenario: Scenario) -> np.ndarray:
    """k * dt for the ticks k = 0 .. round(duration / dt), bit for bit."""
    return np.arange(int(round(scenario.duration / scenario.dt)) + 1) * scenario.dt


def _trace(arm: PlanarArm, t: np.ndarray, nominal: np.ndarray, logged: np.ndarray) -> Trace:
    """The Trace of a run that logged measured, e, du, u, pose, q, f_tool
    per tick: 14 values, (x, z) or (q1, q2) pairs."""
    # The torque the tool force exerts on the joints: J(q)^T (-f_tool).
    tau = arm.joint_torques(-logged[:, 12:14], logged[:, 10:12])
    return Trace(np.column_stack((t, logged[:, :8], nominal, logged[:, 8:12], tau)))


def run_batch(
    scenario: Scenario, gains_list: Sequence[AxisGains]
) -> Iterator[Union[Trace, WorkspaceViolation]]:
    """Simulate the scenario once per gain set, in lockstep loops.

    Member i uses `gains_list[i]` on both axes, and every member uses one
    control law. Its result, yielded in member order, is bit for bit what
    `run` gives for that scenario: the Trace, or the WorkspaceViolation it
    raises, which stops the member at its tick while the others run on. The
    members share the path, the environment, the sensor stream and the tick
    count, so one tick loop runs the plant, the sensor and the loop
    bookkeeping in numpy over a (2, B) array, one column per member. Each
    selected axis computes every live member's increment in one call to the
    law's `step_columns`.

    Members run in consecutive chunks, each with its own loop, so that a
    chunk's (ticks, B, 14) row array stays within _BATCH_ROW_BYTES; each
    chunk replays the sensor stream from its seed. A chunk's loop runs when
    the iterator reaches its first member, and the traces are built one at
    a time as the iterator is consumed. The loop runs under
    np.errstate(all="ignore"): a float that overflows or turns NaN does so
    silently, as run()'s Python floats do.
    """
    return _in_chunks(scenario, gains_list, 14, _lockstep)


def _in_chunks(scenario: Scenario, gains_list: Sequence[AxisGains], floats: int, lockstep) -> Iterator:
    """`lockstep(scenario, law, columns)` over the chunks of members whose
    rows, `floats` floats per member and tick, fit in _BATCH_ROW_BYTES."""
    for gains in gains_list[1:]:
        if type(gains) is not type(gains_list[0]):
            raise ValueError(
                f"a batch must use one control law, got {type(gains_list[0]).__name__} "
                f"and {type(gains).__name__}"
            )
    arm_p = scenario.arm
    start = scenario.path.pose_at(0.0)
    if not ik_batch(arm_p.l1, arm_p.l2, np.array([[start.x], [start.z]]), arm_p.elbow)[1].all():
        raise outside_workspace(arm_p.l1, arm_p.l2, start)
    # One row per gain, one column per member.
    columns = np.array([dataclasses.astuple(g) for g in gains_list], dtype=float).T
    chunk = max(1, _BATCH_ROW_BYTES // (len(_tick_times(scenario)) * floats * 8))
    return itertools.chain.from_iterable(
        lockstep(scenario, type(gains_list[0]), columns[:, i : i + chunk])
        for i in range(0, len(gains_list), chunk)
    )


def _lockstep(
    scenario: Scenario, law: type, columns: np.ndarray, force_axis: Optional[int] = None
) -> Iterator[Union[np.ndarray, Trace, WorkspaceViolation]]:
    """run_batch's tick loop over the members whose gains are the columns.
    A member's result is its WorkspaceViolation or else its Trace, or with a
    `force_axis` (an index into AXES) its (ticks,) measured force on it."""
    arm_p = scenario.arm
    l1, l2, elbow = arm_p.l1, arm_p.l2, arm_p.elbow
    press = np.array(scenario.press_direction, dtype=float)[:, None]
    dt = scenario.dt
    setpoint = np.array(scenario.setpoint, dtype=float)[:, None]
    laws = [(j, scenario.limits[axis]) for j, axis in enumerate(AXES) if scenario.selection[j]]
    step_columns = law.step_columns
    u_min = np.array([[scenario.limits[a].u_min] for a in AXES])
    u_max = np.array([[scenario.limits[a].u_max] for a in AXES])
    contact_force = scenario.environment.contact_force_batch
    sense = scenario.sensor.sense_batch
    engine = FuzzyInference(rules=scenario.rules)
    sensor_rng = np.random.default_rng(scenario.sensor.seed)
    arm = PlanarArm(l1, l2, tau_servo=arm_p.tau_servo, qdot_max=arm_p.qdot_max)
    alpha, dq_max = arm.servo_rates(dt)

    n = columns.shape[1]
    t = _tick_times(scenario)
    nominal = scenario.path.poses(t)
    q = np.repeat(ik_batch(l1, l2, nominal[:1].T, elbow)[0], n, axis=1)
    # Per tick and member, the 14 logged values of run()'s rows, or the force.
    rows = np.zeros((len(t), n) if force_axis is not None else (len(t), n, 14))
    failures: List[Optional[WorkspaceViolation]] = [None] * n
    # The live members: all of them, then their indices once one has left
    # the workspace.
    live: Union[slice, np.ndarray] = slice(None)
    u = np.zeros((2, n))
    e_prev = np.zeros((2, n))
    prev = fk_batch(l1, l2, q)
    vx = np.zeros(n)

    with np.errstate(all="ignore"):
        for k, nom in enumerate(nominal[:, :, None]):
            target = nom + press * u
            q_des, reachable = ik_batch(l1, l2, target, elbow)
            if not reachable.all():
                for i in np.flatnonzero(~reachable).tolist():
                    if failures[i] is None:
                        cause = str(outside_workspace(l1, l2, Pose(*target[:, i].tolist())))
                        failures[i] = WorkspaceViolation(k, k * dt, cause)
                live = np.array([i for i, f in enumerate(failures) if f is None], dtype=int)
                if not len(live):
                    break
            q = servo_step_batch(q, q_des, alpha, dq_max)
            pose = fk_batch(l1, l2, q)
            if k > 0:
                vx = (pose[0] - prev[0]) / dt
            f_tool = contact_force(pose, vx)
            measured = -press * sense(f_tool, sensor_rng)
            e = setpoint - measured
            de = e - e_prev if k > 0 else np.zeros((2, n))
            du = np.zeros((2, n))
            for j, limits in laws:
                du[j, live] = step_columns(columns[:, live], e[j, live], de[j, live], limits, engine)
            rows[k] = (
                measured[force_axis] if force_axis is not None
                else np.concatenate((measured, e, du, u, pose, q, f_tool)).T
            )
            u = clamp(u + du, u_min, u_max)
            e_prev = e
            prev = pose

    def result(i: int) -> Union[np.ndarray, Trace, WorkspaceViolation]:
        if failures[i] is not None:
            return failures[i]
        return rows[:, i] if force_axis is not None else _trace(arm, t, nominal, rows[:, i])

    return map(result, range(n))


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
    t, f = trace.column("t"), trace.column(f"f_{axis}")
    return _metrics(t, f, axis, setpoint, band_pct, zero_band_abs, contact_threshold)


def _metrics(t: np.ndarray, f: np.ndarray, axis: str, setpoint: float, band_pct: float = 0.05,
             zero_band_abs: float = 1.0, contact_threshold: float = 0.1) -> Metrics:
    """compute_metrics of the force f on `axis` at the times t."""
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

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class TuneEntry:
    gains: Dict[str, float]
    objective: float
    overshoot_pct: Optional[float]
    settling_time: Optional[float]
    itae: Optional[float]
    settled: bool
    failure: Optional[str]


def tune(
    scenario: Scenario,
    grid: Dict[str, Sequence[float]],
    weights: ObjectiveWeights = ObjectiveWeights(),
    axis: str = "z",
    band_pct: float = 0.05,
) -> Tuple[TuneEntry, List[TuneEntry]]:
    """Exhaustive grid search over gain combinations, smallest objective wins.

    The grid holds one list of distinct values per field of the gains type.
    Every grid point is simulated by `run_batch`'s lockstep loop, bit for
    bit what `run` gives for it, logging only the scored force, and scored
    as soon as its chunk's loop ends.
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
    if any(len(set(grid[n])) < len(grid[n]) for n in names):
        raise ValueError(f"duplicate values in tuner grid: {grid}")
    setpoint = getattr(scenario.setpoint, axis)
    t = _tick_times(scenario)

    combos = list(itertools.product(*(sorted(grid[n]) for n in names)))
    gains_list = [law(**dict(zip(names, combo))) for combo in combos]
    j = AXES.index(axis)
    forces = _in_chunks(scenario, gains_list, 1, lambda s, law, cols: _lockstep(s, law, cols, j))
    entries: List[TuneEntry] = []
    for combo, result in zip(combos, forces):
        gains_dict = dict(zip(names, (float(v) for v in combo)))
        try:
            if isinstance(result, WorkspaceViolation):
                raise result
            m = _metrics(t, result, axis, setpoint, band_pct)
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
