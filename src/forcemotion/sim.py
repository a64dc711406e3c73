"""Closed-loop simulation: nominal paths, scenarios, the fixed-step hybrid
force/motion loop, performance metrics, and a grid-search gain tuner that
runs its grid points in one lockstep loop.

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
    LAWS,
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    HybridForceController,
    PIGains,
    SelectionMatrix,
    clamp,
)
from .fuzzy import RuleBase
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
# tune one force per tick and grid point.
_MAX_TICKS = 10**6
# tune runs its grid points in chunks whose (ticks, B) logged forces take at
# most this many bytes, or one point when a single point's take more.
_CHUNK_BYTES = 64 * 2**20
# A force above this magnitude [N] is contact; a zero setpoint settles
# within this absolute band [N].
_CONTACT_N = 0.1
_ZERO_BAND_N = 1.0


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
    """No tuner grid point scored a finite objective: each aborted, never
    made contact or scored inf."""


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
    arm: PlanarArm = PlanarArm()
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
        # run() rounds duration / dt to whole ticks; the relative tolerance
        # lets 3.0 / 0.01 = 299.99999999999994 through.
        ticks = self.duration / self.dt
        if abs(ticks - round(ticks)) > 1e-9 * ticks:
            raise ValueError(
                f"duration: expected a whole number of ticks of dt = {self.dt}, got "
                f"{self.duration} / {self.dt} = {ticks:.10g}"
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
        if law not in LAWS.values():
            raise ValueError(f"unknown gains type {law.__name__}")
        arm = self.arm
        points = list(self.path.waypoints)
        if points[0][0] < 0.0:
            # run() starts the arm at the path's pose at t = 0, here between
            # two waypoints or at the last.
            points.append((None, self.path.pose_at(0.0)))
        for i, (t, pose) in enumerate(points):
            try:
                ik(arm.l1, arm.l2, pose, arm.elbow)
            except Unreachable:
                where = "path: the path's start at t=0.0" if t is None else f"path[{i}]: waypoint at t={t}"
                raise ValueError(f"{where} is unreachable: {pose}") from None
        reach_hi = arm.l1 + arm.l2
        for i, obstacle in enumerate(self.environment.obstacles):
            # fk never puts the tool beyond |x| = l1 + l2.
            if not math.isfinite(self.environment.max_phase(i, reach_hi)):
                raise ValueError(
                    f"environment.obstacles[{i}].roughness_wavelength: "
                    f"{obstacle.roughness_wavelength} is so short that the profile's sine "
                    f"argument overflows within the arm's reach {reach_hi}"
                )


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

    The loop carries only the joint angles q, the correction u, the
    controller state and the previous pose, as `_lockstep` carries its
    (2, B) q, u and e_prev. Time, the nominal poses and
    the joint torques depend on nothing the loop feeds back, so they are
    computed for the whole trace outside it.

    Raises WorkspaceViolation when a commanded pose cannot be reached.
    """
    arm = scenario.arm
    l1, l2, elbow = arm.l1, arm.l2, arm.elbow
    px, pz = scenario.press_direction
    dt = scenario.dt
    setpoint = scenario.setpoint
    contact_force = scenario.environment.contact_force
    sense = scenario.sensor.sense
    hybrid = HybridForceController(scenario.gains, scenario.limits, scenario.selection, scenario.rules)
    sensor_rng = np.random.default_rng(scenario.sensor.seed)
    alpha, dq_max = arm.servo_rates(dt)

    t = _tick_times(scenario)
    nominal = scenario.path.poses(t)
    q = ik(l1, l2, scenario.path.pose_at(0.0), elbow)
    rows = []
    u_x = u_z = 0.0
    prev = arm.fk(q)
    v = (0.0, 0.0)

    for k, (nom_x, nom_z) in enumerate(nominal.tolist()):
        try:
            q_des = ik(l1, l2, Pose(nom_x + px * u_x, nom_z + pz * u_z), elbow)
        except Unreachable as exc:
            raise WorkspaceViolation(k, k * dt, str(exc)) from exc
        q = arm.servo_step(q, q_des, alpha, dq_max)
        pose = arm.fk(q)
        if k > 0:
            v = ((pose.x - prev.x) / dt, (pose.z - prev.z) / dt)
        f_tool = contact_force(pose, v)
        sensed = sense(f_tool, sensor_rng)
        # The controller regulates the force pressed onto the environment:
        # project the sensed tool force onto the press directions.
        measured = AxisForce(-px * sensed.x, -pz * sensed.z)
        u_next, du, e = hybrid.step(setpoint, measured)
        rows.append((*measured, *e, *du, u_x, u_z, *pose, *q, *f_tool))
        u_x, u_z = u_next
        prev = pose

    logged = np.array(rows)
    # The torque the tool force exerts on the joints: J(q)^T (-f_tool).
    tau = arm.joint_torques(-logged[:, 12:14], logged[:, 10:12])
    return Trace(np.column_stack((t, logged[:, :8], nominal, logged[:, 8:12], tau)))


def _tick_times(scenario: Scenario) -> np.ndarray:
    """k * dt for the ticks k = 0 .. round(duration / dt), bit for bit."""
    return np.arange(int(round(scenario.duration / scenario.dt)) + 1) * scenario.dt


def _lockstep(
    scenario: Scenario, columns: np.ndarray, j: int
) -> Iterator[Union[np.ndarray, WorkspaceViolation]]:
    """`tune`'s tick loop. Each column of `columns` (one row per gain field)
    is a member that runs the scenario's law with those gains on both axes.
    A member's result is bit for bit what `run` gives for it: its (ticks,)
    measured force on the axis AXES[j], or the WorkspaceViolation that stops
    it at its tick while the others run on. The plant, the sensor and the
    bookkeeping run in numpy over (2, B) arrays, and each selected axis calls
    the law's `step_columns` once a tick. Overflow and NaN pass silently
    (np.errstate(all="ignore")), as they do in run()'s Python floats.
    """
    arm = scenario.arm
    l1, l2, elbow = arm.l1, arm.l2, arm.elbow
    press = np.array(scenario.press_direction, dtype=float)[:, None]
    dt = scenario.dt
    setpoint = np.array(scenario.setpoint, dtype=float)[:, None]
    laws = [(i, scenario.limits[axis]) for i, axis in enumerate(AXES) if scenario.selection[i]]
    step_columns = type(scenario.gains["x"]).step_columns
    u_min = np.array([[scenario.limits[a].u_min] for a in AXES])
    u_max = np.array([[scenario.limits[a].u_max] for a in AXES])
    contact_force = scenario.environment.contact_force_batch
    sense = scenario.sensor.sense_batch
    engine = scenario.rules
    sensor_rng = np.random.default_rng(scenario.sensor.seed)
    alpha, dq_max = arm.servo_rates(dt)

    n = columns.shape[1]
    t = _tick_times(scenario)
    nominal = scenario.path.poses(t)
    q = np.repeat(np.array(ik(l1, l2, scenario.path.pose_at(0.0), elbow))[:, None], n, axis=1)
    forces = np.zeros((len(t), n))
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
            for i, limits in laws:
                du[i, live] = step_columns(columns[:, live], e[i, live], de[i, live], limits, engine)
            forces[k] = measured[j]
            u = clamp(u + du, u_min, u_max)
            e_prev = e
            prev = pose

    return (forces[:, i] if failures[i] is None else failures[i] for i in range(n))


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


def compute_metrics(trace: Trace, axis: str, setpoint: float, band_pct: float = 0.05) -> Metrics:
    """Overshoot, settling, steady-state RMS, peak force, and ITAE.

    Overshoot and settling are measured from first contact (|f| above
    _CONTACT_N). Overshoot is the peak excess of the force beyond the
    setpoint, away from zero, as a percentage of |setpoint|, so a trace and
    its mirror (f and setpoint negated) read the same. For a zero setpoint
    the settling band is the absolute _ZERO_BAND_N and overshoot is the
    peak excess of |f| over that band, expressed as a percentage of it.
    """
    t, f = trace.column("t"), trace.column(f"f_{axis}")
    return _metrics(t, f, axis, setpoint, band_pct)


def _metrics(t: np.ndarray, f: np.ndarray, axis: str, setpoint: float, band_pct: float = 0.05) -> Metrics:
    """compute_metrics of the force f on `axis` at the times t."""
    in_contact = np.abs(f) > _CONTACT_N
    if not in_contact.any():
        raise NoContact(f"no contact on axis {axis} (threshold {_CONTACT_N} N)")
    first = int(np.argmax(in_contact))
    post = f[first:]

    if setpoint != 0.0:
        band = band_pct * abs(setpoint)
        peak = float((math.copysign(1.0, setpoint) * post).max())
        overshoot = max(0.0, (peak - abs(setpoint)) / abs(setpoint) * 100.0)
    else:
        band = _ZERO_BAND_N
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
    # Forces beyond float range once subtracted, squared or summed give inf,
    # silently. The ITAE weighs the error at t = 0 by 0, even an infinite one.
    with np.errstate(over="ignore", invalid="ignore"):
        rms = _scaled(lambda err: np.sqrt(np.mean(err**2)), tail - setpoint)
        itae = _scaled(lambda err: np.sum(np.where(t > 0.0, t * err, 0.0)) * dt, np.abs(setpoint - f))
    return Metrics(
        overshoot_pct=overshoot,
        settling_time=settling_time,
        settled=settled,
        steady_state_rms=rms,
        max_force=float(np.abs(f).max()),
        itae=itae,
        first_contact_time=float(t[first]),
    )


def _scaled(reduce, x: np.ndarray) -> float:
    """float(reduce(x)) for a `reduce` with reduce(c * x) = c * reduce(x).
    When that overflows although x is finite, x is scaled into range first."""
    value = float(reduce(x))
    if math.isfinite(value) or not np.isfinite(x).all():
        return value
    scale = float(np.abs(x).max())
    return scale * float(reduce(x / scale))


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


def check_grid(law: type, grid: Dict[str, Sequence[float]]) -> List[str]:
    """The field names of the gains type `law`, once the tuner grid is
    checked to hold one nonempty list of distinct, nonnegative values per
    field. A ValueError's message starts with the gain it names."""
    names = [f.name for f in dataclasses.fields(law)]
    for gain in [*grid, *names]:
        if gain not in names:
            raise ValueError(f"{gain}: unknown gain; the {law.kind} law has only the gains {names}")
        if gain not in grid:
            got = list(grid) or "an empty grid"
            raise ValueError(f"{gain}: missing; a {law.kind} tuner grid must define {names}, got {got}")
        values = grid[gain]
        if not len(values):
            raise ValueError(f"{gain}: empty value list in tuner grid")
        if len(set(values)) < len(values):
            raise ValueError(f"{gain}: expected distinct values, got duplicates in {list(values)}")
        if min(values) < 0:
            raise ValueError(f"{gain}: expected nonnegative gains, got {min(values)}")
    return names


def tune(
    scenario: Scenario,
    grid: Dict[str, Sequence[float]],
    weights: ObjectiveWeights = ObjectiveWeights(),
    axis: str = "z",
    band_pct: float = 0.05,
) -> Tuple[TuneEntry, List[TuneEntry]]:
    """Exhaustive grid search over gain combinations, smallest objective wins.

    The grid must pass `check_grid` for the scenario's law.
    Every grid point is simulated by the lockstep loop `_lockstep`, bit for
    bit what `run` gives for it with those gains on both axes, logging only
    the scored force. The points run in consecutive chunks, each with its own
    loop replaying the sensor stream, so that a chunk's forces stay within
    _CHUNK_BYTES; a point is scored as soon as its chunk's loop ends. A zero
    weight drops its term, so an infinite overshoot does not make it NaN.
    Ties break on lower overshoot, then on the lexicographic order of the
    gain tuple (in field order), so the winner does not depend on
    enumeration order. Returns (best, leaderboard); the leaderboard carries
    every evaluated point. Raises AllRunsFailed when no point scores a
    finite objective.
    """
    law = type(scenario.gains["x"])
    names = check_grid(law, grid)
    setpoint = getattr(scenario.setpoint, axis)
    t = _tick_times(scenario)

    combos = list(itertools.product(*(sorted(grid[n]) for n in names)))
    # One row per gain, one column per grid point, each checked by `law`.
    columns = np.array([dataclasses.astuple(law(**dict(zip(names, c)))) for c in combos], dtype=float).T
    j = AXES.index(axis)
    chunk = max(1, _CHUNK_BYTES // (len(t) * 8))
    forces = itertools.chain.from_iterable(
        _lockstep(scenario, columns[:, i : i + chunk], j) for i in range(0, len(combos), chunk)
    )
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
        objective = m.itae
        if weights.overshoot:
            objective += weights.overshoot * m.overshoot_pct
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
    if all(entry.failure is not None for entry in entries):
        raise AllRunsFailed("every grid point failed to produce a scored run")
    if not math.isfinite(best.objective):
        raise AllRunsFailed("no grid point scored a finite objective")
    return best, leaderboard
