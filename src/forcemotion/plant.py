"""Simulated world: 2-link planar arm with a first-order joint servo,
unilateral compliant obstacles, and a force sensor model.

The plane is x (horizontal) by z (vertical). Contact forces returned by the
environment act ON the tool; surfaces push the tool out along their outward
normal, friction opposes sliding. Everything is deterministic given the
configured seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from .control import AxisForce, clamp


class Unreachable(Exception):
    """Target pose lies outside the arm workspace annulus."""


class Pose(NamedTuple):
    x: float
    z: float


@dataclass(frozen=True)
class PlanarArm:
    """Two revolute joints in the x-z plane; base at the origin; `elbow` is
    the inverse-kinematics branch ("down" has q2 >= 0).

    The internal motion loop is modeled as a first-order lag toward the
    commanded joint angles with a per-joint rate limit. The arm holds no
    joint angles: the tick loops carry them and pass them in.
    """

    l1: float = 0.5
    l2: float = 0.5
    tau_servo: float = 0.04
    qdot_max: float = 2.0
    elbow: str = "down"

    def __post_init__(self) -> None:
        if not (self.l1 > 0.0 and self.l2 > 0.0):
            raise ValueError("link lengths must be positive")
        # ik subtracts l1*l1 + l2*l2 and divides by 2*l1*l2.
        sum_sq, twice_prod = self.l1 * self.l1 + self.l2 * self.l2, 2.0 * self.l1 * self.l2
        if not (math.isfinite(sum_sq) and 0.0 < twice_prod < math.inf):
            raise ValueError(
                f"link lengths {self.l1} and {self.l2}: l1*l1 + l2*l2 and 2*l1*l2 must be finite, "
                "and 2*l1*l2 nonzero"
            )
        if not self.tau_servo > 0.0:
            raise ValueError("tau_servo must be positive")
        if not self.qdot_max > 0.0:
            raise ValueError("qdot_max must be positive")

    def fk(self, q: Tuple[float, float]) -> Pose:
        """Tool position at the joint angles q."""
        q1, q2 = q
        q12 = q1 + q2
        return Pose(
            self.l1 * math.cos(q1) + self.l2 * math.cos(q12),
            self.l1 * math.sin(q1) + self.l2 * math.sin(q12),
        )

    def joint_torques(self, f: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Joint torques equivalent to the Cartesian tool forces: J^T f.

        An (N, 2) array of forces at the (N, 2) joint angles `q` gives an
        (N, 2) array from one stacked matmul, bit for bit the per-state
        J^T f: the Jacobian stack is C-contiguous and multiplied through its
        transpose view (einsum or elementwise products round differently).
        """
        jac = _jacobians(self.l1, self.l2, q)
        return np.matmul(jac.transpose(0, 2, 1), f[:, :, None])[:, :, 0]

    def servo_rates(self, dt: float) -> Tuple[float, float]:
        """(alpha, dq_max) for servo steps of length dt: the first-order gain
        1 - exp(-dt / tau_servo) and the per-joint limit qdot_max * dt."""
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        return 1.0 - math.exp(-dt / self.tau_servo), self.qdot_max * dt

    def servo_step(
        self, q: Tuple[float, float], q_des: Tuple[float, float], alpha: float, dq_max: float
    ) -> Tuple[float, float]:
        """The joint angles after a first-order step from q toward q_des,
        rate-limited per joint, with the gain and limit of `servo_rates`."""
        q1, q2 = q
        dq1 = min(max(alpha * (q_des[0] - q1), -dq_max), dq_max)
        dq2 = min(max(alpha * (q_des[1] - q2), -dq_max), dq_max)
        return q1 + dq1, q2 + dq2


# The batch functions below compute, for a (2, B) array of joint angles,
# positions or forces (one column per member), what the scalar function
# computes for each member, bit for bit: the same float operations in the
# same order. numpy's sqrt, sin and cos round as math's do.


def servo_step_batch(q: np.ndarray, q_des: np.ndarray, alpha: float, dq_max: float) -> np.ndarray:
    """`PlanarArm.servo_step` for (2, B) joint angles; returns the new angles."""
    return q + clamp(alpha * (q_des - q), -dq_max, dq_max)


def fk_batch(l1: float, l2: float, q: np.ndarray) -> np.ndarray:
    """`PlanarArm.fk` for (2, B) joint angles: the (2, B) tool positions."""
    q12 = q[0] + q[1]
    return np.array((l1 * np.cos(q[0]) + l2 * np.cos(q12), l1 * np.sin(q[0]) + l2 * np.sin(q12)))


def _jacobians(l1: float, l2: float, q: np.ndarray) -> np.ndarray:
    """C-contiguous (N, 2, 2) stack of fk Jacobians at the (N, 2) joint angles q."""
    q1 = q[:, 0]
    q12 = q1 + q[:, 1]
    s12 = np.sin(q12)
    c12 = np.cos(q12)
    jac = np.empty((len(q), 2, 2))
    jac[:, 0, 0] = -l1 * np.sin(q1) - l2 * s12
    jac[:, 0, 1] = -l2 * s12
    jac[:, 1, 0] = l1 * np.cos(q1) + l2 * c12
    jac[:, 1, 1] = l2 * c12
    return jac


def ik(l1: float, l2: float, target: Pose, elbow: str = "down") -> Tuple[float, float]:
    """Closed-form planar 2-link inverse kinematics: joint angles reaching
    `target` on the requested elbow branch ("down" has q2 >= 0).

    Raises Unreachable when the target lies outside the annulus
    [|l1 - l2|, l1 + l2] or has a NaN coordinate.
    """
    if elbow not in ("down", "up"):
        raise ValueError(f"unknown elbow branch: {elbow!r}")
    r2 = target.x * target.x + target.z * target.z
    r = math.sqrt(r2)
    # Negated, so that a NaN radius (false in every comparison) raises too.
    if not abs(l1 - l2) - 1e-12 <= r <= l1 + l2 + 1e-12:
        raise outside_workspace(l1, l2, target)
    cos_q2 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    return _angles(l1, l2, target.x, target.z, min(max(cos_q2, -1.0), 1.0), elbow)


def _angles(l1: float, l2: float, x: float, z: float, cos_q2: float, elbow: str) -> Tuple[float, float]:
    """The joint angles reaching (x, z) on the elbow branch, given the
    elbow cosine clamped to [-1, 1]."""
    q2 = math.acos(cos_q2)
    if elbow == "up":
        q2 = -q2
    return math.atan2(z, x) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2)), q2


def outside_workspace(l1: float, l2: float, target: Pose) -> Unreachable:
    """The error `ik` raises for an unreachable target."""
    return Unreachable(
        f"target ({fmt_num(target.x, '.4f')}, {fmt_num(target.z, '.4f')}) outside workspace "
        f"[{fmt_num(abs(l1 - l2), '.4f')}, {fmt_num(l1 + l2, '.4f')}]"
    )


def fmt_num(value: float, spec: str) -> str:
    """`value` formatted with the fixed-point `spec`, or as .3e from 1e9 on,
    where fixed point would print every one of up to ~300 digits."""
    return format(value, spec if abs(value) < 1e9 else ".3e")


def ik_batch(l1: float, l2: float, target: np.ndarray, elbow: str = "down") -> Tuple[np.ndarray, np.ndarray]:
    """`ik` for (2, B) targets: the (2, B) joint angles and the (B,) mask of
    reachable targets. The angles of an unreachable target mean nothing.

    `ik`'s angle solver runs per member: numpy's arccos and arctan2 differ
    from math's in the last bit. (The ±1 clamp has no signed-zero tie.)
    """
    if elbow not in ("down", "up"):
        raise ValueError(f"unknown elbow branch: {elbow!r}")
    x, z = target
    r2 = x * x + z * z
    r = np.sqrt(r2)
    reachable = (abs(l1 - l2) - 1e-12 <= r) & (r <= l1 + l2 + 1e-12)
    cos_q2 = np.minimum(np.maximum((r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2), -1.0), 1.0)
    angles = [_angles(l1, l2, a, b, c, elbow) for a, b, c in zip(x.tolist(), z.tolist(), cos_q2.tolist())]
    return np.array(angles).T, reachable


@dataclass(frozen=True)
class RoughSurface:
    """Horizontal compliant floor with a sinusoidal profile plus seeded noise.

    Height at x is height_base + roughness_amplitude*sin(2*pi*x/wavelength)
    + a band-limited noise term built from the environment seed. Penetration
    below the profile produces a Hookean normal force pushing the tool up and
    kinetic Coulomb friction opposing sliding along x.
    """

    height_base: float
    roughness_amplitude: float = 0.0
    roughness_wavelength: float = 0.05
    noise_amplitude: float = 0.0
    stiffness: float = 10_000.0
    friction_coeff: float = 0.0

    def __post_init__(self) -> None:
        if not self.stiffness > 0.0:
            raise ValueError("stiffness must be positive")
        if not (self.roughness_amplitude >= 0.0 and self.noise_amplitude >= 0.0):
            raise ValueError("amplitudes must be nonnegative")
        if not self.roughness_wavelength > 0.0:
            raise ValueError("roughness_wavelength must be positive")
        if not self.friction_coeff >= 0.0:
            raise ValueError("friction_coeff must be nonnegative")


@dataclass(frozen=True)
class Box:
    """Axis-aligned compliant block. A penetrating point is pushed out through
    the nearest face (shallowest penetration) with a Hookean force."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    stiffness: float = 10_000.0

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.z_min < self.z_max):
            raise ValueError("box extents must be ordered")
        if not self.stiffness > 0.0:
            raise ValueError("stiffness must be positive")


Obstacle = Union[RoughSurface, Box]

_NOISE_COMPONENTS = 8


class _NoiseProfile(NamedTuple):
    """Fixed sinusoid mixture; a pure, order-independent function of x.

    Components are sin(omega*x + phase) with omega = (2*pi)*frequency, held
    as Python floats: the profile is evaluated every tick.
    """

    omegas: Tuple[float, ...]
    phases: Tuple[float, ...]
    amplitude: float

    def height(self, x: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        total = 0.0
        for w, p in zip(self.omegas, self.phases):
            total += math.sin(w * x + p)
        return self.amplitude * total / _NOISE_COMPONENTS

    def heights(self, x: np.ndarray):
        """`height` at each of the points x, summed as `height` sums: from
        sin(0.0 * x + 0.0) = +0.0, down the rows (np.add.reduce pairs the
        rows of one column differently)."""
        if self.amplitude == 0.0:
            return 0.0
        omegas = np.array((0.0, *self.omegas))[:, None]
        phases = np.array((0.0, *self.phases))[:, None]
        total = np.add.accumulate(np.sin(omegas * x + phases))[-1]
        return self.amplitude * total / _NOISE_COMPONENTS


@dataclass(frozen=True)
class Environment:
    """Composable unilateral obstacles; deterministic given the seed."""

    obstacles: Tuple[Obstacle, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        profiles: List[_NoiseProfile] = []
        for index, obstacle in enumerate(self.obstacles):
            if isinstance(obstacle, RoughSurface) and obstacle.noise_amplitude > 0.0:
                rng = np.random.default_rng([self.seed, index])
                # Component frequencies sit at 1..4 cycles per roughness wavelength.
                wavelength = obstacle.roughness_wavelength
                freqs = (rng.uniform(1.0, 4.0, _NOISE_COMPONENTS) / wavelength).tolist()
                profiles.append(
                    _NoiseProfile(
                        tuple(2.0 * math.pi * f for f in freqs),
                        tuple(rng.uniform(0.0, 2.0 * math.pi, _NOISE_COMPONENTS).tolist()),
                        float(obstacle.noise_amplitude),
                    )
                )
            else:
                profiles.append(_NoiseProfile((), (), 0.0))
        object.__setattr__(self, "_noise", tuple(profiles))

    def max_phase(self, index: int, x_max: float) -> float:
        """The largest sine argument the profile of obstacle `index` takes
        for |x| <= x_max (0.0 for a box); inf when one overflows."""
        obstacle = self.obstacles[index]
        if not isinstance(obstacle, RoughSurface):
            return 0.0
        noise = self._noise[index]
        phases = [w * x_max + p for w, p in zip(noise.omegas, noise.phases)]
        if obstacle.roughness_amplitude > 0.0:
            phases.append(2.0 * math.pi * x_max / obstacle.roughness_wavelength)
        return max(phases, default=0.0)

    def surface_height(self, surface_index: int, x: float) -> float:
        """Profile height of the RoughSurface at `surface_index` in obstacles."""
        surface = self.obstacles[surface_index]
        if not isinstance(surface, RoughSurface):
            raise TypeError("obstacle is not a RoughSurface")
        h = surface.height_base
        if surface.roughness_amplitude > 0.0:
            h += surface.roughness_amplitude * math.sin(
                2.0 * math.pi * x / surface.roughness_wavelength
            )
        return h + self._noise[surface_index].height(x)

    def contact_force(self, p: Pose, v: Tuple[float, float]) -> AxisForce:
        """Total contact force on the tool at pose p moving with velocity v."""
        fx = 0.0
        fz = 0.0
        for index, obstacle in enumerate(self.obstacles):
            if isinstance(obstacle, RoughSurface):
                depth = self.surface_height(index, p.x) - p.z
                if depth > 0.0:
                    fn = obstacle.stiffness * depth
                    fz += fn
                    if obstacle.friction_coeff > 0.0 and v[0] != 0.0:
                        fx -= obstacle.friction_coeff * fn * math.copysign(1.0, v[0])
            else:
                fx_box, fz_box = _box_force(obstacle, p)
                fx += fx_box
                fz += fz_box
        return AxisForce(fx, fz)

    def contact_force_batch(self, p: np.ndarray, vx: np.ndarray) -> np.ndarray:
        """`contact_force` at (2, B) tool positions moving with x velocities
        `vx`: the (2, B) forces."""
        x, z = p
        f = np.zeros(p.shape)
        fx, fz = f
        for index, obstacle in enumerate(self.obstacles):
            if isinstance(obstacle, RoughSurface):
                h = obstacle.height_base
                if obstacle.roughness_amplitude > 0.0:
                    h = h + obstacle.roughness_amplitude * np.sin(
                        2.0 * math.pi * x / obstacle.roughness_wavelength
                    )
                depth = h + self._noise[index].heights(x) - z
                hit = depth > 0.0
                fn = obstacle.stiffness * depth
                np.copyto(fz, fz + fn, where=hit)
                if obstacle.friction_coeff > 0.0:
                    slides = hit & (vx != 0.0)
                    np.copyto(fx, fx - obstacle.friction_coeff * fn * np.copysign(1.0, vx), where=slides)
            else:
                f += _box_force_batch(obstacle, x, z)
        return f


def _box_force(box: Box, p: Pose) -> Tuple[float, float]:
    """Push-out force for a point inside the box; zero outside."""
    if not (box.x_min < p.x < box.x_max and box.z_min < p.z < box.z_max):
        return 0.0, 0.0
    exits = (
        (p.x - box.x_min, (-1.0, 0.0)),
        (box.x_max - p.x, (1.0, 0.0)),
        (p.z - box.z_min, (0.0, -1.0)),
        (box.z_max - p.z, (0.0, 1.0)),
    )
    depth, normal = min(exits, key=lambda item: item[0])
    return box.stiffness * depth * normal[0], box.stiffness * depth * normal[1]


# Outward normals of the faces in the order `_box_force` tries them.
_FACE_NORMALS = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])


def _box_force_batch(box: Box, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`_box_force` at each of the points (x, z): a (2, B) array."""
    inside = (box.x_min < x) & (x < box.x_max) & (box.z_min < z) & (z < box.z_max)
    depths = np.array((x - box.x_min, box.x_max - x, z - box.z_min, box.z_max - z))
    # argmin, like min(), picks the first of equal depths.
    face = np.argmin(depths, axis=0)
    push = box.stiffness * depths[face, np.arange(len(x))]
    return np.where(inside, push * _FACE_NORMALS[:, face], 0.0)


@dataclass(frozen=True)
class SensorModel:
    """Force sensor: truth plus bias plus Gaussian noise per axis.

    The model holds no stream state: each run draws the noise from its own
    generator seeded with `seed`, so runs are repeatable and independent.
    """

    noise_sigma: float = 0.0
    bias: AxisForce = AxisForce(0.0, 0.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be nonnegative")
        try:
            np.random.SeedSequence(self.seed)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sensor seed {self.seed!r}: {exc}") from None

    def sense(self, f_true: AxisForce, rng: np.random.Generator) -> AxisForce:
        fx = f_true.x + self.bias.x
        fz = f_true.z + self.bias.z
        if self.noise_sigma > 0.0:
            nx, nz = rng.standard_normal(2).tolist()
            fx += self.noise_sigma * nx
            fz += self.noise_sigma * nz
        return AxisForce(fx, fz)

    def sense_batch(self, f_true: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """`sense` for (2, B) true forces. Every member gets the one noise
        pair that `sense` draws per tick: members share the sensor seed."""
        sensed = f_true + np.array([[self.bias.x], [self.bias.z]])
        if self.noise_sigma > 0.0:
            sensed = sensed + self.noise_sigma * rng.standard_normal(2)[:, None]
        return sensed
