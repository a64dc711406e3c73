"""Independent reference implementations used to derive expected test values.

These deliberately avoid the production code paths: membership shapes are
rebuilt from np.interp, the defuzzifier is a brute-force midpoint Riemann
sum or an exact piecewise integral in fractions, and the incremental PI law
is unrolled in closed form.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# The fixed partition, restated independently of the package.
CENTERS = np.array([-1.0, -2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3, 1.0])
HALF_WIDTH = 1 / 3
LABEL_NAMES = ("NL", "NM", "NS", "ZR", "PS", "PM", "PL")


def membership_grid(label_index: int, xs: np.ndarray) -> np.ndarray:
    """Triangle (or saturated shoulder) membership evaluated with np.interp."""
    c = CENTERS[label_index]
    if label_index == 0:
        xp = [c, c + HALF_WIDTH]
        fp = [1.0, 0.0]
        return np.interp(xs, xp, fp, left=1.0, right=0.0)
    if label_index == len(CENTERS) - 1:
        xp = [c - HALF_WIDTH, c]
        fp = [0.0, 1.0]
        return np.interp(xs, xp, fp, left=0.0, right=1.0)
    xp = [c - HALF_WIDTH, c, c + HALF_WIDTH]
    fp = [0.0, 1.0, 0.0]
    return np.interp(xs, xp, fp, left=0.0, right=0.0)


def fuzzify_reference(x: float) -> dict:
    """Degrees of a clamped crisp value in every label, via the interp shapes."""
    xc = min(max(x, -1.0), 1.0)
    point = np.array([xc])
    return {
        name: float(membership_grid(i, point)[0])
        for i, name in enumerate(LABEL_NAMES)
    }


def riemann_coa(clips: dict, n: int = 10**6) -> float:
    """Midpoint Riemann-sum center of area of max-aggregated clipped shapes.

    `clips` maps label index (0..6) to clip height.
    """
    h = 2.0 / n
    xs = -1.0 + (np.arange(n) + 0.5) * h
    mu = np.zeros_like(xs)
    for label_index, clip in clips.items():
        mu = np.maximum(mu, np.minimum(clip, membership_grid(label_index, xs)))
    total = mu.sum()
    if total == 0.0:
        return 0.0
    return float((mu * xs).sum() / total)


def segment_crossing_coa(clips: dict) -> float:
    """The segment-and-crossing centroid integrator that the engine's
    bit-exact digests were recorded from, kept as the reference for them.

    `clips` maps label index (0..6) to clip height, read in label order
    whatever the mapping's order. Every clipped shape keeps its line on
    every segment with a nonzero shape, crossings of every pair of lines are
    cut 1e-15 inside the segment, and each piece integrates the first line
    of maximal value at its midpoint.
    """
    centers = [float(c) for c in CENTERS]
    lo, hi = centers[0], centers[-1]
    w = HALF_WIDTH
    shapes = []
    breakpoints = {lo, hi}
    for index, clip in sorted(clips.items()):
        c = centers[index]
        flat = w * (1.0 - clip)
        if index == 0:
            kinks = (lo, c + flat, c + w)
        elif index == len(centers) - 1:
            kinks = (c - w, c - flat, hi)
        else:
            kinks = (c - w, c - flat, c + flat, c + w)
        breakpoints.update(x for x in kinks if lo <= x <= hi)
        shapes.append((c, clip))
    xs = sorted(breakpoints)
    rows = [[min(clip, max(1.0 - abs(x - c) / w, 0.0)) for x in xs] for c, clip in shapes]
    columns = list(zip(*rows))
    area = moment = 0.0
    for a, b, fas, fbs in zip(xs, xs[1:], columns, columns[1:]):
        span = b - a
        if not (any(fas) or any(fbs)) or span <= 1e-15:
            continue
        lines = []
        for fa, fb in zip(fas, fbs):
            m = (fb - fa) / span
            lines.append((m, fa - m * a))
        cuts = [a, b]
        for i, (mi, qi) in enumerate(lines):
            for mj, qj in lines[i + 1 :]:
                if mi != mj:
                    x = (qj - qi) / (mi - mj)
                    if a + 1e-15 < x < b - 1e-15:
                        cuts.append(x)
        cuts.sort()
        for p, r in zip(cuts, cuts[1:]):
            if r - p <= 1e-15:
                continue
            mid = 0.5 * (p + r)
            m, q = lines[0]
            top = m * mid + q
            for mk, qk in lines:
                if mk * mid + qk > top:
                    m, q, top = mk, qk, mk * mid + qk
            if top <= 0.0:
                continue
            squares = r * r - p * p
            area += 0.5 * m * squares + q * (r - p)
            moment += m * (r**3 - p**3) / 3.0 + 0.5 * q * squares
    return 0.0 if area <= 1e-12 else moment / area


def exact_coa(clips: dict) -> Fraction:
    """The exact center of area of max-aggregated clipped shapes on [-1, 1].

    `clips` maps label index (0..6) to clip height, taken exactly, on the
    exact partition: centres i/3 - 1, half-width 1/3. [-1, 1] is split at
    every kink of every clipped shape and at every crossing of two shapes
    inside a segment, so the aggregate is linear on each piece, and each
    piece adds its trapezoid area and moment. Returns 0 for a zero area.
    """
    w = Fraction(1, 3)
    shapes = [(Fraction(index - 3, 3), Fraction(h)) for index, h in clips.items()]

    def degrees(x):
        return [min(h, max(1 - abs(x - c) / w, Fraction(0))) for c, h in shapes]

    kinks = {Fraction(-1), Fraction(1)}
    for c, h in shapes:
        kinks.update(x for x in (c - w, c - w * (1 - h), c + w * (1 - h), c + w) if -1 <= x <= 1)
    kinks = sorted(kinks)
    cuts = set(kinks)
    for a, b in zip(kinks, kinks[1:]):
        for (fa, fb), (ga, gb) in itertools.combinations(zip(degrees(a), degrees(b)), 2):
            if (fb - fa) != (gb - ga):
                s = (ga - fa) / ((fb - fa) - (gb - ga))
                if 0 < s < 1:
                    cuts.add(a + s * (b - a))
    area = moment = Fraction(0)
    points = sorted(cuts)
    for p, r in zip(points, points[1:]):
        fp, fr = max(degrees(p), default=0), max(degrees(r), default=0)
        area += (r - p) * (fp + fr) / 2
        moment += (r - p) * (fp * (2 * p + r) + fr * (p + 2 * r)) / 6
    return moment / area if area else Fraction(0)


def pi_closed_form(kp: float, ki: float, errors: np.ndarray, u0: float = 0.0) -> np.ndarray:
    """Discretized PI position form: u_k = kp*e_k + ki*sum(e_1..e_k) + (u0 - kp*e_1).

    Matches the incremental law when the first error change is defined as 0
    (previous error initialized to the first error).
    """
    cumulative = np.cumsum(errors)
    return kp * errors + ki * cumulative + (u0 - kp * errors[0])


def finite_difference_jacobian(fk, q1: float, q2: float, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a pose function fk(q1, q2) -> (x, z)."""
    jac = np.zeros((2, 2))
    for j, (d1, d2) in enumerate(((step, 0.0), (0.0, step))):
        plus = fk(q1 + d1, q2 + d2)
        minus = fk(q1 - d1, q2 - d2)
        jac[0, j] = (plus[0] - minus[0]) / (2 * step)
        jac[1, j] = (plus[1] - minus[1]) / (2 * step)
    return jac
