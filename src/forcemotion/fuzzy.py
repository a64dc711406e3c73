"""Mamdani fuzzy inference on a normalized universe.

Seven-label linguistic variables on [-1, 1], a 7x7 PI-type rule table,
min/max (clip and pointwise-maximum) inference, and center-of-area
defuzzification. All types are immutable after construction and all
operations are pure functions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

# Aggregates with less total mass than this defuzzify to 0 (no rule fired).
_EMPTY_AGGREGATE_AREA = 1e-12


class Label(enum.IntEnum):
    """Linguistic labels, ordered NL < NM < NS < ZR < PS < PM < PL."""

    NL = -3
    NM = -2
    NS = -1
    ZR = 0
    PS = 1
    PM = 2
    PL = 3


LABELS: Tuple[Label, ...] = tuple(Label)
_N_LABELS = len(LABELS)

# The one partition of [-1, 1], shared by inputs and output: triangles on
# evenly spaced centres with half-width equal to the spacing, so adjacent
# labels overlap at 50% and the degrees of any point sum to 1 (a Ruspini
# partition). NL and PL saturate at 1 beyond the end centres. The universe
# is scaled through the gains (ki, kp on the inputs, kx on the output).
CENTERS: Tuple[float, ...] = (-1.0, -2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3, 1.0)
HALF_WIDTH = 1 / 3


def fuzzify(x: float) -> List[float]:
    """Map a crisp value to its seven membership degrees in label order,
    NL .. PL, 0.0 where x does not reach; x is clamped to [-1, 1].

    Only labels whose center is within one spacing of x can be nonzero, so
    the triangle is evaluated for the four labels k-1 .. k+2 around the
    center k at or below x, a one-label margin on each side. Once x is
    clamped, a shoulder equals its triangle (both are 1.0 at the end
    center).
    """
    x = -1.0 if x < -1.0 else 1.0 if x > 1.0 else x
    degrees = [0.0] * _N_LABELS
    if x == x:  # NaN has degree 0 in every label
        w = HALF_WIDTH
        k = int((x + 1.0) / w)
        for i in range(k - 1 if k else 0, k + 3 if k < 4 else _N_LABELS):
            t = 1.0 - abs(x - CENTERS[i]) / w
            if t > 0.0:
                degrees[i] = t
    return degrees


# 7x7 PI-type rule table. Rows are de from PL (top) to NL (bottom), columns
# are e from NL (left) to PL (right).
_DEFAULT_TABLE = """
nl nm ns zr pm pl pl
nl nl nm zr pm pl pl
nl nl ns zr ps pl pl
nl nm ns zr ps pm pl
nl nl ns zr ps pl pl
nl nl nm zr pm pl pl
nl nl nm zr ps pm pl
"""

_ROW_ORDER = (Label.PL, Label.PM, Label.PS, Label.ZR, Label.NS, Label.NM, Label.NL)
_COL_ORDER = (Label.NL, Label.NM, Label.NS, Label.ZR, Label.PS, Label.PM, Label.PL)


@dataclass(frozen=True)
class RuleBase:
    """Complete (e_label, de_label) -> output label map, and the engine that
    runs it on the fixed partition, from normalized inputs to output.

    `output` runs the full fuzzify -> infer -> defuzzify pipeline on
    already-scaled inputs and returns a crisp value in [-1, 1]. `outputs`
    is its column form, bit for bit.
    """

    table: Dict[Tuple[Label, Label], Label]

    def __post_init__(self) -> None:
        missing = [
            (e.name, de.name)
            for e in LABELS
            for de in LABELS
            if (e, de) not in self.table
        ]
        if missing:
            raise ValueError(f"rule base incomplete, missing cells: {missing}")

    @classmethod
    def parse(cls, text: str) -> "RuleBase":
        """Parse a 7x7 grid of label names (rows: de PL..NL, columns: e NL..PL).

        Blank lines and '#' comments are ignored.
        """
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            tokens = body.split()
            if len(tokens) != len(LABELS):
                raise ValueError(
                    f"line {lineno}: expected {len(LABELS)} labels, got {len(tokens)}"
                )
            try:
                rows.append([Label[t.upper()] for t in tokens])
            except KeyError as exc:
                raise ValueError(f"line {lineno}: unknown label {exc}") from exc
        if len(rows) != len(LABELS):
            raise ValueError(f"expected {len(LABELS)} rule rows, got {len(rows)}")
        table = {}
        for de_label, row in zip(_ROW_ORDER, rows):
            for e_label, out in zip(_COL_ORDER, row):
                table[(e_label, de_label)] = out
        return cls(table)

    @classmethod
    def from_file(cls, path) -> "RuleBase":
        return cls.parse(Path(path).read_text())

    @classmethod
    def default(cls) -> "RuleBase":
        return cls.parse(_DEFAULT_TABLE)

    def output(self, e_norm: float, de_norm: float) -> float:
        return defuzzify_coa(infer(fuzzify(e_norm), fuzzify(de_norm), self))

    @cached_property
    def _cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rule cells in the order fire_rules scans them, e labels
        ascending and then de labels ascending: each cell's output label
        index (0..6); the cells sorted by that label; where each used
        label's run of sorted cells starts; and the used labels."""
        labels = np.array([self.table[e, de] + 3 for e in LABELS for de in LABELS])
        order = np.argsort(labels, kind="stable")
        used, starts = np.unique(labels[order], return_index=True)
        return labels, order, starts, used

    def outputs(self, e_norm: np.ndarray, de_norm: np.ndarray) -> np.ndarray:
        """`output` of each pair (e_norm[i], de_norm[i]), bit for bit.

        Both inputs are fuzzified to (7, n) degrees after fuzzify's clamp,
        the rules fire as (49, n) min-AND strengths, each output label's clip
        is its largest strength, and the first fired cell names the first
        shape. Aggregates of exactly two clipped shapes, the common case near
        and away from the settled cell, are integrated in numpy. Every other
        pair goes through `output`: an infinite input clamps as fuzzify
        clamps it, and a NaN one stays NaN and clips no shape.
        """
        e_norm = np.asarray(e_norm, dtype=float)
        de_norm = np.asarray(de_norm, dtype=float)
        n = len(e_norm)
        cell_labels, order, starts, used = self._cells
        x = np.minimum(np.maximum(np.concatenate((e_norm, de_norm)), -1.0), 1.0)
        # Every label's triangle, (7, 2n); beyond the four that fuzzify
        # evaluates it is about -1/3 or less, so no extra label fires.
        mu = np.maximum(1.0 - np.abs(x - _CENTER_ROW[:, None]) / HALF_WIDTH, 0.0)
        strength = np.minimum(mu[:, None, :n], mu[None, :, n:]).reshape(49, n)
        clip = np.zeros((_N_LABELS, n))
        clip[used] = np.maximum.reduceat(strength.take(order, axis=0), starts, axis=0)
        clipped = clip > 0.0
        pair = clipped.sum(axis=0) == 2
        every = pair.all()
        cols = slice(None) if every else np.flatnonzero(pair)
        first = cell_labels[(strength[:, cols] > 0.0).argmax(axis=0)]
        labels = np.array((first, _LABEL_INDEX @ clipped[:, cols] - first))
        paired = _two_shape_coa(labels, clip[:, cols][labels, np.arange(len(first))])
        if every:
            return paired
        out = np.empty(n)
        out[cols] = paired
        for i in np.flatnonzero(~pair).tolist():
            out[i] = self.output(float(e_norm[i]), float(de_norm[i]))
        return out


class RuleFiring(NamedTuple):
    """One fired rule: antecedent labels, consequent label, min-AND strength."""

    e_label: Label
    de_label: Label
    out_label: Label
    strength: float


def fire_rules(e_degrees: List[float], de_degrees: List[float], rules: RuleBase) -> List[RuleFiring]:
    """Evaluate every rule whose antecedents both have nonzero degree, e
    labels ascending and then de labels ascending."""
    table = rules.table
    de_fired = [(label, mu) for label, mu in zip(LABELS, de_degrees) if mu > 0.0]
    firings = []
    for e_label, mu_e in zip(LABELS, e_degrees):
        if mu_e > 0.0:
            for de_label, mu_de in de_fired:
                strength = mu_de if mu_de < mu_e else mu_e
                # What RuleFiring(...) runs, without its Python-level __new__.
                firings.append(tuple.__new__(RuleFiring, (e_label, de_label, table[e_label, de_label], strength)))
    return firings


@dataclass(frozen=True)
class AggregatedOutput:
    """Clipped output shapes combined by pointwise maximum.

    `clips` maps each output label to the largest firing strength that
    clipped it; labels that never fired are omitted.
    """

    clips: Dict[Label, float]

    def __post_init__(self) -> None:
        for label, clip in self.clips.items():
            if not 0.0 <= clip <= 1.0:
                raise ValueError(f"clip of {label.name} out of [0, 1]: {clip}")


def infer(e_degrees: List[float], de_degrees: List[float], rules: RuleBase) -> AggregatedOutput:
    """Mamdani inference: min-AND firing, clip implication, max aggregation."""
    clips: Dict[Label, float] = {}
    for _, _, out_label, strength in fire_rules(e_degrees, de_degrees, rules):
        if strength > clips.get(out_label, 0.0):
            clips[out_label] = strength
    return AggregatedOutput(clips)


def defuzzify_coa(agg: AggregatedOutput) -> float:
    """Center of area of the aggregated set, integrated in closed form.

    The aggregate is piecewise linear (a maximum of clipped triangles and
    shoulders), so the centroid is computed exactly by splitting [-1, 1] at
    every shape kink and pairwise crossing and integrating segment by
    segment. Returns 0 when no rule fired (zero total area).

    The preset traces are pinned by hash, so the floating-point operations
    behind every contribution to the area and the moment, and their order,
    are fixed. Each clipped shape is evaluated once per breakpoint. On each
    segment only the live shapes, those nonzero at either end, get a line.
    Liveness is read off the computed values, since a triangle's foot can
    evaluate to ~2e-16, not 0. A single live line is integrated directly.
    Otherwise the segment is cut at crossings and the first line of maximal
    value is integrated on each piece.

    An aggregate of exactly two shapes, both clipped above 0, takes
    `_two_shape_centroid`: these operations in this order, on the two
    shapes by name. `_two_shape_coa` is its column form. One shape, three
    or more, or any clip of exactly 0 takes the generic loop below.
    """
    clips = agg.clips
    if not clips:
        return 0.0
    lo, hi = CENTERS[0], CENTERS[-1]
    w = HALF_WIDTH

    shapes = []
    breakpoints = {lo, hi}
    for label, clip in clips.items():
        c = CENTERS[label + 3]
        flat = w * (1.0 - clip)
        breakpoints.update((c - w, c - flat, c + flat, c + w))
        # A shape clipped at 0 is 0 everywhere, so it is never live.
        if clip > 0.0:
            shapes.append((c, clip, 1 << len(shapes)))
    if not shapes:
        return 0.0
    xs = sorted(breakpoints)
    if xs[0] != lo or xs[-1] != hi:  # the outer kinks of NL and PL
        xs = xs[xs.index(lo) : xs.index(hi) + 1]
    if len(shapes) == 2 == len(clips):
        (c1, h1, _), (c2, h2, _) = shapes
        return _two_shape_centroid(xs, c1, h1, c2, h2)
    # A segment's live mask differs from `full` when some shape is 0 at both
    # of its ends. A shape clipped at 0 is so on every segment.
    full = (1 << len(shapes)) - 1 if len(shapes) == len(clips) else -1
    area = 0.0
    moment = 0.0
    # Breakpoint b's values, min(clip, membership), and the bit mask of the
    # shapes nonzero there. Breakpoints lie in [lo, hi], where a shoulder
    # equals its triangle (both are 1.0 at the end center), so one
    # expression covers every label. The first segment, [lo, lo], is empty.
    a, fas, nonzero_a = lo, None, 0
    for b in xs:
        fbs = []
        nonzero_b = 0
        for c, clip, bit in shapes:
            t = 1.0 - abs(b - c) / w
            if t > 0.0:
                fbs.append(t if t < clip else clip)
                nonzero_b |= bit
            else:
                fbs.append(0.0)
        live = nonzero_a | nonzero_b
        span = b - a
        if live and span > 1e-15:
            # A shape 0 at both ends ("dead" here) has the line y = 0. It is
            # never the strict maximum, but it crosses each live line at that
            # line's root. The root lies at or beyond an end of [a, b] and is
            # cut only where rounding puts it inside, which subnormal heights
            # can do.
            dead = live != full
            inner_lo = a + 1e-15
            inner_hi = b - 1e-15
            # Each branch integrates the segment itself (lines = None) or sets
            # its live `lines` and `cuts`, the right ends of the pieces: the
            # crossings and roots more than 1e-15 inside [a, b], sorted, then b.
            if not live & (live - 1):
                i = live.bit_length() - 1
                fa = fas[i]
                m = (fbs[i] - fa) / span
                q = fa - m * a
                if dead and m != 0.0 and inner_lo < -q / m < inner_hi:
                    lines = [(m, q)]
                    cuts = [-q / m, b]
                else:
                    lines = None
                    if m * (0.5 * (a + b)) + q > 0.0:
                        squares = b * b - a * a
                        area += 0.5 * m * squares + q * span
                        moment += m * (b**3 - a**3) / 3.0 + 0.5 * q * squares
            else:
                lines = []
                for i, (fa, fb) in enumerate(zip(fas, fbs)):
                    if live >> i & 1:
                        m = (fb - fa) / span
                        lines.append((m, fa - m * a))
                cuts = [b]
                for i, (mi, qi) in enumerate(lines):
                    if dead and mi != 0.0 and inner_lo < -qi / mi < inner_hi:
                        cuts.append(-qi / mi)
                    for mj, qj in lines[i + 1 :]:
                        if mi != mj:
                            x = (qj - qi) / (mi - mj)
                            if inner_lo < x < inner_hi:
                                cuts.append(x)
                cuts.sort()
            if lines:
                # Each piece integrates the first line of maximal value at
                # its midpoint, if that value is positive.
                first = lines[0]
                rest = lines[1:]
                p = a
                for r in cuts:
                    if r - p > 1e-15:
                        mid = 0.5 * (p + r)
                        m, q = first
                        top = m * mid + q
                        for mk, qk in rest:
                            v = mk * mid + qk
                            if v > top:
                                m, q, top = mk, qk, v
                        if top > 0.0:
                            squares = r * r - p * p
                            area += 0.5 * m * squares + q * (r - p)
                            moment += m * (r**3 - p**3) / 3.0 + 0.5 * q * squares
                    p = r
        a, fas, nonzero_a = b, fbs, nonzero_b
    if area <= _EMPTY_AGGREGATE_AREA:
        return 0.0
    return moment / area


def _two_shape_centroid(xs: List[float], c1: float, h1: float, c2: float, h2: float) -> float:
    """defuzzify_coa's live-line integrator on the breakpoints xs of two
    shapes centred at c1 and c2 and clipped at h1, h2 > 0: its operations
    in its order, so bit for bit. `_two_shape_coa` is its column form.

    Where both shapes are live, the segment is cut at the lines' crossing.
    Where one is, the other is dead, and its line y = 0 cuts the segment at
    the live line's root; the live line then stands in for both, so each
    piece still takes the first line of maximal value at its midpoint.
    """
    w = HALF_WIDTH
    area = moment = 0.0
    # The first segment, [lo, lo], is empty. With both clips positive, a
    # shape's value is nonzero exactly where the generic loop's t > 0.
    a = xs[0]
    fa1 = fa2 = 0.0
    for b in xs:
        t = 1.0 - abs(b - c1) / w
        fb1 = (t if t < h1 else h1) if t > 0.0 else 0.0
        t = 1.0 - abs(b - c2) / w
        fb2 = (t if t < h2 else h2) if t > 0.0 else 0.0
        live1 = fa1 or fb1
        live2 = fa2 or fb2
        span = b - a
        if (live1 or live2) and span > 1e-15:
            if live1 and live2:
                m1 = (fb1 - fa1) / span
                q1 = fa1 - m1 * a
                m2 = (fb2 - fa2) / span
                q2 = fa2 - m2 * a
                x = (q2 - q1) / (m1 - m2) if m1 != m2 else b
            else:
                fa, fb = (fa1, fb1) if live1 else (fa2, fb2)
                m1 = m2 = (fb - fa) / span
                q1 = q2 = fa - m1 * a
                x = -q1 / m1 if m1 != 0.0 else b
            p = a
            for r in (x, b) if a + 1e-15 < x < b - 1e-15 else (b,):
                if r - p > 1e-15:
                    mid = 0.5 * (p + r)
                    m, q, top = m1, q1, m1 * mid + q1
                    v = m2 * mid + q2
                    if v > top:
                        m, q, top = m2, q2, v
                    if top > 0.0:
                        squares = r * r - p * p
                        area += 0.5 * m * squares + q * (r - p)
                        moment += m * (r**3 - p**3) / 3.0 + 0.5 * q * squares
                p = r
        a, fa1, fa2 = b, fb1, fb2
    if area <= _EMPTY_AGGREGATE_AREA:
        return 0.0
    return moment / area


_CENTER_ROW = np.array(CENTERS)
_LABEL_INDEX = np.arange(_N_LABELS)
# The universe's ends, two breakpoints of every aggregate.
_ENDS = np.array([[CENTERS[0]], [CENTERS[-1]]])


@np.errstate(all="ignore")
def _two_shape_coa(labels: np.ndarray, clips: np.ndarray) -> np.ndarray:
    """defuzzify_coa of n aggregates of exactly two shapes, bit for bit.

    `labels` holds the label indices (0..6) of each aggregate's shapes and
    `clips` their heights, all positive, as (2, n) arrays in the order the
    shapes fired. This is the live-line integrator with one column per
    aggregate, as `_two_shape_centroid` is its scalar form for these
    aggregates, kept equal to it through three bit traps:
    - Each shape adds all four kinks, those beyond the universe clamped
      onto its ends, and duplicate breakpoints are kept. Both make
      zero-length segments, which the 1e-15 test skips as the set and the
      trim do.
    - Both lines are kept on every segment. A shape that is 0 at both ends
      has the line (0.0, 0.0): it crosses the other line exactly at that
      line's root, up to the sign of a zero cut, and as the second line it
      is never the strict maximum where the first is positive.
    - Each segment holds at most two pieces, cut at the crossing, and each
      piece integrates the first line of maximal value at its midpoint.
      Pieces that add nothing add +0.0, and the sums run in piece order from
      +0.0, so they equal the scalar running sums: along the rows with
      `np.add.accumulate`, since `np.add.reduce` pairs the rows of a single
      column differently.
    The cubes need none: `np.float_power` rounds as the scalar `**` does.
    """
    w = HALF_WIDTH
    lo, hi = CENTERS[0], CENTERS[-1]
    n = clips.shape[1]
    centre = _CENTER_ROW[labels]
    flat = w * (1.0 - clips)
    xs = np.concatenate((_ENDS.repeat(n, axis=1), centre - w, centre - flat, centre + flat, centre + w))
    xs = np.minimum(np.maximum(xs, lo), hi)
    xs.sort(axis=0)

    # Each shape's value at each of the 10 breakpoints, (2, 10, n), and its
    # line on each of the 9 segments [a, b], (2, 9, n).
    f = np.minimum(np.maximum(1.0 - np.abs(xs - centre[:, None, :]) / w, 0.0), clips[:, None, :])
    a = xs[:-1]
    b = xs[1:]
    slope = (f[:, 1:] - f[:, :-1]) / (b - a)
    icpt = f[:, :-1] - slope * a
    (m1, m2), (q1, q2) = slope, icpt
    # Parallel lines give inf or NaN, which never lies inside.
    cut = (q2 - q1) / (m1 - m2)
    cut = np.where((a + 1e-15 < cut) & (cut < b - 1e-15), cut, b)

    # The pieces [p, r], (18, n), run between the bounds x0, cut0, x1, cut1,
    # ..., x9, two per segment; the second is empty when nothing is cut.
    bounds = np.empty((19, n))
    bounds[0::2] = xs
    bounds[1::2] = cut
    p = bounds[:-1]
    r = bounds[1:]
    (m1, m2), (q1, q2) = np.repeat(slope, 2, axis=1), np.repeat(icpt, 2, axis=1)
    mid = 0.5 * (p + r)
    top = m1 * mid + q1
    top2 = m2 * mid + q2
    second = top2 > top
    adds = (r - p > 1e-15) & ((top > 0.0) | (top2 > 0.0))
    m = np.where(second, m2, m1)
    q = np.where(second, q2, q1)
    squares = r * r - p * p
    cubes = np.float_power(bounds, 3.0)
    sums = np.zeros((2, 19, n))
    np.copyto(sums[0, 1:], 0.5 * m * squares + q * (r - p), where=adds)
    np.copyto(sums[1, 1:], m * (cubes[1:] - cubes[:-1]) / 3.0 + 0.5 * q * squares, where=adds)
    area, moment = np.add.accumulate(sums, axis=1)[:, -1]
    return np.where(area > _EMPTY_AGGREGATE_AREA, moment / area, 0.0)
