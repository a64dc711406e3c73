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
    NL .. PL, 0.0 where x does not reach and for NaN; x is clamped to
    [-1, 1]. Once x is clamped, a shoulder equals its triangle (both are 1.0
    at the end center).
    """
    x = -1.0 if x < -1.0 else 1.0 if x > 1.0 else x
    degrees = [0.0] * _N_LABELS
    for i, center in enumerate(CENTERS):
        t = 1.0 - abs(x - center) / HALF_WIDTH
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
        for de_label, row in zip(LABELS[::-1], rows):
            for e_label, out in zip(LABELS, row):
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
    def _cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rule cells, numbered as fire_rules scans them (e labels
        ascending and then de labels ascending), sorted by their output
        label index (0..6); where each used label's run of sorted cells
        starts; and the used labels."""
        labels = np.array([self.table[e, de] + 3 for e in LABELS for de in LABELS])
        order = np.argsort(labels, kind="stable")
        used, starts = np.unique(labels[order], return_index=True)
        return order, starts, used

    def outputs(self, e_norm: np.ndarray, de_norm: np.ndarray) -> np.ndarray:
        """`output` of each pair (e_norm[i], de_norm[i]), bit for bit.

        Both inputs are fuzzified to (7, n) degrees after fuzzify's clamp,
        the rules fire as (49, n) min-AND strengths, and each output label's
        clip is its largest strength. Every column's shapes, in label order,
        go through one `_coa_columns` call: an infinite input clamps as
        fuzzify clamps it, and a NaN input clips no shape and gives +0.0.
        Both inputs must be 1-D and of equal length.
        """
        e_norm = np.asarray(e_norm, dtype=float)
        de_norm = np.asarray(de_norm, dtype=float)
        if e_norm.ndim != 1 or de_norm.ndim != 1:
            raise ValueError(
                f"e_norm and de_norm: expected 1-D arrays, got shapes {e_norm.shape} and {de_norm.shape}"
            )
        n = len(e_norm)
        if len(de_norm) != n:
            raise ValueError(f"e_norm and de_norm: expected equal lengths, got {n} and {len(de_norm)}")
        order, starts, used = self._cells
        x = np.minimum(np.maximum(np.concatenate((e_norm, de_norm)), -1.0), 1.0)
        mu = np.maximum(1.0 - np.abs(x - _CENTER_ROW[:, None]) / HALF_WIDTH, 0.0)
        strength = np.minimum(mu[:, None, :n], mu[None, :, n:]).reshape(49, n)
        clip = np.zeros((_N_LABELS, n))
        clip[used] = np.maximum.reduceat(strength.take(order, axis=0), starts, axis=0)
        clipped = clip > 0.0
        # Each column's clipped labels ascending, then its first again; a NaN
        # column clips none and takes label 0 at height NaN or 0: +0.0.
        cols = np.arange(n)
        labels = np.argsort(~clipped, axis=0, kind="stable")[: clipped.sum(axis=0).max(initial=1)]
        labels = np.where(clipped[labels, cols], labels, labels[0])
        return _coa_columns(labels, clip[labels, cols])


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
    every shape kink and pairwise crossing and integrating segment by segment.
    Returns 0 when the total area is at most 1e-12, as when no rule fired.

    The preset traces are pinned by hash, so the floating-point operations
    behind every contribution to the area and the moment, and their order,
    are fixed. They follow one rule, which `tests/oracles.py` restates. Each
    clipped shape is evaluated once per breakpoint and keeps its line on
    every segment where some shape is nonzero. The segment is cut at every
    pairwise crossing more than 1e-15 inside it, and each piece integrates
    the first line of maximal value at its midpoint, if that value is
    positive. A shape that is 0 on a segment has the line y = 0, which
    crosses another line at its root.

    The shapes are taken in label order, so the centroid depends only on
    the clips, not on the order they were inserted. An aggregate of one or
    two shapes takes `_two_shape_centroid`, a lone shape as the pair of
    itself with itself. Three or more shapes take the column integrator
    `_coa_columns` as one column.
    """
    clips = agg.clips
    if not clips:
        return 0.0
    if len(clips) > 2:
        labels, heights = zip(*sorted(clips.items()))
        return float(_coa_columns(np.array(labels)[:, None] + 3, np.array(heights)[:, None])[0])
    lo, hi = CENTERS[0], CENTERS[-1]
    w = HALF_WIDTH

    shapes = []
    breakpoints = {lo, hi}
    for label, clip in clips.items():
        c = CENTERS[label + 3]
        flat = w * (1.0 - clip)
        breakpoints.update((c - w, c - flat, c + flat, c + w))
        shapes.append((c, clip))
    xs = sorted(breakpoints)
    if xs[0] != lo or xs[-1] != hi:  # the outer kinks of NL and PL
        xs = xs[xs.index(lo) : xs.index(hi) + 1]
    (c1, h1), (c2, h2) = shapes[0], shapes[-1]
    if c2 < c1:
        c1, h1, c2, h2 = c2, h2, c1, h1
    return _two_shape_centroid(xs, c1, h1, c2, h2)


def _two_shape_centroid(xs: List[float], c1: float, h1: float, c2: float, h2: float) -> float:
    """defuzzify_coa's rule on the breakpoints xs of two shapes centred at
    c1 and c2 and clipped at h1, h2 >= 0, bit for bit: each segment holds
    two lines and at most one crossing.
    """
    w = HALF_WIDTH
    area = moment = 0.0
    # The first segment, [lo, lo], is empty.
    a = xs[0]
    fa1 = fa2 = 0.0
    for b in xs:
        t = 1.0 - abs(b - c1) / w
        fb1 = (t if t < h1 else h1) if t > 0.0 else 0.0
        t = 1.0 - abs(b - c2) / w
        fb2 = (t if t < h2 else h2) if t > 0.0 else 0.0
        span = b - a
        if span > 1e-15 and (fa1 or fb1 or fa2 or fb2):
            m1 = (fb1 - fa1) / span
            q1 = fa1 - m1 * a
            m2 = (fb2 - fa2) / span
            q2 = fa2 - m2 * a
            x = (q2 - q1) / (m1 - m2) if m1 != m2 else b
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
# The universe's ends, two breakpoints of every aggregate.
_ENDS = np.array([[CENTERS[0]], [CENTERS[-1]]])


@np.errstate(all="ignore")
def _coa_columns(labels: np.ndarray, clips: np.ndarray) -> np.ndarray:
    """defuzzify_coa of n aggregates of at most k shapes, bit for bit.

    `labels` holds the label indices (0..6) of each aggregate's shapes and
    `clips` their heights, as (k, n) arrays in label order.
    A column of fewer shapes repeats its first: the copy's kinks and cuts
    only add empty pieces, and its line never strictly wins the max. The
    heights are >= 0, or NaN after a NaN input, which adds nothing: +0.0.
    The segment rule is kept in three ways:
    - Each shape adds all four kinks, those beyond the universe clamped
      onto its ends, and duplicate breakpoints are kept. Both make
      zero-length segments, which the 1e-15 test skips as the set and the
      trim do.
    - Each segment holds one piece per pair of shapes and one more, cut at
      its sorted crossings; a crossing that is not inside moves to the
      segment's end and leaves an empty piece.
    - Pieces that add nothing add +0.0, and the sums run in piece order
      from +0.0, so they equal the scalar running sums: along the rows with
      `np.add.accumulate`, since `np.add.reduce` pairs the rows of a single
      column differently.
    The cubes need no care: `np.float_power` rounds as the scalar `**` does.
    """
    w = HALF_WIDTH
    lo, hi = CENTERS[0], CENTERS[-1]
    k, n = clips.shape
    centre = _CENTER_ROW[labels]
    flat = w * (1.0 - clips)
    xs = np.concatenate((_ENDS.repeat(n, axis=1), centre - w, centre - flat, centre + flat, centre + w))
    xs = np.minimum(np.maximum(xs, lo), hi)
    xs.sort(axis=0)

    # Each shape's value at each of the 4k + 2 breakpoints, (k, 4k + 2, n),
    # and its line on each of the 4k + 1 segments [a, b], (k, 4k + 1, n).
    f = np.minimum(np.maximum(1.0 - np.abs(xs - centre[:, None, :]) / w, 0.0), clips[:, None, :])
    a = xs[:-1]
    b = xs[1:]
    slope = (f[:, 1:] - f[:, :-1]) / (b - a)
    icpt = f[:, :-1] - slope * a
    # Where shapes i < j cross, by j - i; parallel lines give inf or NaN,
    # which never lies inside.
    cut = (icpt[1:] - icpt[:-1]) / (slope[:-1] - slope[1:])
    if k > 2:
        cut = np.concatenate((cut, *((icpt[d:] - icpt[:-d]) / (slope[:-d] - slope[d:]) for d in range(2, k))))
    cut = np.where((a + 1e-15 < cut) & (cut < b - 1e-15), cut, b)
    cut.sort(axis=0)

    # The pieces [p, r] run between the bounds x0, x0's cuts, x1, ..., x(4k+1).
    pieces = len(a) * (len(cut) + 1)
    bounds = np.concatenate((a[None], cut)).transpose(1, 0, 2).reshape(pieces, n)
    bounds = np.concatenate((bounds, xs[-1:]))
    p = bounds[:-1]
    r = bounds[1:]
    slope, icpt = np.repeat(slope, len(cut) + 1, axis=1), np.repeat(icpt, len(cut) + 1, axis=1)
    mid = 0.5 * (p + r)
    m, q = slope[0], icpt[0]
    top = m * mid + q
    for mk, qk in zip(slope[1:], icpt[1:]):
        v = mk * mid + qk
        wins = v > top
        m, q, top = np.where(wins, mk, m), np.where(wins, qk, q), np.where(wins, v, top)
    adds = (r - p > 1e-15) & (top > 0.0)
    squares = r * r - p * p
    cubes = np.float_power(bounds, 3.0)
    sums = np.zeros((2, len(bounds), n))
    np.copyto(sums[0, 1:], 0.5 * m * squares + q * (r - p), where=adds)
    np.copyto(sums[1, 1:], m * (cubes[1:] - cubes[:-1]) / 3.0 + 0.5 * q * squares, where=adds)
    area, moment = np.add.accumulate(sums, axis=1)[:, -1]
    return np.where(area > _EMPTY_AGGREGATE_AREA, moment / area, 0.0)
