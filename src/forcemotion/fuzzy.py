"""Mamdani fuzzy inference on a normalized universe.

Seven-label linguistic variables on [-1, 1], a 7x7 PI-type rule table,
min/max (clip and pointwise-maximum) inference, and center-of-area
defuzzification. All types are immutable after construction and all
operations are pure functions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

UNIVERSE_MIN = -1.0
UNIVERSE_MAX = 1.0

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

    def negate(self) -> "Label":
        """Mirror the label about ZR (NL <-> PL, NM <-> PM, ...)."""
        return Label(-self.value)


LABELS: Tuple[Label, ...] = tuple(Label)
_N_LABELS = len(LABELS)
_NL, _PL = Label.NL, Label.PL


@dataclass(frozen=True)
class MembershipFamily:
    """Triangular membership functions with saturating outer shoulders.

    Seven centers on [-1, 1], symmetric about 0. With the default layout
    (evenly spaced centers, half_width equal to the spacing) adjacent
    triangles overlap at 50% and the degrees of any point sum to 1.
    """

    centers: Tuple[float, ...] = (-1.0, -2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3, 1.0)
    half_width: float = 1 / 3

    def __post_init__(self) -> None:
        if len(self.centers) != len(LABELS):
            raise ValueError(f"expected {len(LABELS)} centers, got {len(self.centers)}")
        if any(b <= a for a, b in zip(self.centers, self.centers[1:])):
            raise ValueError("centers must be strictly increasing")
        mid = self.centers[len(LABELS) // 2]
        if mid != 0.0:
            raise ValueError(f"center of ZR must be 0, got {mid}")
        for low, high in zip(self.centers, reversed(self.centers)):
            if abs(low + high) > 1e-12:
                raise ValueError("centers must be symmetric about 0")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        # Partition of unity needs even spacing matched by the half width.
        spacing = self.centers[1] - self.centers[0]
        for a, b in zip(self.centers, self.centers[1:]):
            if abs((b - a) - spacing) > 1e-12:
                raise ValueError("centers must be evenly spaced")
        if abs(self.half_width - spacing) > 1e-12:
            raise ValueError("half_width must equal the center spacing")

    def center(self, label: Label) -> float:
        return self.centers[label.value + 3]

    def membership(self, label: Label, x: float) -> float:
        """Degree of `x` in `label`: triangle, saturated beyond the end centers."""
        if label is Label.NL and x <= self.centers[0]:
            return 1.0
        if label is Label.PL and x >= self.centers[-1]:
            return 1.0
        t = 1.0 - abs(x - self.center(label)) / self.half_width
        return t if t > 0.0 else 0.0


@dataclass(frozen=True)
class FuzzySet:
    """Membership degrees per label; zero-degree labels are omitted."""

    degrees: Dict[Label, float]

    def __post_init__(self) -> None:
        for label, degree in self.degrees.items():
            if not 0.0 <= degree <= 1.0:
                raise ValueError(f"degree of {label.name} out of [0, 1]: {degree}")

    def degree(self, label: Label) -> float:
        return self.degrees.get(label, 0.0)


def fuzzify(x: float, family: MembershipFamily) -> FuzzySet:
    """Map a crisp value to membership degrees, clamping x to the universe.

    Gives the degrees of `MembershipFamily.membership`, bit for bit. Only
    labels whose center is within one spacing of x can be nonzero, so the
    triangle is evaluated for the four labels k-1 .. k+2 around the center
    k at or below x, a one-label margin on each side. Once x is clamped, a
    shoulder equals its triangle (both are 1.0 at the end center).
    """
    centers = family.centers
    lo = centers[0]
    x = min(max(x, lo), centers[-1])
    degrees = {}
    if x == x:  # NaN has degree 0 in every label
        w = family.half_width
        k = int((x - lo) / w)
        for i in range(max(k - 1, 0), min(k + 3, _N_LABELS)):
            t = 1.0 - abs(x - centers[i]) / w
            if t > 0.0:
                degrees[LABELS[i]] = t
    return FuzzySet(degrees)


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
    """Complete (e_label, de_label) -> output label map."""

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

    def lookup(self, e_label: Label, de_label: Label) -> Label:
        return self.table[(e_label, de_label)]

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


class RuleFiring(NamedTuple):
    """One fired rule: antecedent labels, consequent label, min-AND strength."""

    e_label: Label
    de_label: Label
    out_label: Label
    strength: float


def fire_rules(e_set: FuzzySet, de_set: FuzzySet, rules: RuleBase) -> List[RuleFiring]:
    """Evaluate every rule whose antecedents both have nonzero degree."""
    table = rules.table
    de_degrees = de_set.degrees.items()
    firings = []
    for e_label, mu_e in e_set.degrees.items():
        for de_label, mu_de in de_degrees:
            strength = mu_de if mu_de < mu_e else mu_e
            if strength > 0.0:
                firings.append(RuleFiring(e_label, de_label, table[e_label, de_label], strength))
    return firings


@dataclass(frozen=True)
class AggregatedOutput:
    """Clipped output shapes combined by pointwise maximum.

    `clips` maps each output label to the largest firing strength that
    clipped it; labels that never fired are omitted.
    """

    family: MembershipFamily
    clips: Dict[Label, float]

    def __post_init__(self) -> None:
        for label, clip in self.clips.items():
            if not 0.0 <= clip <= 1.0:
                raise ValueError(f"clip of {label.name} out of [0, 1]: {clip}")


def infer(
    e_set: FuzzySet,
    de_set: FuzzySet,
    rules: RuleBase,
    out_family: MembershipFamily,
) -> AggregatedOutput:
    """Mamdani inference: min-AND firing, clip implication, max aggregation."""
    clips: Dict[Label, float] = {}
    for _, _, out_label, strength in fire_rules(e_set, de_set, rules):
        if strength > clips.get(out_label, 0.0):
            clips[out_label] = strength
    return AggregatedOutput(out_family, clips)


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
    value is integrated on each piece; the two lines of a two-shape
    aggregate get their one crossing without a search.
    """
    clips = agg.clips
    if not clips:
        return 0.0
    family = agg.family
    centers = family.centers
    lo, hi = centers[0], centers[-1]
    w = family.half_width

    shapes = []
    breakpoints = {lo, hi}
    for label, clip in clips.items():
        c = centers[label + 3]
        flat = w * (1.0 - clip)
        if label is _NL:
            breakpoints.update((c + flat, c + w))
        elif label is _PL:
            breakpoints.update((c - w, c - flat))
        else:
            breakpoints.update((c - w, c - flat, c + flat, c + w))
        # A shape clipped at 0 is 0 everywhere, so it is never live.
        if clip > 0.0:
            shapes.append((c, clip, 1 << len(shapes)))
    if not shapes:
        return 0.0
    # A segment's live mask differs from `full` when some shape is 0 at both
    # of its ends. A shape clipped at 0 is so on every segment.
    full = (1 << len(shapes)) - 1 if len(shapes) == len(clips) else -1
    xs = sorted(breakpoints)
    if xs[0] != lo or xs[-1] != hi:  # kinks beyond the universe
        xs = xs[xs.index(lo) : xs.index(hi) + 1]

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
            elif full == 3:
                # Both lines of a two-shape aggregate with no shape clipped at
                # 0, so neither is dead. The common case, on the overlap of
                # adjacent labels: one crossing, no search or sort.
                (fa1, fa2), (fb1, fb2) = fas, fbs
                m1 = (fb1 - fa1) / span
                q1 = fa1 - m1 * a
                m2 = (fb2 - fa2) / span
                q2 = fa2 - m2 * a
                lines = [(m1, q1), (m2, q2)]
                cuts = [b]
                if m1 != m2:
                    x = (q2 - q1) / (m1 - m2)
                    if inner_lo < x < inner_hi:
                        cuts = [x, b]
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


@dataclass(frozen=True)
class FuzzyInference:
    """Bundled engine: families plus rule base, from normalized inputs to output.

    `output` runs the full fuzzify -> infer -> defuzzify pipeline on
    already-scaled inputs and returns a crisp value in [-1, 1].
    """

    input_family: MembershipFamily = MembershipFamily()
    output_family: MembershipFamily = MembershipFamily()
    rules: RuleBase = field(default_factory=RuleBase.default)

    def aggregate(self, e_norm: float, de_norm: float) -> AggregatedOutput:
        e_set = fuzzify(e_norm, self.input_family)
        de_set = fuzzify(de_norm, self.input_family)
        return infer(e_set, de_set, self.rules, self.output_family)

    def firings(self, e_norm: float, de_norm: float) -> List[RuleFiring]:
        e_set = fuzzify(e_norm, self.input_family)
        de_set = fuzzify(de_norm, self.input_family)
        return fire_rules(e_set, de_set, self.rules)

    def output(self, e_norm: float, de_norm: float) -> float:
        family = self.input_family
        return defuzzify_coa(
            infer(fuzzify(e_norm, family), fuzzify(de_norm, family), self.rules, self.output_family)
        )
