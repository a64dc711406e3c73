import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcemotion.fuzzy import (
    AggregatedOutput,
    FuzzyInference,
    FuzzySet,
    Label,
    MembershipFamily,
    RuleBase,
    defuzzify_coa,
    fire_rules,
    fuzzify,
    infer,
)

import oracles
from table_fixture import RULE_TABLE_CELLS

FAMILY = MembershipFamily()
RULES = RuleBase.default()


class TestLabels:
    def test_total_order(self):
        assert list(Label) == sorted(Label)
        assert Label.NL < Label.NM < Label.NS < Label.ZR < Label.PS < Label.PM < Label.PL

    @pytest.mark.parametrize(
        "label,expected",
        [(Label.NL, Label.PL), (Label.NM, Label.PM), (Label.NS, Label.PS), (Label.ZR, Label.ZR)],
    )
    def test_negate(self, label, expected):
        assert label.negate() is expected
        assert expected.negate() is label


class TestMembershipFamily:
    def test_default_layout(self):
        assert FAMILY.centers[3] == 0.0
        assert FAMILY.center(Label.ZR) == 0.0
        assert FAMILY.center(Label.PL) == 1.0
        assert FAMILY.half_width == pytest.approx(1 / 3)

    def test_rejects_bad_centers(self):
        with pytest.raises(ValueError):
            MembershipFamily(centers=(0, 1, 2, 3, 4, 5, 6))
        with pytest.raises(ValueError):
            MembershipFamily(centers=(-1, -0.5, -0.2, 0.0, 0.2, 0.1, 1.0))
        with pytest.raises(ValueError):
            MembershipFamily(half_width=0.0)
        with pytest.raises(ValueError, match="evenly spaced"):
            MembershipFamily(centers=(-1, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0))
        with pytest.raises(ValueError, match="half_width"):
            MembershipFamily(half_width=0.5)

    def test_narrow_family_keeps_partition_of_unity(self):
        family = MembershipFamily(
            centers=(-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9), half_width=0.3
        )
        for x in np.linspace(-1.0, 1.0, 101):
            assert sum(fuzzify(float(x), family).degrees.values()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_shoulders_saturate(self):
        assert FAMILY.membership(Label.NL, -5.0) == 1.0
        assert FAMILY.membership(Label.PL, 5.0) == 1.0
        assert FAMILY.membership(Label.NL, -2 / 3) == 0.0


class TestFuzzify:
    def test_center_of_zr(self):
        fs = fuzzify(0.0, FAMILY)
        assert fs.degree(Label.ZR) == 1.0
        assert all(fs.degree(l) == 0.0 for l in Label if l is not Label.ZR)

    def test_clamped_beyond_pl(self):
        fs = fuzzify(1.7, FAMILY)
        assert fs.degree(Label.PL) == 1.0
        assert sum(fs.degrees.values()) == 1.0

    def test_midpoint_splits_evenly(self):
        # Derived with the independent piecewise-linear evaluator.
        reference = oracles.fuzzify_reference(0.5)
        assert reference["PS"] == pytest.approx(0.5, abs=1e-12)
        assert reference["PM"] == pytest.approx(0.5, abs=1e-12)
        fs = fuzzify(0.5, FAMILY)
        assert fs.degree(Label.PS) == pytest.approx(0.5, abs=1e-12)
        assert fs.degree(Label.PM) == pytest.approx(0.5, abs=1e-12)
        assert fs.degree(Label.ZR) == 0.0

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, x):
        fs = fuzzify(x, FAMILY)
        assert sum(fs.degrees.values()) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_at_most_two_adjacent_labels(self, x):
        fs = fuzzify(x, FAMILY)
        nonzero = sorted(l.value for l in fs.degrees)
        assert 1 <= len(nonzero) <= 2
        if len(nonzero) == 2:
            assert nonzero[1] - nonzero[0] == 1

    def test_matches_reference_evaluator_on_grid(self):
        for x in np.linspace(-1.0, 1.0, 201):
            reference = oracles.fuzzify_reference(float(x))
            fs = fuzzify(float(x), FAMILY)
            for label in Label:
                assert fs.degree(label) == pytest.approx(reference[label.name], abs=1e-12)


class TestRuleBase:
    def test_default_matches_hand_transcription(self):
        for (e_name, de_name), out_name in RULE_TABLE_CELLS.items():
            assert RULES.lookup(Label[e_name], Label[de_name]) is Label[out_name]

    def test_lookup_examples(self):
        assert RULES.lookup(Label.ZR, Label.ZR) is Label.ZR
        assert RULES.lookup(Label.NL, Label.PL) is Label.NL
        assert RULES.lookup(Label.PL, Label.NL) is Label.PL

    def test_antisymmetry(self):
        for e in Label:
            for de in Label:
                mirrored = RULES.lookup(e.negate(), de.negate())
                assert mirrored is RULES.lookup(e, de).negate()

    def test_row_monotone_in_e(self):
        for de in Label:
            outputs = [RULES.lookup(e, de) for e in sorted(Label)]
            assert outputs == sorted(outputs)

    def test_zero_error_column(self):
        for de in Label:
            assert RULES.lookup(Label.ZR, de) is Label.ZR

    def test_incomplete_table_rejected(self):
        table = dict(RuleBase.default().table)
        table.pop((Label.ZR, Label.ZR))
        with pytest.raises(ValueError, match="incomplete"):
            RuleBase(table)

    def test_parse_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="expected 7 labels"):
            RuleBase.parse("nl nm ns zr ps pm\n" * 7)
        with pytest.raises(ValueError, match="unknown label"):
            RuleBase.parse("nl nm ns zr ps pm xx\n" * 7)
        with pytest.raises(ValueError, match="rule rows"):
            RuleBase.parse("nl nm ns zr ps pm pl\n" * 6)

    def test_file_round_trip(self, tmp_path):
        grid = tmp_path / "rules.txt"
        grid.write_text(
            "# rows: de from PL to NL, columns: e from NL to PL\n"
            "nl nm ns zr pm pl pl\n"
            "nl nl nm zr pm pl pl\n"
            "nl nl ns zr ps pl pl\n"
            "nl nm ns zr ps pm pl\n"
            "nl nl ns zr ps pl pl\n"
            "nl nl nm zr pm pl pl\n"
            "nl nl nm zr ps pm pl\n"
        )
        assert RuleBase.from_file(grid).table == RULES.table


class TestInfer:
    def test_single_rule_full_strength(self):
        agg = infer(FuzzySet({Label.ZR: 1.0}), FuzzySet({Label.ZR: 1.0}), RULES, FAMILY)
        assert agg.clips == {Label.ZR: 1.0}

    def test_saturated_positive_corner(self):
        agg = infer(FuzzySet({Label.PL: 1.0}), FuzzySet({Label.PL: 1.0}), RULES, FAMILY)
        assert agg.clips == {Label.PL: 1.0}

    def test_two_rule_split(self):
        # Hand enumeration of the de = ZR row: (PS, ZR) -> ps, (PM, ZR) -> pm.
        e_set = FuzzySet({Label.PS: 0.5, Label.PM: 0.5})
        agg = infer(e_set, FuzzySet({Label.ZR: 1.0}), RULES, FAMILY)
        assert agg.clips == {Label.PS: 0.5, Label.PM: 0.5}

    def test_firings_report_strengths(self):
        e_set = FuzzySet({Label.PS: 0.5, Label.PM: 0.5})
        firings = fire_rules(e_set, FuzzySet({Label.ZR: 1.0}), RULES)
        assert {(f.e_label, f.out_label, f.strength) for f in firings} == {
            (Label.PS, Label.PS, 0.5),
            (Label.PM, Label.PM, 0.5),
        }

    def test_zero_error_input_builds_only_zr_shapes(self):
        for de_norm in np.linspace(-1.0, 1.0, 21):
            agg = infer(
                FuzzySet({Label.ZR: 1.0}), fuzzify(float(de_norm), FAMILY), RULES, FAMILY
            )
            assert set(agg.clips) == {Label.ZR}


class TestDefuzzify:
    def test_symmetric_shape_centers_on_zero(self):
        agg = AggregatedOutput(FAMILY, {Label.ZR: 1.0})
        assert defuzzify_coa(agg) == pytest.approx(0.0, abs=1e-9)

    def test_antisymmetric_aggregate_is_zero(self):
        agg = AggregatedOutput(FAMILY, {Label.NL: 0.7, Label.PL: 0.7})
        assert defuzzify_coa(agg) == pytest.approx(0.0, abs=1e-9)

    def test_saturated_shoulder_matches_oracle(self):
        agg = AggregatedOutput(FAMILY, {Label.PL: 1.0})
        expected = oracles.riemann_coa({6: 1.0})
        value = defuzzify_coa(agg)
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(8 / 9, abs=1e-12)

    def test_no_rule_fired_returns_zero(self):
        assert defuzzify_coa(AggregatedOutput(FAMILY, {})) == 0.0

    def test_oracle_equivalence_on_random_sets(self):
        rng = np.random.default_rng(411)
        for _ in range(100):
            count = int(rng.integers(1, 5))
            labels = rng.choice(7, size=count, replace=False)
            clips = {int(i): float(rng.uniform(0.05, 1.0)) for i in labels}
            agg = AggregatedOutput(FAMILY, {Label(i - 3): c for i, c in clips.items()})
            assert defuzzify_coa(agg) == pytest.approx(
                oracles.riemann_coa(clips), abs=1e-6
            )

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=7,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_universe(self, clips):
        agg = AggregatedOutput(FAMILY, {Label(i - 3): c for i, c in clips.items()})
        assert -1.0 <= defuzzify_coa(agg) <= 1.0


class TestPipeline:
    ENGINE = FuzzyInference()

    def test_zero_fixed_point(self):
        assert abs(self.ENGINE.output(0.0, 0.0)) <= 1e-9

    def test_end_to_end_antisymmetry_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 41)
        for e in grid:
            for de in grid:
                forward = self.ENGINE.output(float(e), float(de))
                backward = self.ENGINE.output(float(-e), float(-de))
                assert forward == pytest.approx(-backward, abs=1e-9)

    def test_output_bounded(self):
        grid = np.linspace(-1.5, 1.5, 31)
        for e in grid:
            for de in grid:
                assert -1.0 <= self.ENGINE.output(float(e), float(de)) <= 1.0


class TestBitExactness:
    """The engine's floating-point results are pinned bit for bit.

    The preset traces are pinned by hash (tests/test_golden.py), and a
    last-bit change in one centroid goes round the contact loop into the
    printed CSV. These digests were recorded from the segment-and-crossing
    integrator; an optimisation of the engine must reproduce them exactly.
    """

    @staticmethod
    def _digest(values):
        return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()

    def test_output_surface_digest(self):
        # 241 x 241 grid of [-1.2, 1.2]^2, which includes saturated inputs.
        engine = FuzzyInference()
        grid = np.linspace(-1.2, 1.2, 241)
        values = [engine.output(float(e), float(de)) for e in grid for de in grid]
        assert self._digest(values) == (
            "baecb6e86414c9e8044ab0e08e1ddfe62475683fd97584a19c3381f60c62ab5b"
        )

    def test_defuzzify_digest_on_random_clip_sets(self):
        # Arbitrary label subsets and heights (exactly 0 and 1 included),
        # most of which no partitioned input pair can produce.
        rng = np.random.default_rng(2211)
        values = []
        for _ in range(5000):
            count = int(rng.integers(1, 8))
            labels = rng.choice(7, size=count, replace=False)
            heights = rng.uniform(0.0, 1.0, size=count)
            heights[rng.random(count) < 0.2] = 1.0
            heights[rng.random(count) < 0.05] = 0.0
            clips = {Label(int(i) - 3): float(h) for i, h in zip(labels, heights)}
            values.append(defuzzify_coa(AggregatedOutput(FAMILY, clips)))
        assert self._digest(values) == (
            "cdd4edb0cb7ba17408c5028c799a405f43229c2c4eaf680dd53215cf54715c2e"
        )

    # Heights at the edges of the arithmetic: 0, the smallest subnormal, the
    # largest double below 1, 1, and values whose single-label area straddles
    # the 1e-12 empty-aggregate threshold (a lone inner label has area ~2h/3).
    EDGE_HEIGHTS = (
        0.0,
        5e-324,
        1e-12,
        np.nextafter(1.5e-12, 0.0),
        1.5e-12,
        np.nextafter(1.5e-12, 1.0),
        3e-12,
        1e-6,
        0.25,
        1 / 3,
        0.5,
        2 / 3,
        1.0 - 2.0**-53,
        1.0,
    )

    @classmethod
    def _edge_case_clip_sets(cls):
        heights = [float(h) for h in cls.EDGE_HEIGHTS]
        labels = list(Label)
        sets = []
        # Every single label at every height.
        sets += [{label: h} for label in labels for h in heights]
        # The two shoulders together, in both insertion orders.
        for h1 in heights:
            for h2 in heights:
                sets.append({Label.NL: h1, Label.PL: h2})
                sets.append({Label.PL: h2, Label.NL: h1})
        # Adjacent labels, equal heights and then every ordered pair of heights.
        for left, right in zip(labels, labels[1:]):
            sets += [{left: h, right: h} for h in heights]
            sets += [{right: h2, left: h1} for h1 in heights for h2 in heights]
        # All seven labels: equal heights, then heights drawn from the edge set.
        sets += [{label: h for label in labels} for h in heights]
        rng = np.random.default_rng(7)
        for _ in range(500):
            order = rng.permutation(7)
            picks = rng.integers(0, len(heights), 7)
            sets.append({labels[i]: heights[j] for i, j in zip(order, picks)})
        # Random subsets with edge heights, equal neighbours made likely.
        for _ in range(2000):
            count = int(rng.integers(1, 8))
            chosen = rng.choice(7, size=count, replace=False)
            picks = rng.integers(0, len(heights), count)
            if count > 1 and rng.random() < 0.5:
                picks[1:] = picks[0]
            sets.append({labels[i]: heights[j] for i, j in zip(chosen, picks)})
        return sets

    def test_defuzzify_digest_on_edge_case_clip_sets(self):
        sets = self._edge_case_clip_sets()
        values = [defuzzify_coa(AggregatedOutput(FAMILY, clips)) for clips in sets]
        assert len(values) == 4264
        assert self._digest(values) == (
            "9de5c4807444418dad6b9c4749305bd72361ee8a740c0414a4150c3be46f8656"
        )

    def test_matches_reference_integrator_bit_for_bit(self):
        # Heights spread over every binade down to the subnormals, where the
        # line of a shape that is 0 on a segment can still cut it.
        rng = np.random.default_rng(5)
        edge = np.array(self.EDGE_HEIGHTS)
        for _ in range(3000):
            count = int(rng.integers(1, 8))
            indices = rng.choice(7, size=count, replace=False)
            heights = np.where(
                rng.random(count) < 0.5,
                10.0 ** rng.uniform(-323.0, 0.0, count),
                rng.choice(edge, count),
            )
            clips = {int(i): float(h) for i, h in zip(indices, heights)}
            value = defuzzify_coa(
                AggregatedOutput(FAMILY, {Label(i - 3): h for i, h in clips.items()})
            )
            assert value.hex() == oracles.segment_crossing_coa(clips).hex(), clips

    @pytest.mark.parametrize(
        "clips",
        [
            {Label.ZR: 1.0},
            {Label.NL: 0.7, Label.PL: 0.7},
            {Label.NS: 0.4, Label.PS: 0.4},
            {Label.NM: 0.3, Label.ZR: 0.5, Label.PM: 0.3},
        ],
    )
    def test_symmetric_aggregates_are_exactly_zero(self, clips):
        assert defuzzify_coa(AggregatedOutput(FAMILY, clips)) == 0.0
