import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcemotion.fuzzy import (
    CENTERS,
    HALF_WIDTH,
    AggregatedOutput,
    Label,
    RuleBase,
    _two_shape_coa,
    defuzzify_coa,
    fire_rules,
    fuzzify,
    infer,
)

import oracles
from table_fixture import RULE_TABLE_CELLS

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
        assert Label(-label) is expected
        assert Label(-expected) is label


class TestMembershipFamily:
    def test_shoulders_saturate(self):
        assert fuzzify(-5.0) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert fuzzify(5.0) == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert fuzzify(-2 / 3)[Label.NL + 3] == 0.0


class TestFuzzify:
    def test_center_of_zr(self):
        degrees = fuzzify(0.0)
        assert degrees[Label.ZR + 3] == 1.0
        assert all(degrees[l + 3] == 0.0 for l in Label if l is not Label.ZR)

    def test_clamped_beyond_pl(self):
        degrees = fuzzify(1.7)
        assert degrees[Label.PL + 3] == 1.0
        assert sum(degrees) == 1.0

    def test_midpoint_splits_evenly(self):
        # Derived with the independent piecewise-linear evaluator.
        reference = oracles.fuzzify_reference(0.5)
        assert reference["PS"] == pytest.approx(0.5, abs=1e-12)
        assert reference["PM"] == pytest.approx(0.5, abs=1e-12)
        degrees = fuzzify(0.5)
        assert degrees[Label.PS + 3] == pytest.approx(0.5, abs=1e-12)
        assert degrees[Label.PM + 3] == pytest.approx(0.5, abs=1e-12)
        assert degrees[Label.ZR + 3] == 0.0

    @pytest.mark.parametrize(
        "x,expected",
        [
            (float("nan"), [0.0] * 7),
            (float("inf"), [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            (float("-inf"), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_non_finite_input(self, x, expected):
        assert fuzzify(x) == expected

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, x):
        assert sum(fuzzify(x)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_at_most_two_adjacent_labels(self, x):
        degrees = fuzzify(x)
        nonzero = [l.value for l in Label if degrees[l + 3] > 0.0]
        assert 1 <= len(nonzero) <= 2
        if len(nonzero) == 2:
            assert nonzero[1] - nonzero[0] == 1

    def test_matches_reference_evaluator_on_grid(self):
        for x in np.linspace(-1.0, 1.0, 201):
            reference = oracles.fuzzify_reference(float(x))
            degrees = fuzzify(float(x))
            for label in Label:
                assert degrees[label + 3] == pytest.approx(reference[label.name], abs=1e-12)


    def test_returns_seven_floats_in_label_order(self):
        degrees = fuzzify(0.25)
        assert type(degrees) is list and len(degrees) == 7
        assert all(type(d) is float for d in degrees)

    def test_equals_the_triangle_formula_bit_for_bit(self):
        # RuleBase.outputs evaluates every label's triangle on the clamped
        # input; fuzzify must give the same bits in all seven slots.
        special = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.5, -1.5, 1e300, -1e300, np.inf, -np.inf]
        centres = [np.nextafter(c, d) for c in CENTERS for d in (-np.inf, np.inf)] + list(CENTERS)
        x = np.concatenate((np.linspace(-1.2, 1.2, 24001), special, centres))
        clamped = np.minimum(np.maximum(x, -1.0), 1.0)
        want = np.maximum(1.0 - np.abs(clamped[:, None] - np.array(CENTERS)) / HALF_WIDTH, 0.0)
        got = np.array([fuzzify(v) for v in x.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRuleBase:
    def test_default_matches_hand_transcription(self):
        for (e_name, de_name), out_name in RULE_TABLE_CELLS.items():
            assert RULES.table[Label[e_name], Label[de_name]] is Label[out_name]

    def test_lookup_examples(self):
        assert RULES.table[Label.ZR, Label.ZR] is Label.ZR
        assert RULES.table[Label.NL, Label.PL] is Label.NL
        assert RULES.table[Label.PL, Label.NL] is Label.PL

    def test_antisymmetry(self):
        for e in Label:
            for de in Label:
                mirrored = RULES.table[Label(-e), Label(-de)]
                assert mirrored is Label(-RULES.table[e, de])

    def test_row_monotone_in_e(self):
        for de in Label:
            outputs = [RULES.table[e, de] for e in sorted(Label)]
            assert outputs == sorted(outputs)

    def test_zero_error_column(self):
        for de in Label:
            assert RULES.table[Label.ZR, de] is Label.ZR

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


# Degree vectors in label order, NL .. PL.
ZR_ONLY = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
PS_PM_HALVES = [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0]


class TestInfer:
    def test_single_rule_full_strength(self):
        agg = infer(ZR_ONLY, ZR_ONLY, RULES)
        assert agg.clips == {Label.ZR: 1.0}

    def test_saturated_positive_corner(self):
        pl_only = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        agg = infer(pl_only, pl_only, RULES)
        assert agg.clips == {Label.PL: 1.0}

    def test_two_rule_split(self):
        # Hand enumeration of the de = ZR row: (PS, ZR) -> ps, (PM, ZR) -> pm.
        agg = infer(PS_PM_HALVES, ZR_ONLY, RULES)
        assert agg.clips == {Label.PS: 0.5, Label.PM: 0.5}

    def test_firings_report_strengths(self):
        firings = fire_rules(PS_PM_HALVES, ZR_ONLY, RULES)
        assert {(f.e_label, f.out_label, f.strength) for f in firings} == {
            (Label.PS, Label.PS, 0.5),
            (Label.PM, Label.PM, 0.5),
        }

    def test_zero_error_input_builds_only_zr_shapes(self):
        for de_norm in np.linspace(-1.0, 1.0, 21):
            agg = infer(ZR_ONLY, fuzzify(float(de_norm)), RULES)
            assert set(agg.clips) == {Label.ZR}


class TestDefuzzify:
    def test_symmetric_shape_centers_on_zero(self):
        agg = AggregatedOutput({Label.ZR: 1.0})
        assert defuzzify_coa(agg) == pytest.approx(0.0, abs=1e-9)

    def test_antisymmetric_aggregate_is_zero(self):
        agg = AggregatedOutput({Label.NL: 0.7, Label.PL: 0.7})
        assert defuzzify_coa(agg) == pytest.approx(0.0, abs=1e-9)

    def test_saturated_shoulder_matches_oracle(self):
        agg = AggregatedOutput({Label.PL: 1.0})
        expected = oracles.riemann_coa({6: 1.0})
        value = defuzzify_coa(agg)
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(8 / 9, abs=1e-12)

    @pytest.mark.parametrize("clip", [-0.1, 1.5, np.nan])
    def test_clip_outside_unit_interval_rejected(self, clip):
        with pytest.raises(ValueError, match=r"^clip of PS out of \[0, 1\]"):
            AggregatedOutput({Label.ZR: 0.5, Label.PS: clip})

    def test_no_rule_fired_returns_zero(self):
        assert defuzzify_coa(AggregatedOutput({})) == 0.0

    def test_oracle_equivalence_on_random_sets(self):
        rng = np.random.default_rng(411)
        for _ in range(100):
            count = int(rng.integers(1, 5))
            labels = rng.choice(7, size=count, replace=False)
            clips = {int(i): float(rng.uniform(0.05, 1.0)) for i in labels}
            agg = AggregatedOutput({Label(i - 3): c for i, c in clips.items()})
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
        agg = AggregatedOutput({Label(i - 3): c for i, c in clips.items()})
        assert -1.0 <= defuzzify_coa(agg) <= 1.0


class TestPipeline:
    ENGINE = RuleBase.default()

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

    # 241 x 241 grid of [-1.2, 1.2]^2, which includes saturated inputs.
    SURFACE = np.linspace(-1.2, 1.2, 241)
    SURFACE_DIGEST = "baecb6e86414c9e8044ab0e08e1ddfe62475683fd97584a19c3381f60c62ab5b"

    def test_output_surface_digest(self):
        engine = RuleBase.default()
        values = [engine.output(float(e), float(de)) for e in self.SURFACE for de in self.SURFACE]
        assert self._digest(values) == self.SURFACE_DIGEST

    def test_column_output_surface_digest(self):
        e, de = np.meshgrid(self.SURFACE, self.SURFACE, indexing="ij")
        assert self._digest(RuleBase.default().outputs(e.ravel(), de.ravel())) == self.SURFACE_DIGEST

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
            values.append(defuzzify_coa(AggregatedOutput(clips)))
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
        values = [defuzzify_coa(AggregatedOutput(clips)) for clips in sets]
        assert len(values) == 4264
        assert self._digest(values) == (
            "9de5c4807444418dad6b9c4749305bd72361ee8a740c0414a4150c3be46f8656"
        )

    @classmethod
    def _two_shape_sets(cls):
        """(i, j, h1, h2): every ordered pair of label indices, adjacent or
        not, with positive edge heights, heights spread over every binade,
        and heights one ulp apart, whose flat tops all but tie: each piece
        must take the first line of maximal value, not the last."""
        edge = [float(h) for h in cls.EDGE_HEIGHTS if h > 0.0]
        rng = np.random.default_rng(11)
        spread = (10.0 ** rng.uniform(-323.0, 0.0, 400)).tolist() + rng.uniform(0.0, 1.0, 400).tolist()
        heights = [(h1, h2) for h1 in edge for h2 in edge] + list(zip(spread[::2], spread[1::2]))
        close = rng.uniform(0.0, 1.0, 30).tolist()
        heights += [(h, float(np.nextafter(h, 1.0))) for h in close]
        heights += [(float(np.nextafter(h, 1.0)), h) for h in close]
        pairs = [(i, j) for i in range(7) for j in range(7) if i != j]
        return [(i, j, h1, h2) for i, j in pairs for h1, h2 in heights]

    def test_matches_reference_integrator_bit_for_bit(self):
        # Heights spread over every binade down to the subnormals, where the
        # line of a shape that is 0 on a segment can still cut it.
        rng = np.random.default_rng(5)
        edge = np.array(self.EDGE_HEIGHTS)
        sets = []
        for _ in range(3000):
            count = int(rng.integers(1, 8))
            indices = rng.choice(7, size=count, replace=False)
            heights = np.where(
                rng.random(count) < 0.5,
                10.0 ** rng.uniform(-323.0, 0.0, count),
                rng.choice(edge, count),
            )
            sets.append({int(i): float(h) for i, h in zip(indices, heights)})
        # The pairs that defuzzify_coa gives its pair integrator, with both
        # clips positive and with one clip exactly 0.
        for i, j, h1, h2 in self._two_shape_sets():
            sets += [{i: h1, j: h2}, {i: 0.0, j: h2}, {i: h1, j: 0.0}]
        for clips in sets:
            value = defuzzify_coa(
                AggregatedOutput({Label(i - 3): h for i, h in clips.items()})
            )
            assert value.hex() == oracles.segment_crossing_coa(clips).hex(), clips

    def test_two_shape_integrator_matches_defuzzify_bit_for_bit(self):
        # The column engine integrates exactly these aggregates in numpy: the
        # pairs, and each lone shape (i, i, h, h) at the edge heights and at
        # heights down to the subnormals.
        rng = np.random.default_rng(13)
        heights = [float(h) for h in self.EDGE_HEIGHTS if h > 0.0]
        heights += [2.0**-1074 * k for k in (2, 3, 1000)] + [2.0**-1022, np.nextafter(2.0**-1022, 0.0)]
        heights += (10.0 ** rng.uniform(-323.0, 0.0, 60)).tolist()
        sets = self._two_shape_sets() + [(i, i, h, h) for i in range(7) for h in heights]
        labels = np.array([(i, j) for i, j, _, _ in sets]).T
        clips = np.array([(h1, h2) for _, _, h1, h2 in sets]).T
        got = _two_shape_coa(labels, clips)
        want = [
            defuzzify_coa(AggregatedOutput({Label(i - 3): h1, Label(j - 3): h2}))
            for i, j, h1, h2 in sets
        ]
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    def test_column_output_takes_no_scalar_call_for_one_or_two_shapes(self, monkeypatch):
        # One input at a label centre or saturated fires one or two rules, so
        # the aggregate is a lone shape or a pair: the column engine
        # integrates it in numpy and never calls the scalar engine. A NaN
        # input fires no rule, and its empty aggregate gives +0.0 in numpy too.
        engine = RuleBase.default()
        lone = [*CENTERS, -1.5, 1.5, -np.inf, np.inf, -0.0, np.nan]
        spread = np.concatenate((lone, np.linspace(-1.2, 1.2, 97)))
        e = np.concatenate((np.repeat(lone, len(spread)), np.tile(spread, len(lone))))
        de = np.concatenate((np.tile(spread, len(lone)), np.repeat(lone, len(spread))))
        want = [engine.output(float(a), float(b)) for a, b in zip(e, de)]
        calls = []
        output = RuleBase.output
        monkeypatch.setattr(RuleBase, "output", lambda self, a, b: calls.append((a, b)) or output(self, a, b))
        for n in (1, 2, len(e)):
            got = np.concatenate([engine.outputs(e[i : i + n], de[i : i + n]) for i in range(0, len(e), n)])
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
        assert calls == []

    def test_column_output_on_non_finite_and_signed_zero_inputs(self):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.2, -0.45]
        e, de = (v.ravel() for v in np.meshgrid(special, special, indexing="ij"))
        engine = RuleBase.default()
        want = [engine.output(float(a), float(b)) for a, b in zip(e, de)]
        got = engine.outputs(e, de)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_column_output_under_other_rule_bases(self, seed):
        # Random tables, some labels unused: other label pairs, orders of
        # first firing and clip maxima than the default table's.
        rng = np.random.default_rng(seed)
        used = rng.choice(7, size=int(rng.integers(2, 8)), replace=False)
        table = {(e, de): Label(int(rng.choice(used)) - 3) for e in Label for de in Label}
        engine = RuleBase(table)
        e = np.concatenate((rng.uniform(-1.2, 1.2, 1500), rng.normal(0.0, 0.05, 500)))
        de = np.concatenate((rng.uniform(-1.2, 1.2, 1500), rng.normal(0.0, 0.05, 500)))
        want = [engine.output(float(a), float(b)) for a, b in zip(e, de)]
        assert np.array_equal(engine.outputs(e, de).view(np.uint64), np.array(want).view(np.uint64))

    def test_float_power_cubes_as_python_does(self):
        # _two_shape_coa takes its cubes with np.float_power: it must round
        # as the scalar integrator's `**` does in every binade whose cube is
        # finite, subnormals and negatives included (np.power does not).
        rng = np.random.default_rng(3)
        exponents = np.arange(-1074, 341)
        x = np.ldexp(rng.uniform(1.0, 2.0, (len(exponents), 64)), exponents[:, None]).ravel()
        x = np.concatenate((x, -x, np.ldexp(1.0, exponents), [0.0, -0.0]))
        want = np.array([v**3 for v in x.tolist()])
        assert np.array_equal(np.float_power(x, 3.0).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_and_double_columns(self, n):
        # np.add.reduce over the rows of a single column pairs them
        # differently from the row order it takes for wider arrays: the
        # column engine must agree with the scalar one at every width.
        rng = np.random.default_rng(n)
        engine = RuleBase.default()
        for _ in range(300):
            e = rng.uniform(-1.2, 1.2, n)
            de = rng.normal(0.0, 0.2, n)
            want = [engine.output(float(a), float(b)) for a, b in zip(e, de)]
            assert np.array_equal(engine.outputs(e, de).view(np.uint64), np.array(want).view(np.uint64))
            labels = np.array([rng.choice(7, size=2, replace=False) for _ in range(n)]).T
            clips = 10.0 ** rng.uniform(-12.0, 0.0, (2, n))
            want = [
                defuzzify_coa(AggregatedOutput({Label(i - 3): h1, Label(j - 3): h2}))
                for (i, j), (h1, h2) in zip(labels.T.tolist(), clips.T.tolist())
            ]
            got = _two_shape_coa(labels, clips)
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    def test_column_output_on_an_empty_batch(self):
        assert RuleBase.default().outputs(np.array([]), np.array([])).shape == (0,)

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
        assert defuzzify_coa(AggregatedOutput(clips)) == 0.0
