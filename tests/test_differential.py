"""A differential net under the engine and tick-loop rewrites, bit for bit:
the column engine `RuleBase.outputs` against the scalar `RuleBase.output`
under drawn rule tables, each law's `step_columns` against `step`, and,
on drawn scenarios and on fixed 2-point grids that the draws miss, tune's
lockstep loop `sim._lockstep` against `run()` and `sim.tune`'s entries
against `compute_metrics` on each point's `run()`. Scenarios, their
obstacle geometry included, are built as configs through `validate_config`
and `scenario_from_config`, so only accepted inputs are drawn."""
import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcemotion import config, sim
from forcemotion.control import AXES, LAWS, CorrectionLimits
from forcemotion.fuzzy import CENTERS, LABELS, RuleBase
from forcemotion.presets import PRESET_NAMES
from forcemotion.sim import AllRunsFailed, NoContact, ObjectiveWeights, WorkspaceViolation, compute_metrics, run

NAMES = [label.name.lower() for label in LABELS]
# A 7x7 table as RuleBase.parse reads it, one row per line.
TABLES = st.lists(
    st.lists(st.sampled_from(NAMES), min_size=7, max_size=7), min_size=7, max_size=7
).map(lambda rows: "\n".join(" ".join(row) for row in rows))

# Signed zeros, subnormals, the smallest normal, infinities, NaN, huge
# values, the label centres and the clamp's ends, and anything.
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -1e-310, np.inf, -np.inf, np.nan,
    1e300, -1e300, 1.5, -1.5, *CENTERS, *(np.nextafter(c, 0.0) for c in CENTERS),
]
INPUTS = st.one_of(st.sampled_from(SPECIAL), st.floats(-1.2, 1.2), st.floats())


@given(TABLES, st.lists(st.tuples(INPUTS, INPUTS), min_size=1, max_size=40))
@settings(max_examples=150)
def test_column_engine_equals_scalar_engine(text, pairs):
    engine = RuleBase.parse(text)
    e, de = np.array(pairs).T
    want = np.array([engine.output(a, b) for a, b in pairs])
    assert np.array_equal(engine.outputs(e, de).view(np.uint64), want.view(np.uint64))


# Gain values per law field: zeros, the tuned magnitudes, and gains large
# enough to drive the correction out of the workspace.
GAINS = {
    "pi": {"kp": [0.0, 1e-4, 5e-4, 5e-3], "ki": [0.0, 5e-5, 2e-4, 2e-3]},
    "fuzzy": {"kp": [0.0, 0.05, 0.1, 1.0], "ki": [0.0, 1 / 30, 1 / 15, 0.5], "kx": [0.0, 1e-3, 2e-3, 0.2]},
}
LIMITS = [
    {"u_min": -1.0, "u_max": 1.0, "du_max": 1.0},
    None,  # the preset's
    {"u_min": -0.02, "u_max": 0.02, "du_max": 0.0},
]


# A member: the index of each of its gains in GAINS, its e and its de.
MEMBERS = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), INPUTS, INPUTS), min_size=1, max_size=4)


@pytest.mark.parametrize("law", tuple(LAWS))
@given(MEMBERS, st.sampled_from([0.0, 5e-4, 1.0, np.inf]))
# 0 * nan + 0 * inf: Python's sum keeps the second NaN, numpy's the first.
@example([((0, 0, 0), 0.0, 0.0), ((0, 0, 0), np.inf, np.nan)], 0.0)
@settings(max_examples=60)
def test_step_columns_equals_step_per_member(law, drawn, du_max):
    # Down to the sign of a zero that du_max = 0 clamps, and of a NaN.
    members = [
        LAWS[law](**{name: values[i] for (name, values), i in zip(GAINS[law].items(), index)})
        for index, _, _ in drawn
    ]
    _, e, de = zip(*drawn)
    limits = CorrectionLimits(du_max=du_max)
    engine = RuleBase.default()
    want = np.array([g.step(a, b, limits, engine) for g, a, b in zip(members, e, de)])
    columns = np.array([dataclasses.astuple(g) for g in members], dtype=float).T
    with np.errstate(all="ignore"):  # as in _lockstep
        got = LAWS[law].step_columns(columns, np.array(e), np.array(de), limits, engine)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def batches(draw, law):
    """A scenario config of the law, at most 1 s long, and 2-4 gain sets of
    that law, of which the first two differ in one gain."""
    raw = config.preset_config(draw(st.sampled_from(PRESET_NAMES)))
    raw.update(
        controller=law,
        seed=draw(st.integers(0, 2**32)),
        duration=draw(st.integers(1, 100)) / 100,
        setpoint={axis: draw(st.sampled_from([0.0, 6.0, -6.0, 30.0, -10.0, 300.0, -300.0])) for axis in "xz"},
        selection={axis: draw(st.booleans()) for axis in "xz"},
        press_direction={axis: draw(st.sampled_from([1, -1])) for axis in "xz"},
        arm={"elbow": draw(st.sampled_from(["down", "up"])), "qdot_max": draw(st.sampled_from([2.0, 0.3]))},
        sensor={
            "noise_sigma": draw(st.sampled_from([0.0, 0.5, 5.0])),
            "bias": {axis: draw(st.sampled_from([0.0, 0.7, -3.0])) for axis in "xz"},
            "seed": draw(st.one_of(st.none(), st.integers(0, 2**32))),
        },
    )
    limits = draw(st.sampled_from(LIMITS))
    if limits is not None:
        raw["limits"] = {axis: limits for axis in "xz"}
    obstacle = raw["environment"]["obstacles"][0]
    if obstacle["type"] == "rough_surface":
        # The slide path runs at z = 0.2475, from x = 0.55 to 0.75.
        obstacle.update(
            height_base=draw(st.sampled_from([0.25, 0.2475, 0.245, 0.255, 0.27])),
            roughness_amplitude=draw(st.sampled_from([0.0, 1e-3, 4e-3])),
            roughness_wavelength=draw(st.sampled_from([0.05, 0.013, 0.3])),
            noise_amplitude=draw(st.sampled_from([0.0, 2e-4, 1e-3])),
            friction_coeff=draw(st.sampled_from([0.0, 0.2, 0.6])),
        )
    else:
        # exp1's path descends at x = 0.65 from z = 0.33 to 0.29 by t = 0.8
        # s: the box is a 1 cm slab that the path enters at t = 0.1 s and
        # leaves through its floor (by t = 0.7 s under the tuned gains), or it
        # holds the path's end, its start, or neither.
        x_min, x_max = draw(st.sampled_from([(0.55, 0.75), (0.645, 0.655), (0.66, 0.75)]))
        z_min, z_max = draw(st.sampled_from([(0.315, 0.325), (0.10, 0.30), (0.10, 0.335), (0.10, 0.285)]))
        obstacle.update(x_min=x_min, x_max=x_max, z_min=z_min, z_max=z_max)
    # The first two gain sets differ in one gain: tune's 2-point grid.
    fields = GAINS[law]
    gain_sets = [
        {name: draw(st.sampled_from(values)) for name, values in fields.items()}
        for _ in range(draw(st.integers(2, 4)))
    ]
    varied = draw(st.sampled_from(sorted(fields)))
    gain_sets[1] = {
        **gain_sets[0],
        varied: draw(st.sampled_from([v for v in fields[varied] if v != gain_sets[0][varied]])),
    }
    table = draw(st.one_of(st.none(), TABLES)) if law == "fuzzy" else None
    return raw, table, gain_sets


def _scenario(raw, table=None):
    """The scenario of the config `raw`, with the rule table `table` if any."""
    with tempfile.TemporaryDirectory() as tmp:
        if table is not None:
            raw["rule_file"] = str(Path(tmp) / "rules.txt")
            Path(raw["rule_file"]).write_text(table)
        return config.scenario_from_config(config.validate_config(raw))


@pytest.mark.parametrize("law", tuple(LAWS))
@given(data=st.data())
@settings(max_examples=20)
def test_lockstep_equals_run_per_member(law, data):
    raw, table, gain_sets = data.draw(batches(law))
    _assert_lockstep_equals_run(law, _scenario(raw, table), gain_sets)


def _assert_lockstep_equals_run(law, scenario, gain_sets):
    members = [LAWS[law](**gains) for gains in gain_sets]
    results = []
    for gains in members:
        try:
            results.append(run(dataclasses.replace(scenario, gains={"x": gains, "z": gains})))
        except WorkspaceViolation as exc:
            results.append(exc)
    columns = np.array([dataclasses.astuple(g) for g in members], dtype=float).T
    for j, axis in enumerate("xz"):
        for got, want in zip(sim._lockstep(scenario, columns, j), results):
            if isinstance(want, WorkspaceViolation):
                assert isinstance(got, WorkspaceViolation)
                assert (got.tick, got.t, str(got)) == (want.tick, want.t, str(want))
            else:
                assert np.array_equal(got.view(np.uint64), want.column(f"f_{axis}").view(np.uint64))


def _bits(values):
    """Each float as its bit pattern, so that NaN equals NaN."""
    return [np.float64(v).view(np.uint64) if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("law", tuple(LAWS))
@given(data=st.data())
@settings(max_examples=40)
def test_tune_scores_each_point_as_run(law, data):
    raw, table, gain_sets = data.draw(batches(law))
    axis = data.draw(st.sampled_from(AXES))
    band_pct = data.draw(st.sampled_from([0.05, 0.3]))
    weights = ObjectiveWeights(overshoot=data.draw(st.sampled_from([10.0, 0.0])))
    _assert_tune_scores_each_point_as_run(law, _scenario(raw, table), gain_sets[:2], axis, band_pct, weights)


def _assert_tune_scores_each_point_as_run(law, scenario, gain_sets, axis, band_pct, weights):
    """`sim.tune` on the grid of `gain_sets` against `compute_metrics` on each
    point's `run()`; returns each point's failure text, None where it scored,
    or None when no point scored."""
    grid = {name: sorted({gains[name] for gains in gain_sets}) for name in GAINS[law]}
    setpoint = getattr(scenario.setpoint, axis)
    want = {}
    for gains in gain_sets:
        member = dataclasses.replace(scenario, gains={a: LAWS[law](**gains) for a in AXES})
        key = tuple(float(v) for v in gains.values())
        try:
            m = compute_metrics(run(member), axis, setpoint, band_pct)
        except (WorkspaceViolation, NoContact) as exc:
            want[key] = (math.inf, None, None, None, False, str(exc))
            continue
        objective = m.itae
        if weights.overshoot:
            objective += weights.overshoot * m.overshoot_pct
        if not m.settled:
            objective += weights.not_settled
        want[key] = (objective, m.overshoot_pct, m.settling_time, m.itae, m.settled, None)
    try:
        _, board = sim.tune(scenario, grid, weights, axis, band_pct)
    except AllRunsFailed as exc:
        assert not any(math.isfinite(entry[0]) for entry in want.values())
        every = all(entry[-1] is not None for entry in want.values())
        assert str(exc) == ("every grid point failed to produce a scored run" if every
                            else "no grid point scored a finite objective")
        return None
    got = {
        tuple(e.gains.values()): (e.objective, e.overshoot_pct, e.settling_time, e.itae, e.settled, e.failure)
        for e in board
    }
    assert got.keys() == want.keys()
    for key, entry in got.items():
        assert _bits(entry) == _bits(want[key])
    return [want[key][-1] for key in want]


# 2-point grids that the derandomized draws above do not reach, as
# (preset, limits of both axes, floor or box fields, the grid per law, each
# point's failure text or None where it scores): a point that leaves the
# workspace, or never makes contact, beside a scored one; and exp1's box
# holding the path's start (z 0.33), with both points scored.
FIXED_GRIDS = {
    "exp2-workspace-exit": (
        "exp2", LIMITS[0], {},
        {"pi": {"kp": [5e-4], "ki": [2e-4, 2e-2]}, "fuzzy": {"kp": [0.1], "ki": [1 / 30], "kx": [2e-3, 1.0]}},
        [None, "tick 2 (t=0.020 s): target (0.5513, "],
    ),
    "exp2-floor-below-path": (
        "exp2", None, {"height_base": 0.245},
        {"pi": {"kp": [0.0], "ki": [0.0, 2e-4]}, "fuzzy": {"kp": [0.1], "ki": [1 / 30], "kx": [0.0, 2e-3]}},
        ["no contact on axis z (threshold 0.1 N)", None],
    ),
    "exp1-box-holds-start": (
        "exp1", None, {"z_min": 0.10, "z_max": 0.335},
        {"pi": {"kp": [5e-4], "ki": [0.0, 5e-6]}, "fuzzy": {"kp": [0.1], "ki": [1 / 15], "kx": [1e-3, 2e-3]}},
        [None, None],
    ),
}


@pytest.mark.parametrize("law", tuple(LAWS))
@pytest.mark.parametrize("case", tuple(FIXED_GRIDS))
def test_fixed_grids_as_run(case, law):
    preset, limits, obstacle, grids, failures = FIXED_GRIDS[case]
    raw = config.preset_config(preset)
    raw["controller"] = law
    if limits is not None:
        raw["limits"] = {axis: limits for axis in AXES}
    raw["environment"]["obstacles"][0].update(obstacle)
    scenario = _scenario(raw)
    grid = grids[law]
    gain_sets = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    _assert_lockstep_equals_run(law, scenario, gain_sets)
    got = _assert_tune_scores_each_point_as_run(law, scenario, gain_sets, "z", 0.05, ObjectiveWeights())
    assert got is not None
    assert [text is None for text in got] == [prefix is None for prefix in failures]
    assert all(text.startswith(prefix) for text, prefix in zip(got, failures) if prefix is not None)
