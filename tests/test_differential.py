"""A differential net under the engine and tick-loop rewrites, bit for bit:
the column engine `RuleBase.outputs` against the scalar `RuleBase.output`
under drawn rule tables, and tune's lockstep loop `sim._lockstep` against
`run()` on drawn scenarios. Scenarios are drawn as configs and built
through `validate_config` and `scenario_from_config`, so only accepted
inputs are drawn."""
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcemotion import config, sim
from forcemotion.control import LAWS, CorrectionLimits
from forcemotion.fuzzy import CENTERS, LABELS, RuleBase
from forcemotion.presets import PRESET_NAMES
from forcemotion.sim import WorkspaceViolation, run

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


@pytest.mark.parametrize("law", tuple(LAWS))
@given(data=st.data())
@settings(max_examples=60)
def test_step_columns_equals_step_per_member(law, data):
    # Down to the sign of a zero that du_max = 0 clamps.
    members = [
        LAWS[law](**{name: data.draw(st.sampled_from(values)) for name, values in GAINS[law].items()})
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    e, de = (data.draw(st.lists(INPUTS, min_size=len(members), max_size=len(members))) for _ in "ab")
    limits = CorrectionLimits(du_max=data.draw(st.sampled_from([0.0, 5e-4, 1.0, np.inf])))
    engine = RuleBase.default()
    want = np.array([g.step(a, b, limits, engine) for g, a, b in zip(members, e, de)])
    columns = np.array([dataclasses.astuple(g) for g in members], dtype=float).T
    with np.errstate(all="ignore"):  # as in _lockstep
        got = LAWS[law].step_columns(columns, np.array(e), np.array(de), limits, engine)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def batches(draw, law):
    """A scenario config of the law, at most 1 s long, and 2-4 gain sets of
    that law."""
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
        obstacle.update(
            noise_amplitude=draw(st.sampled_from([0.0, 2e-4, 1e-3])),
            friction_coeff=draw(st.sampled_from([0.0, 0.2, 0.6])),
        )
    fields = GAINS[law]
    gain_sets = [
        {name: draw(st.sampled_from(values)) for name, values in fields.items()}
        for _ in range(draw(st.integers(2, 4)))
    ]
    table = draw(st.one_of(st.none(), TABLES)) if law == "fuzzy" else None
    return raw, table, gain_sets


@pytest.mark.parametrize("law", tuple(LAWS))
@given(data=st.data())
@settings(max_examples=20)
def test_lockstep_equals_run_per_member(law, data):
    raw, table, gain_sets = data.draw(batches(law))
    with tempfile.TemporaryDirectory() as tmp:
        if table is not None:
            raw["rule_file"] = str(Path(tmp) / "rules.txt")
            Path(raw["rule_file"]).write_text(table)
        scenario = config.scenario_from_config(config.validate_config(raw))
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
