"""A standing fuzz net over the CLI: `run`, `compare` and a 2-point `tune`
with 1-3 `--set` overrides, drawn from every config leaf and the path and
obstacle fields, and from extreme numbers and values of the wrong type.

Every command must end with exit 0, 2, 3 or 4, with no traceback and no
warning. An exit 2 names a config key. Results written with exit 0 hold no
NaN, and an inf only where the force left float range or an input was
extreme."""
import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from forcemotion.cli import main
from forcemotion.config import _DEFAULTS, _OBSTACLE_DEFAULTS

COMMANDS = {
    "run": ("run", "--controller", "pi"),
    "run-fuzzy": ("run", "--controller", "fuzzy"),
    "compare": ("compare",),
    "tune": (
        "tune", "--controller", "pi",
        "--set", "tuner.grid.kp=[0.0005]", "--set", "tuner.grid.ki=[0.0001, 0.0002]",
    ),
}

# YAML texts: zeros, subnormals, 1e+-300, 1e308, 1e154 and its square-root
# neighbour, ordinary numbers, and values of the wrong type.
EXTREME = [
    "0.0", "-0.0", "5.0e-324", "-5.0e-324", "2.2e-308", "1.0e-300", "-1.0e-300",
    "1.0e+300", "-1.0e+300", "1.0e+308", "-1.0e+308", "1.0e+154", "-1.0e+154", "7.0e+153",
]
ORDINARY = ["0", "1", "-1", "0.5", "2.0", "-0.25", "3"]
WRONG_TYPE = ["abc", "'0.3'", "true", "null", "[a]", "[]", "{a: 1}", "[1.0, 2.0]", "x", "fuzzy"]
VALUES = EXTREME + ORDINARY + WRONG_TYPE


def _leaves(node, prefix=""):
    """Dotted paths of the leaves of a defaults mapping; lists and empty
    mappings are leaves."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + ".")
        else:
            yield path


WAYPOINT = {"t": "0.0", "x": "0.55", "z": "0.2475"}
OBSTACLES = {
    "rough_surface": {"type": "rough_surface", "height_base": "0.25"},
    "box": {"type": "box", "x_min": "0.4", "x_max": "0.8", "z_min": "0.1", "z_max": "0.29"},
}


def _list_override(key, item, field):
    """`--set key=` a one-item list: `item` with `field` set to a YAML text."""
    def override(value):
        fields = ", ".join(f"{k}: {v}" for k, v in {**item, field: value}.items())
        return f"{key}=[{{{fields}}}]"
    return override


OVERRIDES = [lambda value, key=key: f"{key}={value}" for key in _leaves(_DEFAULTS)]
OVERRIDES += [_list_override("path", WAYPOINT, field) for field in WAYPOINT]
OVERRIDES += [
    _list_override("environment.obstacles", OBSTACLES[kind], field)
    for kind, fields in _OBSTACLE_DEFAULTS.items()
    for field in fields
]

# Every dotted config key and section, list indices dropped.
KEYS = set()
for leaf in _leaves(_DEFAULTS):
    parts = leaf.split(".")
    KEYS |= {".".join(parts[: i + 1]) for i in range(len(parts))}
KEYS |= {f"path.{field}" for field in WAYPOINT}
KEYS |= {f"environment.obstacles.{f}" for fields in _OBSTACLE_DEFAULTS.values() for f in fields}
_TOKEN = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _names_a_key(message):
    """Whether the message names a config key; `tuner.grid` takes any gain
    name."""
    tokens = _TOKEN.findall(re.sub(r"\[\d+\]", "", message))
    return any(t in KEYS or t.startswith("tuner.grid.") for t in tokens)


def _scalars(node, key=None):
    """(key, value) for each scalar of a result document, but for tuner
    entries whose point failed: those score an infinite objective by design."""
    if isinstance(node, dict):
        if node.get("failure") is None:
            for k, value in node.items():
                yield from _scalars(value, k)
    elif isinstance(node, list):
        for value in node:
            yield from _scalars(value, key)
    else:
        yield key, node


def _is_extreme(text):
    try:
        value = float(yaml.safe_load(text))
    except (TypeError, ValueError):
        return False
    return abs(value) >= 1e150 or 0.0 < abs(value) <= 1e-150


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    preset=st.sampled_from(["exp1", "exp2", "exp3"]),
    overrides=st.lists(
        st.tuples(st.sampled_from(range(len(OVERRIDES))), st.sampled_from(VALUES)),
        min_size=1,
        max_size=3,
    ),
)
def test_cli_exits_cleanly_on_any_override(command, preset, overrides):
    sets = [arg for i, value in overrides for arg in ("--set", OVERRIDES[i](value))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results"
        argv = [*COMMANDS[command], "--preset", preset, *sets, "--out", str(out)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("config error: ") and _names_a_key(err), (argv, err)
        if code != 0:
            return
        extreme = any(_is_extreme(value) for _, value in overrides)
        for path in out.glob("*.yaml"):
            floats = [(k, v) for k, v in _scalars(yaml.safe_load(path.read_text())) if isinstance(v, float)]
            assert not any(math.isnan(v) for _, v in floats), (argv, path.name)
            if any(math.isinf(v) for _, v in floats):
                inf_force = any(k == "max_force" and math.isinf(v) for k, v in floats)
                assert extreme or inf_force, (argv, path.name)
