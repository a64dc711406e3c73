"""Configuration documents for the CLI.

One YAML key/value schema covers run configs, presets, tuner grids, and the
emitted summaries, so every artifact is diffable with one parser. A config
validates completely (unknown keys rejected, types checked, defaults filled)
before any simulation starts.
"""
from __future__ import annotations

import copy
import dataclasses
import math
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import yaml

from .control import AXES, LAWS, AxisForce, CorrectionLimits, SelectionMatrix
from .fuzzy import RuleBase
from .plant import Box, Environment, PlanarArm, Pose, RoughSurface, SensorModel
from .presets import DEFAULT_SEED, PRESET_NAMES, PRESETS, TUNED_FUZZY, TUNED_PI
from .sim import NominalPath, ObjectiveWeights, PressDirection, Scenario, check_band, check_grid


class ConfigInvalid(Exception):
    """A config failed validation; the message names the offending key."""


_REQUIRED = "__required__"

# Obstacle `type` value -> the obstacle type it builds.
_OBSTACLES = {"rough_surface": RoughSurface, "box": Box}


def _fields(cls) -> Dict[str, Any]:
    """Each field of a dataclass mapped to its default, or to _REQUIRED."""
    return {
        f.name: _REQUIRED if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(cls)
    }


def _tuned_gains(preset: str) -> Dict[str, Any]:
    """The `gains` section holding both laws' tuned gains for a preset."""
    return {
        "pi": {axis: dataclasses.asdict(TUNED_PI[preset]) for axis in AXES},
        "fuzzy": {axis: dataclasses.asdict(TUNED_FUZZY[preset]) for axis in AXES},
    }


# Schema and documented defaults: each section takes its keys and defaults
# from the library type it builds. `setpoint` values and `controller` are
# the only fields without defaults; the gains and path are exp2's. A key
# whose default is None may be null, a mapping whose default is empty is taken
# as given (`validate_config` checks the grid), and a list holds mappings.
_DEFAULTS: Dict[str, Any] = {
    "name": "custom",
    "controller": _REQUIRED,
    "seed": DEFAULT_SEED,
    "dt": Scenario.dt,
    "duration": Scenario.duration,
    "arm": _fields(PlanarArm),
    "setpoint": {axis: _REQUIRED for axis in AXES},
    "selection": SelectionMatrix.identity()._asdict(),
    "press_direction": PressDirection()._asdict(),
    "limits": {axis: _fields(CorrectionLimits) for axis in AXES},
    "gains": _tuned_gains("exp2"),
    "path": PRESETS["exp2"]["path"],
    "environment": {"seed": None, "obstacles": []},
    "sensor": {
        "noise_sigma": SensorModel.noise_sigma,
        "bias": SensorModel.bias._asdict(),
        "seed": None,
    },
    "rule_file": None,
    "tuner": {
        "axis": "z",
        "band_pct": 0.05,
        "weights": _fields(ObjectiveWeights),
        "grid": {},
    },
}

_OBSTACLE_DEFAULTS = {kind: {"type": kind, **_fields(cls)} for kind, cls in _OBSTACLES.items()}

# Keys that take one of a few values, keyed without list indices. `in` on a
# tuple compares by ==, so an unhashable value is rejected, not a crash.
_CHOICES = {
    "controller": tuple(LAWS),
    "arm.elbow": ("down", "up"),
    "tuner.axis": AXES,
    **{f"press_direction.{axis}": (1, -1) for axis in AXES},
    "environment.obstacles.type": tuple(_OBSTACLES),
}
_LIST_INDEX = re.compile(r"\[\d+\]")
# Seeds take any non-negative integer, however large; None derives them.
_SEEDS = {"seed", "environment.seed", "sensor.seed"}
# `name` becomes the stem of every output file, so it may not hold a path,
# and the longest result file name, the temp name
# <name>_fuzzy_leaderboard.yaml.tmp, must fit the usual 255-byte limit.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
_NAME_MAX = 255 - len("_fuzzy_leaderboard.yaml.tmp")
# YAML 1.1 reads a number with an exponent as text unless it also has a dot
# and a signed exponent: 1e9 and 1.0e9 are strings, 1.0e+9 is a float.
_EXPONENT_TEXT = re.compile(r"([-+]?\d+)(?:\.(\d*))?[eE]([-+]?)(\d+)")
_FLOAT_MAX = sys.float_info.max
# libyaml's C dumper shares SafeDumper's representer, but its emitter lays
# out some text differently: it folds long double-quoted scalars (text with
# non-printable or non-ASCII characters) at other columns, writes an empty
# key as a simple key, and keeps keys of 123-128 characters simple. Documents
# holding such text take the Python emitter, so the bytes never depend on it.
_C_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_SIMPLE_KEY_MAX = 100
# libyaml's parser words its errors otherwise, and reads otherwise tabs,
# non-ASCII breaks, tags (!), block scalars (| >) and a `?` in a flow scalar.
_C_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_C_READS_OTHERWISE = re.compile(r"[^\n -~]|[!>?|]")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _check_number(path: str, value: Any) -> None:
    """Reject non-numbers, non-finite floats and integers too large to
    convert to float (seeds keep them: see `_SEEDS`)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        exponent = isinstance(value, str) and _EXPONENT_TEXT.fullmatch(value)
        if exponent:
            whole, frac, sign, power = exponent.groups()
            raise ConfigInvalid(
                f"{path}: expected a number, got the string {value!r}; YAML reads an exponent "
                f"number only with a dot and a signed exponent, so write it as "
                f"{whole}.{frac or 0}e{sign or '+'}{power}"
            )
        raise ConfigInvalid(f"{path}: expected a number, got {_type_name(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigInvalid(f"{path}: expected a finite number, got {value}")
    if abs(value) > _FLOAT_MAX:
        raise ConfigInvalid(f"{path}: expected a number within float range, got a larger integer")


def _check_scalar(path: str, default: Any, value: Any) -> Any:
    if value is None and default is None:
        return None
    if isinstance(value, float):
        # NaN and infinities are rejected whatever type the key holds.
        _check_number(path, value)
    if path in _SEEDS:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigInvalid(f"{path}: expected a non-negative integer, got {value!r}")
        return value
    if path == "rule_file" and not isinstance(value, str):
        raise ConfigInvalid(f"rule_file: expected a file path, got {_type_name(value)}")
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigInvalid(f"{path}: expected a boolean, got {_type_name(value)}")
        return value
    choices = _CHOICES.get(_LIST_INDEX.sub("", path))
    if isinstance(default, (int, float)) or (default == _REQUIRED and choices is None):
        # The required scalars (setpoint, path, obstacle extents) are numbers.
        _check_number(path, value)
    if choices is not None and value not in choices:
        raise ConfigInvalid(f"{path}: expected {' or '.join(map(repr, choices))}, got {value!r}")
    return value


def _merge(defaults: Any, user: Any, path: str) -> Any:
    if isinstance(defaults, dict):
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigInvalid(f"{path or 'config'}: expected a mapping, got {_type_name(user)}")
        if not defaults:
            return copy.deepcopy(user)
        unknown = sorted(set(user) - set(defaults))
        if unknown:
            where = f"{path}.{unknown[0]}" if path else unknown[0]
            raise ConfigInvalid(f"unknown config key: {where}")
        merged = {}
        for key, dval in defaults.items():
            sub_path = f"{path}.{key}" if path else key
            if key in user:
                merged[key] = _merge(dval, user[key], sub_path)
            else:
                if dval == _REQUIRED:
                    raise ConfigInvalid(f"missing required config key: {sub_path}")
                merged[key] = copy.deepcopy(dval)
        return merged
    if isinstance(defaults, list):
        return _merge_list(path, user if user is not None else copy.deepcopy(defaults))
    if defaults == _REQUIRED and user is None:
        raise ConfigInvalid(f"missing required config key: {path}")
    return _check_scalar(path, defaults, user)


def _merge_list(path: str, items: Any) -> List[Dict[str, Any]]:
    if not isinstance(items, list):
        raise ConfigInvalid(f"{path}: expected a list, got {_type_name(items)}")
    result = []
    for i, item in enumerate(items):
        sub_path = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigInvalid(f"{sub_path}: expected a mapping, got {_type_name(item)}")
        if path == "path":
            result.append(_merge({"t": _REQUIRED, "x": _REQUIRED, "z": _REQUIRED}, item, sub_path))
        else:
            kind = _check_scalar(f"{sub_path}.type", _REQUIRED, item.get("type"))
            result.append(_merge(_OBSTACLE_DEFAULTS[kind], item, sub_path))
    return result


def validate_config(raw: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Fill defaults and reject unknown keys/bad types; returns the effective config."""
    effective = _merge(_DEFAULTS, raw or {}, "")
    # The summary echoes the grid; `tune` alone reads it, through `tuner_settings`.
    for gain, values in effective["tuner"]["grid"].items():
        if not isinstance(values, list):
            raise ConfigInvalid(f"tuner.grid.{gain}: expected a list, got {_type_name(values)}")
        for v in values:
            _check_number(f"tuner.grid.{gain}", v)
    name = effective["name"]
    if not isinstance(name, str) or not _NAME_PATTERN.fullmatch(name):
        raise ConfigInvalid(
            f"name: expected a file name stem ({_NAME_PATTERN.pattern}), got {name!r}"
        )
    if len(name) > _NAME_MAX:
        raise ConfigInvalid(
            f"name: expected at most {_NAME_MAX} characters, so that every result file name "
            f"fits in 255 bytes, got {len(name)}"
        )
    return effective


def _safe_load(text: str) -> Any:
    """`yaml.safe_load(text)`, by libyaml where it reads alike; on an error
    the pure parser reads the text again, for the same message."""
    if not _C_READS_OTHERWISE.search(text):
        try:
            return yaml.load(text, Loader=_C_LOADER)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def read_config(path) -> Dict[str, Any]:
    """Read a YAML config file as a raw mapping, not yet validated."""
    try:
        raw = _safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:
        # ValueError: text that is not UTF-8, or an integer over Python's digit limit.
        raise ConfigInvalid(f"config file {path} cannot be read: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config file {path} is not valid YAML: {exc}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigInvalid(f"config file {path} must contain a mapping")
    return raw or {}


def apply_overrides(raw: Dict[str, Any], overrides: List[str]) -> Dict[str, Any]:
    """Apply repeatable --set key=value entries (dotted keys, YAML values)."""
    updated = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError:
            value = text
        except ValueError as exc:
            # An integer literal over Python's digit limit.
            raise ConfigInvalid(f"{key}: expected a value YAML can read ({exc})") from None
        node = updated
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return updated


def scenario_from_config(cfg: Dict[str, Any]) -> Scenario:
    """Build a runnable Scenario from an effective (validated) config."""
    try:
        return _build_scenario(cfg)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _build(key: str, cls, **kwargs) -> Any:
    """cls(**kwargs); a failed check is reported under the config key `key`,
    joined to the field the message starts with when it names one."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        named = message.split(" ", 1)[0] in {f.name for f in dataclasses.fields(cls)}
        raise ConfigInvalid(f"{key}.{message}" if named else f"{key}: {message}") from None


def _build_scenario(cfg: Dict[str, Any]) -> Scenario:
    kind = cfg["controller"]
    seed = cfg["seed"]
    env_seed = cfg["environment"]["seed"]
    sensor = cfg["sensor"]
    obstacles = [
        _build(f"environment.obstacles[{i}]", _OBSTACLES[item["type"]],
               **{k: v for k, v in item.items() if k != "type"})
        for i, item in enumerate(cfg["environment"]["obstacles"])
    ]
    try:
        rules = RuleBase.default() if cfg["rule_file"] is None else RuleBase.from_file(cfg["rule_file"])
    except (ValueError, OSError) as exc:
        raise ConfigInvalid(f"rule_file: {exc}") from None
    return Scenario(
        name=cfg["name"],
        setpoint=AxisForce(**cfg["setpoint"]),
        path=_build(
            "path", NominalPath, waypoints=tuple((w["t"], Pose(w["x"], w["z"])) for w in cfg["path"])
        ),
        environment=Environment(tuple(obstacles), seed=seed if env_seed is None else env_seed),
        gains={
            axis: _build(f"gains.{kind}.{axis}", LAWS[kind], **cfg["gains"][kind][axis])
            for axis in AXES
        },
        selection=SelectionMatrix(**cfg["selection"]),
        press_direction=PressDirection(**cfg["press_direction"]),
        limits={
            axis: _build(f"limits.{axis}", CorrectionLimits, **cfg["limits"][axis]) for axis in AXES
        },
        arm=_build("arm", PlanarArm, **cfg["arm"]),
        sensor=_build(
            "sensor",
            SensorModel,
            noise_sigma=sensor["noise_sigma"],
            bias=AxisForce(**sensor["bias"]),
            seed=seed + 1 if sensor["seed"] is None else sensor["seed"],
        ),
        rules=rules,
        dt=cfg["dt"],
        duration=cfg["duration"],
    )


def tuner_settings(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """`tune`'s keyword arguments (axis, band_pct, weights, grid) from an
    effective config."""
    t = cfg["tuner"]
    try:
        check_grid(LAWS[cfg["controller"]], t["grid"])
    except ValueError as exc:
        raise ConfigInvalid(f"tuner.grid.{exc}") from None
    if not cfg["selection"][t["axis"]]:
        raise ConfigInvalid(
            f"tuner.axis: {t['axis']!r} is not force controlled (selection.{t['axis']} is false), "
            "so every grid point would score alike; tune a selected axis"
        )
    try:
        check_band(t["band_pct"])
    except ValueError as exc:
        raise ConfigInvalid(f"tuner.{exc}") from None
    return {
        "axis": t["axis"],
        "band_pct": float(t["band_pct"]),
        "weights": _build("tuner.weights", ObjectiveWeights, **t["weights"]),
        "grid": {k: [float(v) for v in vs] for k, vs in t["grid"].items()},
    }


def preset_config(name: str) -> Dict[str, Any]:
    """Raw config of a built-in preset, with both laws' tuned gains filled in
    so one document can drive run and compare. The environment and sensor
    seeds stay derived, so a master-seed override reseeds the whole run."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return {**copy.deepcopy(PRESETS[name]), "controller": "pi", "gains": _tuned_gains(name)}


def preset_scenario(
    name: str, controller_kind: str = "fuzzy", seed: int = DEFAULT_SEED
) -> Scenario:
    """Build a built-in experiment (exp1, exp2, exp3) with one law's tuned gains."""
    raw = dict(preset_config(name), controller=controller_kind, seed=seed)
    return scenario_from_config(validate_config(raw))


def _c_emits_alike(node: Any) -> bool:
    """Whether libyaml writes `node` byte for byte as the Python emitter does:
    all text printable ASCII, all keys nonempty strings of simple-key size."""
    if isinstance(node, str):
        return node.isascii() and node.isprintable()
    if isinstance(node, dict):
        return all(
            isinstance(k, str) and 0 < len(k) < _SIMPLE_KEY_MAX and _c_emits_alike(k)
            and _c_emits_alike(v)
            for k, v in node.items()
        )
    if isinstance(node, list):
        return all(_c_emits_alike(v) for v in node)
    return True


def to_yaml(data: Dict[str, Any]) -> str:
    """Emit a document as block-style YAML with sorted keys, byte for byte as
    `yaml.safe_dump` does; libyaml's C emitter writes it when PyYAML has one
    and the document holds no text on which the two emitters differ."""
    dumper = _C_DUMPER if _c_emits_alike(data) else yaml.SafeDumper
    return yaml.dump(data, Dumper=dumper, sort_keys=True, default_flow_style=False)
