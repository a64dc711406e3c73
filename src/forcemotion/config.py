"""Configuration documents for the CLI.

One YAML key/value schema covers run configs, presets, tuner grids, and the
emitted summaries, so every artifact is diffable with one parser. A config
validates completely (unknown keys rejected, types checked, defaults filled)
before any simulation starts.
"""
from __future__ import annotations

import copy
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Optional

import yaml

from .control import AxisForce, CorrectionLimits, FuzzyPIGains, PIGains, SelectionMatrix
from .fuzzy import RuleBase
from .plant import Box, Environment, Pose, RoughSurface, SensorModel
from .presets import TUNED_FUZZY, TUNED_PI, preset_scenario
from .sim import ArmParams, NominalPath, ObjectiveWeights, PressDirection, Scenario


class ConfigInvalid(Exception):
    """A config failed validation; the message names the offending key."""


_REQUIRED = "__required__"

# Schema and documented defaults. `setpoint` values and `controller` are the
# only fields without defaults.
_DEFAULTS: Dict[str, Any] = {
    "name": "custom",
    "controller": _REQUIRED,
    "seed": 2211,
    "dt": 0.01,
    "duration": 3.0,
    "arm": {
        "l1": 0.5,
        "l2": 0.5,
        "tau_servo": 0.04,
        "qdot_max": 2.0,
        "elbow": "down",
    },
    "setpoint": {"x": _REQUIRED, "z": _REQUIRED},
    "selection": {"x": True, "z": True},
    "press_direction": {"x": 1, "z": -1},
    "limits": {
        "x": {"u_min": -0.02, "u_max": 0.02, "du_max": 5e-4},
        "z": {"u_min": -0.02, "u_max": 0.02, "du_max": 5e-4},
    },
    "gains": {
        "pi": {
            "x": {"kp": TUNED_PI["exp2"].kp, "ki": TUNED_PI["exp2"].ki},
            "z": {"kp": TUNED_PI["exp2"].kp, "ki": TUNED_PI["exp2"].ki},
        },
        "fuzzy": {
            "x": {
                "kp": TUNED_FUZZY["exp2"].kp,
                "ki": TUNED_FUZZY["exp2"].ki,
                "kx": TUNED_FUZZY["exp2"].kx,
            },
            "z": {
                "kp": TUNED_FUZZY["exp2"].kp,
                "ki": TUNED_FUZZY["exp2"].ki,
                "kx": TUNED_FUZZY["exp2"].kx,
            },
        },
    },
    "path": [
        {"t": 0.0, "x": 0.55, "z": 0.2475},
        {"t": 3.0, "x": 0.75, "z": 0.2475},
    ],
    "environment": {"seed": None, "obstacles": []},
    "sensor": {"noise_sigma": 0.0, "bias": {"x": 0.0, "z": 0.0}, "seed": None},
    "rule_file": None,
    "tuner": {
        "axis": "z",
        "band_pct": 0.05,
        "weights": {"overshoot": 10.0, "not_settled": 1000.0},
        "grid": {},
    },
}

_OBSTACLE_DEFAULTS = {
    "rough_surface": {
        "type": "rough_surface",
        "height_base": _REQUIRED,
        "roughness_amplitude": 0.0,
        "roughness_wavelength": 0.05,
        "noise_amplitude": 0.0,
        "stiffness": 10_000.0,
        "friction_coeff": 0.0,
    },
    "box": {
        "type": "box",
        "x_min": _REQUIRED,
        "x_max": _REQUIRED,
        "z_min": _REQUIRED,
        "z_max": _REQUIRED,
        "stiffness": 10_000.0,
    },
}

# Keys whose value may be None (filled in or resolved later).
_NULLABLE = {"environment.seed", "sensor.seed", "rule_file"}
# Keys holding free-form subtrees that get dedicated validation.
_LIST_OF_MAPS = {"path", "environment.obstacles"}
_FREE_MAPS = {"tuner.grid"}
# `name` becomes the stem of every output file, so it may not hold a path.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _check_number(path: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{path}: expected a number, got {_type_name(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigInvalid(f"{path}: expected a finite number, got {value}")


def _check_scalar(path: str, default: Any, value: Any) -> Any:
    if value is None and path in _NULLABLE:
        return None
    if isinstance(value, float):
        # NaN and infinities are rejected whatever type the key holds.
        _check_number(path, value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigInvalid(f"{path}: expected a boolean, got {_type_name(value)}")
        return value
    if isinstance(default, (int, float)):
        _check_number(path, value)
        return value
    if isinstance(default, str) or default is None or default == _REQUIRED:
        return value
    raise ConfigInvalid(f"{path}: unsupported value {value!r}")


def _merge(defaults: Any, user: Any, path: str) -> Any:
    if isinstance(defaults, dict):
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigInvalid(f"{path or 'config'}: expected a mapping, got {_type_name(user)}")
        if path in _FREE_MAPS:
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
        if path in _LIST_OF_MAPS:
            return _merge_list(path, user if user is not None else copy.deepcopy(defaults))
        if not isinstance(user, list):
            raise ConfigInvalid(f"{path}: expected a list, got {_type_name(user)}")
        return user
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
            kind = item.get("type")
            if kind not in _OBSTACLE_DEFAULTS:
                raise ConfigInvalid(
                    f"{sub_path}.type: expected one of {sorted(_OBSTACLE_DEFAULTS)}, got {kind!r}"
                )
            result.append(_merge(_OBSTACLE_DEFAULTS[kind], item, sub_path))
    return result


def validate_config(raw: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Fill defaults and reject unknown keys/bad types; returns the effective config."""
    effective = _merge(_DEFAULTS, raw or {}, "")
    if effective["controller"] not in ("pi", "fuzzy"):
        raise ConfigInvalid(
            f"controller: expected 'pi' or 'fuzzy', got {effective['controller']!r}"
        )
    if effective["arm"]["elbow"] not in ("down", "up"):
        raise ConfigInvalid(f"arm.elbow: expected 'down' or 'up', got {effective['arm']['elbow']!r}")
    if effective["tuner"]["axis"] not in ("x", "z"):
        raise ConfigInvalid(f"tuner.axis: expected 'x' or 'z', got {effective['tuner']['axis']!r}")
    grid = effective["tuner"]["grid"]
    if not isinstance(grid, dict):
        raise ConfigInvalid("tuner.grid: expected a mapping of gain name to value list")
    for gain, values in grid.items():
        if gain not in ("kp", "ki", "kx"):
            raise ConfigInvalid(f"tuner.grid.{gain}: unknown gain name")
        if not isinstance(values, list) or not values:
            raise ConfigInvalid(f"tuner.grid.{gain}: expected a nonempty list")
        for v in values:
            _check_number(f"tuner.grid.{gain}", v)
    for axis in ("x", "z"):
        _check_number(f"setpoint.{axis}", effective["setpoint"][axis])
        if effective["press_direction"][axis] not in (1, -1):
            raise ConfigInvalid(
                f"press_direction.{axis}: expected 1 or -1, "
                f"got {effective['press_direction'][axis]!r}"
            )
    name = effective["name"]
    if not isinstance(name, str) or not _NAME_PATTERN.fullmatch(name):
        raise ConfigInvalid(
            f"name: expected a file name stem ({_NAME_PATTERN.pattern}), got {name!r}"
        )
    return effective


def load_config(path) -> Dict[str, Any]:
    """Read and validate a YAML config file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config file {path} is not valid YAML: {exc}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigInvalid(f"config file {path} must contain a mapping")
    return validate_config(raw)


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


def scenario_from_config(cfg: Dict[str, Any], controller: Optional[str] = None) -> Scenario:
    """Build a runnable Scenario from an effective (validated) config."""
    try:
        return _build_scenario(cfg, controller)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _build_scenario(cfg: Dict[str, Any], controller: Optional[str]) -> Scenario:
    kind = controller or cfg["controller"]
    seed = int(cfg["seed"])
    env_seed = cfg["environment"]["seed"]
    sensor_seed = cfg["sensor"]["seed"]

    obstacles = []
    for item in cfg["environment"]["obstacles"]:
        fields = {k: v for k, v in item.items() if k != "type"}
        if item["type"] == "rough_surface":
            obstacles.append(RoughSurface(**fields))
        else:
            obstacles.append(Box(**fields))
    environment = Environment(
        tuple(obstacles), seed=seed if env_seed is None else int(env_seed)
    )
    sensor = SensorModel(
        noise_sigma=float(cfg["sensor"]["noise_sigma"]),
        bias=AxisForce(float(cfg["sensor"]["bias"]["x"]), float(cfg["sensor"]["bias"]["z"])),
        seed=seed + 1 if sensor_seed is None else int(sensor_seed),
    )
    gains_cfg = cfg["gains"][kind]
    if kind == "pi":
        gains = {axis: PIGains(**gains_cfg[axis]) for axis in ("x", "z")}
    else:
        gains = {axis: FuzzyPIGains(**gains_cfg[axis]) for axis in ("x", "z")}
    limits = {axis: CorrectionLimits(**cfg["limits"][axis]) for axis in ("x", "z")}
    path = NominalPath(
        tuple((float(w["t"]), Pose(float(w["x"]), float(w["z"]))) for w in cfg["path"])
    )
    rules = RuleBase.default() if cfg["rule_file"] is None else RuleBase.from_file(cfg["rule_file"])
    return Scenario(
        name=str(cfg["name"]),
        controller_kind=kind,
        setpoint=AxisForce(float(cfg["setpoint"]["x"]), float(cfg["setpoint"]["z"])),
        path=path,
        environment=environment,
        gains=gains,
        selection=SelectionMatrix(bool(cfg["selection"]["x"]), bool(cfg["selection"]["z"])),
        press_direction=PressDirection(
            int(cfg["press_direction"]["x"]), int(cfg["press_direction"]["z"])
        ),
        limits=limits,
        arm=ArmParams(
            l1=float(cfg["arm"]["l1"]),
            l2=float(cfg["arm"]["l2"]),
            tau_servo=float(cfg["arm"]["tau_servo"]),
            qdot_max=float(cfg["arm"]["qdot_max"]),
            elbow=str(cfg["arm"]["elbow"]),
        ),
        sensor=sensor,
        rules=rules,
        dt=float(cfg["dt"]),
        duration=float(cfg["duration"]),
        seed=seed,
    )


def tuner_settings(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Extract tuner axis/grid/weights from an effective config."""
    t = cfg["tuner"]
    if not t["grid"]:
        raise ConfigInvalid("tuner.grid: a tune run needs at least one gain list")
    return {
        "axis": t["axis"],
        "band_pct": float(t["band_pct"]),
        "weights": ObjectiveWeights(
            overshoot=float(t["weights"]["overshoot"]),
            not_settled=float(t["weights"]["not_settled"]),
        ),
        "grid": {k: [float(v) for v in vs] for k, vs in t["grid"].items()},
    }


def _obstacle_to_config(obstacle) -> Dict[str, Any]:
    if isinstance(obstacle, RoughSurface):
        return {
            "type": "rough_surface",
            "height_base": obstacle.height_base,
            "roughness_amplitude": obstacle.roughness_amplitude,
            "roughness_wavelength": obstacle.roughness_wavelength,
            "noise_amplitude": obstacle.noise_amplitude,
            "stiffness": obstacle.stiffness,
            "friction_coeff": obstacle.friction_coeff,
        }
    return {
        "type": "box",
        "x_min": obstacle.x_min,
        "x_max": obstacle.x_max,
        "z_min": obstacle.z_min,
        "z_max": obstacle.z_max,
        "stiffness": obstacle.stiffness,
    }


def scenario_to_config(scenario: Scenario) -> Dict[str, Any]:
    """Serialize a Scenario back to the config schema (both gain kinds kept:
    the other controller's slots fall back to the schema defaults)."""
    cfg = copy.deepcopy(_DEFAULTS)
    cfg["name"] = scenario.name
    cfg["controller"] = scenario.controller_kind
    cfg["seed"] = scenario.seed
    cfg["dt"] = scenario.dt
    cfg["duration"] = scenario.duration
    cfg["arm"] = {
        "l1": scenario.arm.l1,
        "l2": scenario.arm.l2,
        "tau_servo": scenario.arm.tau_servo,
        "qdot_max": scenario.arm.qdot_max,
        "elbow": scenario.arm.elbow,
    }
    cfg["setpoint"] = {"x": scenario.setpoint.x, "z": scenario.setpoint.z}
    cfg["selection"] = {"x": scenario.selection.x, "z": scenario.selection.z}
    cfg["press_direction"] = {
        "x": scenario.press_direction.x,
        "z": scenario.press_direction.z,
    }
    cfg["limits"] = {
        axis: {
            "u_min": scenario.limits[axis].u_min,
            "u_max": scenario.limits[axis].u_max,
            "du_max": scenario.limits[axis].du_max,
        }
        for axis in ("x", "z")
    }
    for axis in ("x", "z"):
        g = scenario.gains[axis]
        if scenario.controller_kind == "pi":
            cfg["gains"]["pi"][axis] = {"kp": g.kp, "ki": g.ki}
        else:
            cfg["gains"]["fuzzy"][axis] = {"kp": g.kp, "ki": g.ki, "kx": g.kx}
    cfg["path"] = [
        {"t": t, "x": pose.x, "z": pose.z} for t, pose in scenario.path.waypoints
    ]
    cfg["environment"] = {
        "seed": scenario.environment.seed,
        "obstacles": [_obstacle_to_config(o) for o in scenario.environment.obstacles],
    }
    cfg["sensor"] = {
        "noise_sigma": scenario.sensor.noise_sigma,
        "bias": {"x": scenario.sensor.bias.x, "z": scenario.sensor.bias.z},
        "seed": scenario.sensor.seed,
    }
    return cfg


def preset_config(name: str, seed: Optional[int] = None) -> Dict[str, Any]:
    """Effective config for a built-in preset, with both controllers' tuned
    gains filled in so one document can drive run and compare."""
    base = preset_scenario(name, "pi", seed=seed) if seed is not None else preset_scenario(name, "pi")
    cfg = scenario_to_config(base)
    # Leave the environment/sensor seeds derived so a later master-seed
    # override reseeds the whole run instead of only the bookkeeping field.
    cfg["environment"]["seed"] = None
    cfg["sensor"]["seed"] = None
    fz = TUNED_FUZZY[name]
    for axis in ("x", "z"):
        cfg["gains"]["fuzzy"][axis] = {"kp": fz.kp, "ki": fz.ki, "kx": fz.kx}
    pi = TUNED_PI[name]
    for axis in ("x", "z"):
        cfg["gains"]["pi"][axis] = {"kp": pi.kp, "ki": pi.ki}
    return cfg


def dump_yaml(data: Dict[str, Any], path) -> None:
    Path(path).write_text(yaml.safe_dump(data, sort_keys=True, default_flow_style=False))


def to_yaml(data: Dict[str, Any]) -> str:
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
