"""Built-in experiment scenarios, as partial config documents, and the tuned
gains shipped with them. `forcemotion.config` fills in the schema defaults
and builds the scenarios.

Geometry is desk scale, consistent with the 2 x 0.5 m arm:

* experiment 1 - a descent path that collides with an unexpected compliant
  block; hold 10 N down while tolerating the intrusion (0 N sideways).
* experiment 2 - slide along an irregular compliant floor holding 30 N down;
  only the vertical axis is force controlled.
* experiment 3 - experiment 2 with sliding friction enabled and the friction
  drag regulated to 6 N alongside the 30 N normal force.

The gains below were produced by the shipped grid-search tuner
(`forcemotion tune`); the full leaderboards live in tuning/.
"""
from __future__ import annotations

from typing import Any, Dict

from .control import FuzzyPIGains, PIGains

DEFAULT_SEED = 2211

# Tuner-selected gains (see tuning/ for the leaderboards).
TUNED_PI: Dict[str, PIGains] = {
    "exp1": PIGains(kp=5e-4, ki=5e-5),
    "exp2": PIGains(kp=5e-4, ki=2e-4),
    "exp3": PIGains(kp=5e-4, ki=2e-4),
}
TUNED_FUZZY: Dict[str, FuzzyPIGains] = {
    "exp1": FuzzyPIGains(kp=0.1, ki=1 / 15, kx=2e-3),
    "exp2": FuzzyPIGains(kp=0.1, ki=1 / 30, kx=2e-3),
    "exp3": FuzzyPIGains(kp=0.1, ki=1 / 30, kx=2e-3),
}

# The path and the irregular floor of experiments 2 and 3.
_SLIDE_PATH = [{"t": 0.0, "x": 0.55, "z": 0.2475}, {"t": 3.0, "x": 0.75, "z": 0.2475}]
_ROUGH_FLOOR = {
    "type": "rough_surface",
    "height_base": 0.25,
    "roughness_amplitude": 0.001,
    "roughness_wavelength": 0.05,
    "noise_amplitude": 2e-4,
    "stiffness": 10_000.0,
    "friction_coeff": 0.0,
}

PRESETS: Dict[str, Dict[str, Any]] = {
    # The path dives 10 mm into the block top, so the uncontrolled baseline
    # peaks at ~100 N. The vertical correction is retract-only (u_max = 0):
    # the block intrudes into free space, so pressing deeper than nominal is
    # never useful and pre-contact windup is structurally excluded.
    "exp1": {
        "name": "exp1",
        "setpoint": {"x": 0.0, "z": 10.0},
        "limits": {"z": {"u_min": -0.02, "u_max": 0.0, "du_max": 5e-4}},
        "path": [{"t": 0.0, "x": 0.65, "z": 0.33}, {"t": 0.8, "x": 0.65, "z": 0.29}],
        "environment": {
            "obstacles": [
                {"type": "box", "x_min": 0.55, "x_max": 0.75, "z_min": 0.10, "z_max": 0.30,
                 "stiffness": 10_000.0},
            ]
        },
    },
    "exp2": {
        "name": "exp2",
        "setpoint": {"x": 0.0, "z": 30.0},
        "selection": {"x": False, "z": True},
        "path": _SLIDE_PATH,
        "environment": {"obstacles": [_ROUGH_FLOOR]},
    },
    # The friction coefficient (0.2) makes the free-sliding drag sit near the
    # 6 N set point once the normal force holds.
    "exp3": {
        "name": "exp3",
        "setpoint": {"x": 6.0, "z": 30.0},
        "path": _SLIDE_PATH,
        "environment": {"obstacles": [{**_ROUGH_FLOOR, "friction_coeff": 0.2}]},
    },
}
PRESET_NAMES = tuple(PRESETS)
