"""Deterministic planar simulator for hybrid force/motion control.

An external force loop (incremental PI or Mamdani fuzzy-PI) converts force
errors into Cartesian corrections; an internal joint servo tracks the
corrected path against compliant obstacles.
"""

from .config import preset_scenario
from .control import (
    AXES,
    AxisForce,
    CorrectionLimits,
    FuzzyPIGains,
    PIGains,
    SelectionMatrix,
)
from .fuzzy import (
    AggregatedOutput,
    FuzzySet,
    Label,
    RuleBase,
    defuzzify_coa,
    fuzzify,
    infer,
)
from .plant import Box, Environment, PlanarArm, Pose, RoughSurface, SensorModel, Unreachable
from .presets import PRESET_NAMES
from .sim import (
    AllRunsFailed,
    Metrics,
    NoContact,
    NominalPath,
    ObjectiveWeights,
    PressDirection,
    Scenario,
    Trace,
    WorkspaceViolation,
    compute_metrics,
    run,
    tune,
)

__all__ = [
    "AXES",
    "AggregatedOutput",
    "AllRunsFailed",
    "AxisForce",
    "Box",
    "CorrectionLimits",
    "Environment",
    "FuzzyPIGains",
    "FuzzySet",
    "Label",
    "Metrics",
    "NoContact",
    "NominalPath",
    "ObjectiveWeights",
    "PIGains",
    "PRESET_NAMES",
    "PlanarArm",
    "Pose",
    "PressDirection",
    "RoughSurface",
    "RuleBase",
    "Scenario",
    "SelectionMatrix",
    "SensorModel",
    "Trace",
    "Unreachable",
    "WorkspaceViolation",
    "compute_metrics",
    "defuzzify_coa",
    "fuzzify",
    "infer",
    "preset_scenario",
    "run",
    "tune",
]

__version__ = "0.1.0"
