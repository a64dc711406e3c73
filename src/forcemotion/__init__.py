"""Deterministic planar simulator for hybrid force/motion control.

An external force loop (incremental PI or Mamdani fuzzy-PI) converts force
errors into Cartesian corrections; an internal joint servo tracks the
corrected path against compliant obstacles.
"""

from .config import (
    experiment1_scenario,
    experiment2_scenario,
    experiment3_scenario,
    preset_scenario,
)
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
    FuzzyInference,
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
    ArmParams,
    ComparisonReport,
    Metrics,
    NoContact,
    NominalPath,
    ObjectiveWeights,
    PressDirection,
    Scenario,
    Trace,
    WorkspaceViolation,
    compare,
    compute_metrics,
    run,
    run_batch,
    tune,
)

__all__ = [
    "AXES",
    "AggregatedOutput",
    "AllRunsFailed",
    "ArmParams",
    "AxisForce",
    "Box",
    "ComparisonReport",
    "CorrectionLimits",
    "Environment",
    "FuzzyInference",
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
    "compare",
    "compute_metrics",
    "defuzzify_coa",
    "experiment1_scenario",
    "experiment2_scenario",
    "experiment3_scenario",
    "fuzzify",
    "infer",
    "preset_scenario",
    "run",
    "run_batch",
    "tune",
]

__version__ = "0.1.0"
