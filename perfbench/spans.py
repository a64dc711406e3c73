"""In-memory span tracing for the traced pass of the benchmark.

Wrappers are installed from here, never from ``src/``: each public function is
patched under the name its caller resolves (``forcemotion.sim.ik`` rather than
only ``forcemotion.plant.ik``), so the call sites inside the program hit the
wrapper. Every span records its name, start, end, parent span and command id;
spans stay in memory until the benchmark writes them out at the end.
"""
from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Traced functions, named "<module>.<qualified name>". The modules are the
# layers the per-layer metrics are reported for.
FUNCTIONS = (
    "cli.main",
    "cli.format_trace_csv",
    "config.preset_config",
    "config.validate_config",
    "config.scenario_from_config",
    "config.to_yaml",
    "presets.preset_scenario",
    "sim.run",
    "sim.NominalPath.pose_at",
    "sim.compute_metrics",
    "sim.tune",
    "control.HybridForceController.step",
    "control.pi_step",
    "control.fuzzy_pi_step",
    "fuzzy.fuzzify",
    "fuzzy.infer",
    "fuzzy.fire_rules",
    "fuzzy.defuzzify_coa",
    "plant.ik",
    "plant.PlanarArm.servo_step",
    "plant.PlanarArm.fk",
    "plant.PlanarArm.joint_torques",
    "plant.Environment.contact_force",
    "plant.SensorModel.sense",
)
MODULES = ("cli", "config", "presets", "sim", "control", "fuzzy", "plant")

Observer = Callable[[tuple, object], None]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: List[str] = list(FUNCTIONS)
        self.name_id = array("i")
        self.parent = array("q")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.command_id = -1
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Return `fn` wrapped in a span named `name`.

        `observe(args, result)` runs after the span has closed, so its cost
        lands in the caller's self time, not in `name`'s.
        """
        nid = self.names.index(name)
        name_id, parent, command = self.name_id, self.parent, self.command
        start, end, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            command.append(tracer.command_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, observe: Optional[Observer] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, first: int = 0, last: Optional[int] = None) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per function over spans [first, last).

        Self time is a span's duration minus the durations of its direct
        children. The range must hold whole commands, so that no child
        outlives its parent's range.
        """
        last = len(self) if last is None else last
        names = np.array(self.name_id[first:last])
        parents = np.array(self.parent[first:last]) - first
        dur = np.array(self.end[first:last]) - np.array(self.start[first:last])
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        busy = np.bincount(names, weights=self_s, minlength=n)
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span as columns of one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id),
            parent=np.array(self.parent),
            command=np.array(self.command),
            start=np.array(self.start),
            end=np.array(self.end),
        )


def install(tracer: Tracer, on_run: Observer, on_fire: Observer, on_infer: Observer) -> None:
    """Patch every function in FUNCTIONS except cli.main, which the caller wraps."""
    from forcemotion import cli, config, control, fuzzy, plant, sim

    patch = tracer.patch
    patch(cli, "format_trace_csv", "cli.format_trace_csv")
    for attr in ("preset_config", "validate_config", "scenario_from_config", "to_yaml"):
        patch(config, attr, f"config.{attr}")
    patch(config, "preset_scenario", "presets.preset_scenario")
    patch(cli, "run", "sim.run", on_run)
    patch(sim, "run", "sim.run", on_run)
    patch(sim.NominalPath, "pose_at", "sim.NominalPath.pose_at")
    patch(cli, "compute_metrics", "sim.compute_metrics")
    patch(sim, "compute_metrics", "sim.compute_metrics")
    patch(cli, "tune", "sim.tune")
    patch(control.HybridForceController, "step", "control.HybridForceController.step")
    patch(control, "pi_step", "control.pi_step")
    patch(control, "fuzzy_pi_step", "control.fuzzy_pi_step")
    patch(fuzzy, "fuzzify", "fuzzy.fuzzify")
    patch(fuzzy, "infer", "fuzzy.infer", on_infer)
    patch(fuzzy, "fire_rules", "fuzzy.fire_rules", on_fire)
    patch(fuzzy, "defuzzify_coa", "fuzzy.defuzzify_coa")
    patch(sim, "ik", "plant.ik")
    for attr in ("servo_step", "fk", "joint_torques"):
        patch(plant.PlanarArm, attr, f"plant.PlanarArm.{attr}")
    patch(plant.Environment, "contact_force", "plant.Environment.contact_force")
    patch(plant.SensorModel, "sense", "plant.SensorModel.sense")
