"""Behaviour counts derived from returned traces, with no probe inside the program.

Each count is read off the trace columns (``f_*``, ``du_*``, ``u_*``,
``q1``/``q2``) against the scenario's own limits, so a pure speed-up leaves
every count identical.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from forcemotion.sim import TRACE_COLUMNS

# Same contact threshold as forcemotion.sim.compute_metrics.
CONTACT_N = 0.1
# A joint step within this relative distance of qdot_max*dt is rate limited;
# the float sum q + dq rounds dq by a few ulps.
RATE_LIMIT_RTOL = 1e-9

_COL = {name: i for i, name in enumerate(TRACE_COLUMNS)}


def trace_counts(scenario, values: np.ndarray) -> Counter:
    """Numerators and denominators of the behaviour ratios for one trace."""

    def col(name: str) -> np.ndarray:
        return values[:, _COL[name]]

    ticks = len(values)
    c = Counter(ticks=ticks, scenarios=1)
    for axis in ("x", "z"):
        if not getattr(scenario.selection, axis):
            continue
        limits = scenario.limits[axis]
        u = col(f"u_{axis}")
        c["axis_ticks"] += ticks
        c["du_clamped"] += int(np.count_nonzero(np.abs(col(f"du_{axis}")) >= limits.du_max))
        c["u_saturated"] += int(np.count_nonzero((u <= limits.u_min) | (u >= limits.u_max)))

    contact = (np.abs(col("f_x")) > CONTACT_N) | (np.abs(col("f_z")) > CONTACT_N)
    c["contact_ticks"] += int(np.count_nonzero(contact))
    c["contact_transitions"] += int(np.count_nonzero(contact[1:] != contact[:-1]))
    if contact.any():
        c["contact_scenarios"] += 1
        c["first_contact_tick"] += int(np.argmax(contact))

    dq_max = scenario.arm.qdot_max * scenario.dt * (1.0 - RATE_LIMIT_RTOL)
    steps = np.abs(np.diff(values[:, [_COL["q1"], _COL["q2"]]], axis=0))
    c["servo_steps"] += ticks - 1
    c["rate_limited"] += int(np.count_nonzero((steps >= dq_max).any(axis=1)))
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(c: Counter) -> dict:
    """Per-layer count metrics from summed trace counts, per scenario or as ratios."""
    scenarios = c["scenarios"]
    return {
        "sim.ticks": _ratio(c["ticks"], scenarios),
        "control.du_clamped_ratio": _ratio(c["du_clamped"], c["axis_ticks"]),
        "control.u_saturated_ratio": _ratio(c["u_saturated"], c["axis_ticks"]),
        "fuzzy.rules_fired_per_call": _ratio(c["rules_fired"], c["fire_rules_calls"]),
        "fuzzy.clips_per_call": _ratio(c["clips"], c["infer_calls"]),
        "plant.contact_ratio": _ratio(c["contact_ticks"], c["ticks"]),
        "plant.contact_transitions": _ratio(c["contact_transitions"], scenarios),
        "plant.first_contact_tick": _ratio(c["first_contact_tick"], c["contact_scenarios"]),
        "plant.rate_limited_ratio": _ratio(c["rate_limited"], c["servo_steps"]),
    }
