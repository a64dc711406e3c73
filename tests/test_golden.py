"""Golden outputs: every preset x controller run and every preset compare is
pinned by the SHA-256 of the files the CLI writes.

The CSV digests are the ones the benchmark records in `perfbench/refs.json`
for the committed master seed 2211, so any change to the arithmetic of the
plant, the control laws or the fuzzy engine that moves a printed digit fails
here. The YAML digests pin the emitted summaries and compare reports at the
same seed, so a change of emitter, key order or number formatting fails too.
Two configs written here lean on the schema defaults (every preset spells
out its obstacles), so a default that drifts from its library type fails.
"""
import hashlib
import json
from pathlib import Path

import pytest

from forcemotion.cli import main

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
SEED = 2211

SUMMARY_SHA256 = {
    ("exp1", "pi"): "e5bc2a688b752897dd039de60aecde70f1bcf3b62be669297e7eb0bd7112f52e",
    ("exp1", "fuzzy"): "e1722713662e8df153b0d5f25ca34843b5bb14ddb4230e0833c7247217b4d739",
    ("exp2", "pi"): "8c47643cfc456cac34a38f28d3b39aebd12aa0c86127aafa2e595b4ac2f19faa",
    ("exp2", "fuzzy"): "925e8c0625810dc7f23fae70b89a9a0fc827ffd4bf3ead29cb5c7d4c7b211b50",
    ("exp3", "pi"): "86640aeede357d9c7ec1de573e28ddbb147d720355f8cc4cf83ae230bed170c3",
    ("exp3", "fuzzy"): "54aba90461b3c4fb08fcbfca05abf5fa764a11aa79675430b6dc614ea90090de",
}

COMPARE_SHA256 = {
    "exp1": "9a5d35bb32efdbdeb0f4d2084d2b73c508afa10ae1a4238b612b979fbafbebf9",
    "exp2": "7a1f482067b2bced76460ad53574dfe437f9db766632da7fde68be60dd3b8f02",
    "exp3": "c18d07f19d5b87bd22dd28626c84f31daae2e151dfac5f62f1a559a26792ae4a",
}


# Only the required keys: the arm, limits, path, sensor, timing and every
# obstacle field besides its extents come from the defaults.
DEFAULTS_CONFIG = """\
controller: pi
setpoint: {x: 0.0, z: 30.0}
environment:
  obstacles:
    - {type: rough_surface, height_base: 0.25}
    - {type: box, x_min: 0.68, x_max: 0.72, z_min: 0.1, z_max: 0.252}
"""

# The same scenario with every integer-valued default spelled as an integer.
INTEGER_CONFIG = """\
controller: pi
duration: 3
setpoint: {x: 0, z: 30}
arm: {qdot_max: 2}
path: [{t: 0, x: 0.55, z: 0.2475}, {t: 3, x: 0.75, z: 0.2475}]
sensor: {noise_sigma: 0, bias: {x: 0, z: 0}}
tuner: {weights: {overshoot: 10, not_settled: 1000}}
environment:
  obstacles:
    - {type: rough_surface, height_base: 0.25, roughness_amplitude: 0, noise_amplitude: 0,
       stiffness: 10000, friction_coeff: 0}
    - {type: box, x_min: 0.68, x_max: 0.72, z_min: 0.1, z_max: 0.252, stiffness: 10000}
"""

DEFAULTS_CSV_SHA256 = "f3ae172935022c9971c62c6ecbec9d308879d68aeacf9014e02eaa31d3886549"
DEFAULTS_SUMMARY_SHA256 = {
    "defaults": "9f70959341f886de350b5a0efedd683d7a87fbcb637c9537470cf389fd2b4cf3",
    "integers": "cba544406647c9ad635c67afa46f3519a9684607252bf75886627f8c77414607",
}


def _expected(preset, controller):
    return json.loads(REFS.read_text())["run"][f"{preset}/{controller}/{SEED}"]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("controller", ["pi", "fuzzy"])
@pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3"])
def test_trace_csv_matches_recorded_digest(preset, controller, tmp_path):
    code = main(
        [
            "run", "--preset", preset, "--controller", controller,
            "--seed", str(SEED), "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert _sha256(tmp_path / f"{preset}_{controller}.csv") == _expected(preset, controller)
    summary = tmp_path / f"{preset}_{controller}_summary.yaml"
    assert _sha256(summary) == SUMMARY_SHA256[preset, controller]


@pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3"])
def test_compare_report_matches_recorded_digest(preset, tmp_path):
    code = main(["compare", "--preset", preset, "--seed", str(SEED), "--out", str(tmp_path)])
    assert code == 0
    assert _sha256(tmp_path / f"{preset}_compare.yaml") == COMPARE_SHA256[preset]
    for controller in ("pi", "fuzzy"):
        assert _sha256(tmp_path / f"{preset}_{controller}.csv") == _expected(preset, controller)


@pytest.mark.parametrize(
    "label,text", [("defaults", DEFAULTS_CONFIG), ("integers", INTEGER_CONFIG)]
)
def test_schema_defaults_match_recorded_digest(label, text, tmp_path):
    config = tmp_path / f"{label}.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert _sha256(out / "custom_pi.csv") == DEFAULTS_CSV_SHA256
    assert _sha256(out / "custom_pi_summary.yaml") == DEFAULTS_SUMMARY_SHA256[label]
