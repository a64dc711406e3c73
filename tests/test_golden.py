"""Golden outputs: every preset x controller run and every preset compare is
pinned by the SHA-256 of the files the CLI writes.

The CSV digests are the ones the benchmark records in `perfbench/refs.json`
for the committed master seed 2211, so any change to the arithmetic of the
plant, the control laws or the fuzzy engine that moves a printed digit fails
here. The YAML digests pin the emitted summaries and compare reports at the
same seed, so a change of emitter, key order or number formatting fails too.
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
