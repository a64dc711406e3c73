"""`perfbench/run.py --smoke` runs every workload once, untraced and twice
traced, and checks every command against refs.json and every metric that
BENCHMARK.json declares. Tier-1 runs it, so a refactor that drops a traced
name or a declared metric fails here rather than in the benchmark."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_prints_smoke_ok():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
