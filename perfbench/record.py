"""Record refs.json: the outputs of every command the workload generator can emit.

    python3 perfbench/record.py

Run it from the repository root at a commit whose outputs are correct. A
change that alters simulation semantics on purpose re-records the references
in its own benchmark change, never in the change that claims a speed-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

import workloads  # noqa: E402
from forcemotion.cli import main  # noqa: E402


def record() -> dict:
    refs = {"run": {}, "tune": {}}
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        commands = [
            workloads.run_command(p, c, s, out)
            for c in ("pi", "fuzzy")
            for p in workloads.PRESETS
            for s in workloads.RUN_SEEDS
        ] + [
            workloads.tune_command(ROOT, c, s, out)
            for c in workloads.TUNE_CONTROLLERS
            for s in workloads.TUNE_SEEDS
        ]
        for cmd in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(cmd.argv))
            if code != 0:
                raise SystemExit(f"{' '.join(cmd.argv)} exited with {code}")
            data = (out / cmd.outputs[0]).read_bytes()
            if cmd.kind == "run":
                refs["run"][cmd.key] = hashlib.sha256(data).hexdigest()
            else:
                refs["tune"][cmd.key] = workloads.reference_entries(yaml.safe_load(data))
    finally:
        shutil.rmtree(out)
    return refs


if __name__ == "__main__":
    refs = record()
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS}: {len(refs['run'])} trace digests, {len(refs['tune'])} leaderboards")
