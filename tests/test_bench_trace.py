"""Smoke test of the benchmark's traced path.

bench/tracer.py wraps ghk's module-global names and methods by name, so
renaming or deleting one of them breaks every traced benchmark call.
The call runs bench/child.py in a subprocess, so the tracer's rebinding
never reaches this test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBLEM = {
    "ring": {"prime": 5, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
    "module": {"ideal": ["z", "x + y"]},
    "task": {"command": "ghk", "e_max": 1},
}


def test_traced_child_call_records_spans(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEM))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "child.py"),
            str(ROOT / "src"),
            str(spans),
            str(problem),
            "--out",
            str(tmp_path / "out"),
            "--jobs",
            "1",
        ],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["error"] is None
    assert result["exit_code"] == 0
    trace = json.loads(spans.read_text())
    assert trace["spans"]
    assert {"cli.main", "frobmod.ghk_value"} <= {span[0] for span in trace["spans"]}
