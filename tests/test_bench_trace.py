"""Smoke test of the benchmark's traced path.

bench/tracer.py wraps ghk's module-global names and methods by name, so
renaming or deleting one of them breaks every traced benchmark call.
The call runs bench/child.py in a subprocess, so the tracer's rebinding
never reaches this test process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FERMAT5 = {"prime": 5, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]}


def bench_module(name: str):
    """bench/<name>.py, loaded without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_call(tmp_path, problem: dict) -> dict:
    """The spans and bursts of one traced CLI call on `problem`."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "child.py"),
            str(ROOT / "src"),
            str(spans),
            str(path),
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
    return trace


def traced_span_names(tmp_path, problem: dict) -> set:
    """The span names of one traced CLI call on `problem`."""
    return {span[0] for span in traced_call(tmp_path, problem)["spans"]}


def test_traced_child_call_records_spans(tmp_path):
    problem = {
        "ring": FERMAT5,
        "module": {"ideal": ["z", "x + y"]},
        "task": {"command": "ghk", "e_max": 1},
    }
    assert {"cli.main", "frobmod.ghk_value"} <= traced_span_names(tmp_path, problem)


def test_traced_hk_call_reaches_the_hilbert_series(tmp_path):
    # hk_value calls hilbert_series through the idealops module, where
    # the tracer rebinds it
    problem = {
        "ring": FERMAT5,
        "module": {"ideal": ["x", "y", "z"]},
        "task": {"command": "hk", "e_max": 1},
    }
    assert {"frobmod.hk_value", "idealops.hilbert_series"} <= traced_span_names(tmp_path, problem)


def test_traced_twisted_call_builds_no_rejected_basis(tmp_path):
    # the twisted workload's seed-0 problem at I = (y, x + z): its torsion
    # lies over (1 : 0) of the centre's P^1, so the certificate tries x
    # first and builds no y basis that its pole-order test would reject
    # (4 bases while y was always tried first)
    problem = bench_module("workloads").WORKLOADS["twisted_q13"].problems(0)[2]
    assert problem["module"]["presentation"]["columns"][:2] == [["y", "0"], ["x + z", "0"]]
    metrics = bench_module("tracer").layer_metrics(traced_call(tmp_path, problem))
    assert metrics["groebner.bases_built"] == (3, "count")
