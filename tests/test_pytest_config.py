"""The pytest configuration in pyproject.toml, run on a scratch suite.

filterwarnings turns every warning into an error. A failing Hypothesis
test must still fail on its own, and the tests after it must still run
and be reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUITE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=10, database=None)
@given(st.integers(0, 9))
def test_fails(n):
    assert n < 0


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_scratch.py").write_text(SUITE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_scratch.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "test_scratch.py::test_fails FAILED" in out, out
    assert "test_scratch.py::test_after PASSED" in out, out
    assert proc.returncode == 1, out
