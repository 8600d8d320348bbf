"""Every name a module exports resolves, so `from ghk import *` works."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ghk

MODULES = ["ghk"] + sorted(f"ghk.{m.name}" for m in pkgutil.iter_modules(ghk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_star_import():
    namespace: dict = {}
    exec("from ghk import *", namespace)
    assert set(ghk.__all__) <= set(namespace)


def _fresh(code: str) -> list:
    """The words code prints in a new interpreter, where no name of ghk
    has been resolved yet."""
    src = str(Path(ghk.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('ghk.')))"


def test_cli_start_up_loads_only_what_the_command_line_runs():
    """The package's names load on first use, and only the closed-form
    command reads hnform, so `import ghk.cli` loads these seven alone."""
    out = _fresh(f"import sys, ghk.cli; {LOADED}")
    assert out == sorted(f"ghk.{m}" for m in ("arith", "errors", "groebner", "idealops", "frobmod", "fitlab", "cli"))


def test_dir_covers_every_exported_name_before_any_loads():
    out = _fresh(f"import sys, ghk; print(set(ghk.__all__) <= set(dir(ghk))); {LOADED}")
    assert out == ["True"]
