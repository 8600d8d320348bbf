"""Every name a module exports resolves, so `from ghk import *` works."""

import importlib
import pkgutil

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
