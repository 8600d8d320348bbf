"""Each private format stays with the module that owns it.

The packed monomial layout belongs to arith and groebner: leads leave
the engine only as (component, exponent tuple) pairs through
GroebnerBasis.lead_terms. The Noether normalization's tuples over A
belong to NoetherNormalization: frobmod reaches it only through
RingSpec.noether_normalization and NoetherNormalization.pullback.
The modules are read as source, so nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghk"
CLIENTS = ("idealops", "frobmod", "fitlab", "hnform", "cli")
PACKED_NAMES = {"EXP_BITS", "EXP_GUARD", "_FMAX", "PackedMonomials"}
NORMALIZATION_INTERNALS = {
    "_substitute",
    "_coordinates",
    "_combine",
    "_ladder",
    "_frobenius",
    "_pth",
    "_table",
}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def names_used(module: ast.Module) -> set:
    """Every bare name and attribute name that the module mentions."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize("module", CLIENTS)
def test_no_client_imports_the_packed_layout(module):
    imported = {
        alias.name
        for node in ast.walk(tree(module))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & PACKED_NAMES


@pytest.mark.parametrize("module", CLIENTS)
def test_no_client_reads_packed_monomials(module):
    module = tree(module)
    attrs = {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute)}
    assert "pm" not in attrs
    assert "packed_leads" not in names_used(module)


def test_frobmod_leaves_the_normalization_arithmetic_to_its_owner():
    assert not names_used(tree("frobmod")) & NORMALIZATION_INTERNALS
