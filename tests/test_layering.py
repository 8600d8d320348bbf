"""Each private format stays with the module that owns it.

The packed monomial layout belongs to arith and groebner: leads leave
the engine only as (component, exponent tuple) pairs through
GroebnerBasis.lead_terms. The Noether normalization's tuples over A
belong to NoetherNormalization: frobmod reaches it only through
RingSpec.noether_normalization and NoetherNormalization.pullback.
The four checks of caller input (a vector, a relation list, an ideal,
one quotient ring) belong to groebner: no other module raises
RingMismatchError or tests a rank against 1.
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
    "_times",
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


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def raises_ring_mismatch(module: ast.Module) -> int:
    count = 0
    for node in ast.walk(module):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id == "RingMismatchError"
    return count


def compares_rank_to_one(module: ast.Module) -> int:
    count = 0
    for node in ast.walk(module):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute):
            count += node.left.attr == "rank" and any(
                isinstance(op, ast.NotEq) and isinstance(right, ast.Constant) and right.value == 1
                for op, right in zip(node.ops, node.comparators)
            )
    return count


@pytest.mark.parametrize("module", MODULES)
def test_only_groebner_checks_rings_and_ideals(module):
    found = (raises_ring_mismatch(tree(module)), compares_rank_to_one(tree(module)))
    if module == "groebner":
        assert found[0] > 0 and found[1] > 0
    else:
        assert found == (0, 0)
