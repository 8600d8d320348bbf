"""Kept mutants: small wrong edits to the program that the tests must catch.

Each entry names a file, an old text that occurs in it exactly once, the
new text that replaces it, and the test node ids that must fail under the
edit. Running this file checks that they still do, so that a later change
cannot quietly weaken the test that killed a mutant:

    python tests/mutants.py

Pytest does not collect this file: its name does not start with test_.

The runner copies src/, tests/ and pyproject.toml into a temporary
directory, runs every named node id there once unchanged (they must all
pass), then applies each mutant to a fresh copy and runs its node ids. It
exits 1 when an old text no longer occurs exactly once, when a named node
id fails on the unchanged copy, or when a mutant survives: one of its node
ids passes, or pytest ends without running them. A program change that
moves an old text updates the entry with it; a change that adds a
shortcut adds the mutant that the shortcut's test kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kills: tuple  # node ids that must fail


MUTANTS = [
    Mutant(
        "the divisor index's climb keeps each row's bits in place instead of moving them up",
        "src/ghk/groebner.py",
        "bits[a] |= bits[a] << 1 | (bits[a - 1] if a else 0)",
        "bits[a] |= bits[a] | (bits[a - 1] if a else 0)",
        (
            "tests/test_groebner.py::test_masked_hk_basis_asks_the_index_only_for_reducible_terms",
            "tests/test_groebner.py::test_masks_in_an_elimination_run",
        ),
    ),
    Mutant(
        "a single variable certifies without the pole-order check",
        "src/ghk/idealops.py",
        "        torsion = hs.sub(cut[i])\n        dim, length = torsion.leading()\n        if dim == 0:\n",
        "        torsion = hs.sub(cut[i])\n        dim, length = torsion.leading()\n        if True:\n",
        (
            "tests/test_frobmod.py::test_uncertified_saturations_never_take_a_colon",
            "tests/test_idealops.py::test_certified_saturation_intersects_on_coordinate_triangle",
        ),
    ),
    Mutant(
        "fibre ranks order the variables on rank(1, 0) < U.rank alone",
        "src/ghk/idealops.py",
        "return at_x < U.rank and at_x < _vertex_rank(U, True)",
        "return at_x < U.rank",
        (
            "tests/test_frobmod.py::test_certificate_tries_x_first_exactly_over_y_zero",
            "tests/test_frobmod.py::test_uncertified_length_intersects_variable_saturations",
        ),
    ),
    Mutant(
        "a length table drops the row that its budget skipped",
        "src/ghk/frobmod.py",
        "skipped.append(SkippedRow(e, str(ex)))",
        "pass",
        (
            "tests/test_cli.py::test_hk_budget_exhaustion_exits_3_with_partial_output",
            "tests/test_frobmod.py::test_table_budget_marks_rows_skipped",
        ),
    ),
    Mutant(
        "the Hilbert series' multiplicity drops the sign (-1)^m of its moment",
        "src/ghk/idealops.py",
        "return n - m, (-1) ** m * M",
        "return n - m, M",
        (
            "tests/test_idealops.py::test_leading_matches_stepwise_division",
            "tests/test_frobmod.py::test_hk_pinned_values",
        ),
    ),
    Mutant(
        # shifting the falling factorial itself, binom(e - 1, i) for
        # binom(e, i), is an equivalent mutant: those are the moments of
        # K(t)/t, which has the same pole order and value at 1
        "the Hilbert series' moments divide the falling factorial by (i + 1)!, not i!",
        "src/ghk/idealops.py",
        "c * (e - m) // (m + 1) for",
        "c * (e - m) // (m + 2) for",
        (
            "tests/test_idealops.py::test_leading_matches_stepwise_division",
            "tests/test_idealops.py::test_leading_reads_a_billion_degree_span_at_once[0]",
            "tests/test_idealops.py::test_series_square_ideal",
        ),
    ),
    Mutant(
        "the pair update drops the product criterion",
        "src/ghk/groebner.py",
        "if rank == 1 and rep[lcm][0] == lcm - hm:",
        "if False:",
        ("tests/test_groebner.py::test_pair_update_reduces_no_more_s_pairs[hk-353-178]",),
    ),
    Mutant(
        "a pure power added after other leads of its component does not replay them",
        "src/ghk/groebner.py",
        "for m in (self.records[i][2] for *_, items in entry[1] for _, i in items):",
        "for m in ():",
        ("tests/test_groebner.py::test_masks_skip_only_queries_that_find_no_divisor",),
    ),
    Mutant(
        "the centre search reads the shift's base-p digits in reverse",
        "src/ghk/idealops.py",
        "shift = tuple(count // p ** (k - 1 - t) % p for t in range(k))",
        "shift = tuple(count // p**t % p for t in range(k))",
        (
            "tests/test_frobmod.py::test_centre_search_stops_where_cohen_macaulay_fails[2-relations2-12]",
            "tests/test_frobmod.py::test_centre_search_keeps_every_normalized_centre[shifted]",
        ),
    ),
    Mutant(
        "the modular-law meet reads the series of the last saturation alone",
        "src/ghk/idealops.py",
        "met = met.sub(hilbert_series(both, budget).sub(cut[i]))",
        "met = cut[i]",
        (
            "tests/test_frobmod.py::test_uncertified_length_intersects_variable_saturations",
            "tests/test_idealops.py::test_certified_saturation_intersects_on_coordinate_triangle",
        ),
    ),
    Mutant(
        "hk_value returns a length for an ideal that is not irrelevant-primary",
        "src/ghk/frobmod.py",
        "    if dim > 0:\n",
        "    if False:\n",
        ("tests/test_frobmod.py::test_hk_rejects_non_primary",),
    ),
    Mutant(
        "a border monomial that is 0 in R is not kept, so its multiples are walked",
        "src/ghk/idealops.py",
        "            if nf.is_zero():\n                self._zero.append(u)\n",
        "",
        ("tests/test_frobmod.py::test_a_fibre_power_that_is_zero_in_r_is_not_walked",),
    ),
    Mutant(
        "the relation's rows multiply by x_o without substituting the top slice",
        "src/ghk/groebner.py",
        "        for sh, c in self.subst:\n",
        "        for sh, c in ():\n",
        (
            "tests/test_groebner.py::test_times_x_reduces_its_widest_product_exactly[19-3]",
            "tests/test_groebner.py::test_relation_rows_build_the_fermat_hk_basis",
        ),
    ),
    Mutant(
        "the relation's reducibility mask climbs without the x_o shift",
        "src/ghk/groebner.py",
        "for alpha in range(min(k, self.d - 1) + 1):",
        "for alpha in range(1):",
        (
            "tests/test_groebner.py::test_relation_rows_build_the_fermat_hk_basis",
            "tests/test_groebner.py::test_relation_rows_on_dense_relations[11-11-x^3 + 2*y^3 + 3*z^3 + x*y*z + 5*x^2*y]",
        ),
    ),
    Mutant(
        "a pair with the relation seeds x_o^(d - i - 1) times the other record, not x_o^(d - i)",
        "src/ghk/groebner.py",
        "alpha = (tau & _FMAX) - (m & _FMAX)",
        "alpha = min(tau & _FMAX, self.d - 1) - min(m & _FMAX, self.d - 1)",
        (
            "tests/test_groebner.py::test_relation_rows_build_the_fermat_hk_basis",
            "tests/test_groebner.py::test_relation_rows_on_dense_relations[7-7-3*x^2 + y*z + 2*y^2 + x*z]",
        ),
    ),
    Mutant(
        "the heap reducer hands out the latest record, not the pure power's, at or past x_o^X",
        "src/ghk/groebner.py",
        "red = entry[3]  # at or past x_o^X, which divides the term",
        "red = index.records[-1]",
        ("tests/test_groebner.py::test_gb_elements_in_span_and_conversely[5-3]",),
    ),
]


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run(tree: Path, node_ids) -> tuple:
    """(pytest's exit status, the node ids it reports failed) in tree."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *node_ids],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True,
        text=True,
    )
    failed = {
        line[len("FAILED ") :].split(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return proc.returncode, failed


def main() -> int:
    faults = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            faults.append(f"stale: {m.name}: the old text occurs {count} times in {m.path}")
    if faults:
        print("\n".join(faults))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        node_ids = sorted({n for m in MUTANTS for n in m.kills})
        status, failed = _run(base, node_ids)
        if status != 0:
            print(f"the unchanged tree fails: {sorted(failed) or f'pytest exit status {status}'}")
            return 1
        for k, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{k}"
            _copy_tree(tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            status, failed = _run(tree, m.kills)
            survivors = sorted(set(m.kills) - failed)
            if status == 1 and not survivors:
                print(f"killed: {m.name}")
            else:
                faults.append(f"survived: {m.name}: {survivors} (pytest exit status {status})")
            shutil.rmtree(tree)
    print("\n".join(faults) or f"all {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
