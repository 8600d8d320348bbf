"""Benchmark workloads: seeded problem files and their correctness gates.

Each workload is one ghk CLI command on a short list of problem files,
all with the same exact lengths, made by two length-preserving changes
of the canonical problem:

- the variables the ring relation is symmetric in are permuted, which is
  a ring automorphism, so every length is unchanged;
- the generators of each block are recombined by a matrix invertible
  modulo every prime in use, which leaves the module itself unchanged.

The list holds one problem per cyclic rotation of the symmetric
variables. Where a point sits relative to the monomial order changes
the engine's work (with one random permutation per seed, twisted
module seeds fell into two groups about 25% apart), so every run
covers each position once and runs of different seeds do the same mix
of work. The seed draws the matrices and whether a transposition of
the first two symmetric variables precedes the rotations; seed 0 keeps
the generators as they are, so its first problem is the canonical one.

The expected lengths come from closed forms, never from the engine, so
a run whose numbers drift from them fails the gate.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

VARIABLES = ("x", "y", "z")
FERMAT = "x^3 + y^3 + z^3"
SWEEP_RELATION = "x^3 + y^3 - 2*z^3"
# generators are linear forms, stored as integer coefficients on VARIABLES
SWEEP_POINT = ((1, -1, 0), (0, 1, -1))  # (x - y, y - z): the point (1:1:1)
FERMAT_POINT = ((0, 0, 1), (1, 1, 0))  # (z, x + y): the flex (1:-1:0)
IRRELEVANT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

SWEEP_PRIMES = (5, 7)
SWEEP_E_MAX = 2
# far above any basis these problems build, so the budgeted Groebner
# path runs without ever aborting
SWEEP_BUDGET_PAIRS = 1_000_000_000
HK_PRIME = 19
HK_E_MAX = 2
TWISTED_PRIME = 13
TWISTED_E_MAX = 1


def point_length(q: int) -> int:
    """L(R/I, q) for the ideal I of a rational point on a smooth plane
    cubic: 4(q^2 - 1)/3, exact for every q prime to 3."""
    return 4 * (q * q - 1) // 3


def fermat_hk_length(q: int) -> int:
    """Classical Hilbert-Kunz function of (x, y, z) on the Fermat cubic,
    (9q^2 - 5)/4, exact in every characteristic other than 2 and 3."""
    return (9 * q * q - 5) // 4


def _det(m: list) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def invertible_matrix(rng: random.Random, n: int, primes, unimodular: bool) -> list:
    """A random n x n integer matrix with entries in -2..2 that is
    invertible modulo every prime in `primes` (and over Z, with
    determinant +-1, when `unimodular`). Singular draws are rejected:
    a matrix singular mod p would silently shrink the ideal."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = _det(m)
        if unimodular and det not in (1, -1):
            continue
        if all(det % p for p in primes):
            return m


def recombine(forms, matrix) -> tuple:
    """Row i of the result is sum_j matrix[i][j] * forms[j]."""
    return tuple(
        tuple(sum(a * f[k] for a, f in zip(row, forms)) for k in range(len(VARIABLES)))
        for row in matrix
    )


def permute(forms, perm) -> tuple:
    """Substitute variable k -> variable perm[k] in every form."""
    out = []
    for f in forms:
        g = [0] * len(f)
        for k, c in enumerate(f):
            g[perm[k]] += c
        out.append(tuple(g))
    return tuple(out)


def form_str(form) -> str:
    """'2*x - y' style text for integer coefficients on VARIABLES."""
    text = ""
    for c, v in zip(form, VARIABLES):
        if c:
            term = ("" if abs(c) == 1 else f"{abs(c)}*") + v
            sign = "-" if c < 0 else "+"
            text = f"{text} {sign} {term}" if text else ("-" if c < 0 else "") + term
    if not text:
        raise ValueError("a generator recombined to zero")
    return text


def variants(seed: int, blocks, symmetric: tuple, primes, unimodular=False) -> list:
    """One length-preserving rewrite of `blocks` (lists of linear forms)
    per cyclic rotation of the variables `symmetric`."""
    rng = random.Random(seed)
    order = list(symmetric)
    if seed != 0 and rng.random() < 0.5:
        order[0], order[1] = order[1], order[0]
    out = []
    for r in range(len(order)):
        perm = list(range(len(VARIABLES)))
        for k, image in zip(symmetric, order[r:] + order[:r]):
            perm[k] = image
        rewritten = []
        for block in blocks:
            if seed != 0:
                block = recombine(block, invertible_matrix(rng, len(block), primes, unimodular))
            rewritten.append(permute(block, perm))
        out.append(rewritten)
    return out


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    """One CLI command on seeded problems, with its correctness gate."""

    name = ""
    cli_flags: tuple = ()

    def problems(self, seed: int) -> list:
        """The problem files (as dicts) a run at this seed cycles through."""
        raise NotImplementedError

    def check(self, outdir: Path) -> list:
        """Mismatches between the written reports and the closed forms."""
        raise NotImplementedError


def _rows_mismatch(rows, expected, label: str) -> list:
    got = [(r["e"], r["q"], r["length"]) for r in rows]
    if got != expected:
        return [f"{label}: rows {got}, expected {expected}"]
    return []


class Sweep(Workload):
    name = "sweep"
    cli_flags = ("--budget-pairs", str(SWEEP_BUDGET_PAIRS))

    def problems(self, seed: int) -> list:
        return [
            {
                "ring": {
                    "primes": list(SWEEP_PRIMES),
                    "variables": list(VARIABLES),
                    "relations": [SWEEP_RELATION],
                },
                "module": {"ideal": [form_str(g) for g in gens]},
                "task": {"command": "sweep", "e_max": SWEEP_E_MAX},
            }
            for (gens,) in variants(seed, [SWEEP_POINT], (0, 1), SWEEP_PRIMES, unimodular=True)
        ]

    def check(self, outdir: Path) -> list:
        sweep = json.loads((outdir / "sweep-report.json").read_text())["sweep"]
        errors = []
        if [row["p"] for row in sweep["rows"]] != list(SWEEP_PRIMES):
            errors.append(f"sweep: primes {[row['p'] for row in sweep['rows']]}")
        for row in sweep["rows"]:
            p = row["p"]
            if not row["validated"] or row["reason"] or row["table"] is None:
                errors.append(f"sweep p={p}: flagged ({row['reason']!r})")
                continue
            expected = [(e, p**e, point_length(p**e)) for e in range(1, SWEEP_E_MAX + 1)]
            errors += _rows_mismatch(row["table"]["rows"], expected, f"sweep p={p}")
            if row["table"]["skipped"]:
                errors.append(f"sweep p={p}: skipped rows {row['table']['skipped']}")
            if row["estimate"] != "4/3":
                errors.append(f"sweep p={p}: estimate {row['estimate']}, expected 4/3")
        if sweep["spread"] != "0":
            errors.append(f"sweep: spread {sweep['spread']}, expected 0")
        return errors


class ClassicalHK(Workload):
    name = f"hk_q{HK_PRIME ** HK_E_MAX}"

    def problems(self, seed: int) -> list:
        return [
            {
                "ring": {
                    "prime": HK_PRIME,
                    "variables": list(VARIABLES),
                    "relations": [FERMAT],
                },
                "module": {"ideal": [form_str(g) for g in gens]},
                "task": {"command": "hk", "e_max": HK_E_MAX},
            }
            for (gens,) in variants(seed, [IRRELEVANT], (0, 1, 2), (HK_PRIME,))
        ]

    def check(self, outdir: Path) -> list:
        report = json.loads((outdir / "hk-report.json").read_text())
        p = HK_PRIME
        expected = [(e, p**e, fermat_hk_length(p**e)) for e in range(1, HK_E_MAX + 1)]
        return _rows_mismatch(report["table"]["rows"], expected, self.name)


class Twisted(Workload):
    name = f"twisted_q{TWISTED_PRIME ** TWISTED_E_MAX}"

    def problems(self, seed: int) -> list:
        return [
            {
                "ring": {
                    "prime": TWISTED_PRIME,
                    "variables": list(VARIABLES),
                    "relations": [FERMAT],
                },
                # R/I (+) R(-1)/I for the ideal I of a point
                "module": {
                    "presentation": {
                        "row_twists": [0, 1],
                        "col_twists": [1, 1, 2, 2],
                        "columns": [[form_str(g), "0"] for g in first]
                        + [["0", form_str(g)] for g in second],
                    }
                },
                # additivity: twice the point multiplicity (degY - 1)^2/degY = 4/3
                "task": {"command": "ghk", "e_max": TWISTED_E_MAX, "e_exact": "8/3"},
            }
            for first, second in variants(
                seed, [FERMAT_POINT, FERMAT_POINT], (0, 1, 2), (TWISTED_PRIME,)
            )
        ]

    def check(self, outdir: Path) -> list:
        report = json.loads((outdir / "ghk-report.json").read_text())
        p = TWISTED_PRIME
        expected = [
            (e, p**e, 2 * point_length(p**e)) for e in range(1, TWISTED_E_MAX + 1)
        ]
        errors = _rows_mismatch(report["table"]["rows"], expected, self.name)
        if report["table"]["skipped"]:
            errors.append(f"{self.name}: skipped rows {report['table']['skipped']}")
        if Fraction(report["closed_form_value"]) != Fraction(8, 3):
            errors.append(f"{self.name}: closed form {report['closed_form_value']}")
        return errors


WORKLOADS = {w.name: w for w in (Sweep(), ClassicalHK(), Twisted())}
