"""Ideal and submodule operations over graded quotient rings.

RingSpec bundles F_p[variables]/(relations) with validation helpers
(Krull dimension, projective degree, smoothness). On top of the
Groebner engine this module provides bracket powers, intersections,
colons, saturations, reflexive hulls, Hilbert series, and exact
colengths.

Design rules enforced here:

* Quotient rings stay implicit: every operation manipulates submodules
  over the polynomial ring with relation columns adjoined, and returns
  results in the same representation.
* Lengths are read off exact Hilbert series differences (numerator
  polynomials over (1-t)^n), never by scanning graded pieces.
* Saturation defaults to iterated colon by the irrelevant ideal; the
  single-basis divide-by-last-variable route is available as an
  explicit method ("divide", or "auto" to pick it when valid) and is
  required by tests to agree with the default.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .arith import EXP_GUARD, MonomialOrder, PackedMonomials, Poly, PolyRing, frobenius_power
from .errors import (
    GhkError,
    GhkHypothesisError,
    HomogeneityError,
    RingMismatchError,
)
from .groebner import (
    GbBudget,
    GroebnerBasis,
    ModVector,
    Submodule,
    _trusted_reduced_basis,
    buchberger,
)

__all__ = [
    "RingSpec",
    "RingReport",
    "SmoothnessReport",
    "HilbertSeries",
    "bracket_power",
    "intersect",
    "colon",
    "saturate",
    "reflexive_hull",
    "hilbert_series",
    "colength_difference",
    "degree_of_proj",
    "smoothness_check",
    "sheaf_degree",
]


# ---------------------------------------------------------------------------
# Hilbert series


@dataclass(frozen=True)
class HilbertSeries:
    """Series numer(t) / (1-t)^denom_power with integer Laurent numerator.

    numer is a tuple of (exponent, coeff) pairs, sorted, no zeros.
    Exponents may be negative (twisted ambient modules).
    """

    numer: tuple
    denom_power: int

    @classmethod
    def from_dict(cls, d: dict, denom_power: int) -> "HilbertSeries":
        items = tuple(sorted((e, c) for e, c in d.items() if c))
        return cls(items, denom_power)

    def as_dict(self) -> dict:
        return dict(self.numer)

    def is_zero(self) -> bool:
        return not self.numer

    def sub(self, other: "HilbertSeries") -> "HilbertSeries":
        if other.denom_power != self.denom_power:
            raise GhkError("cannot subtract series over different denominators")
        d = dict(self.numer)
        for e, c in other.numer:
            d[e] = d.get(e, 0) - c
        return HilbertSeries.from_dict(d, self.denom_power)

    def reduced(self) -> "HilbertSeries":
        """Cancel every factor of (1-t) shared with the denominator."""
        d = dict(self.numer)
        n = self.denom_power
        if not d:
            return HilbertSeries((), 0)
        while n > 0:
            q = _divide_by_one_minus_t(d)
            if q is None:
                break
            d = q
            n -= 1
            if not d:
                return HilbertSeries((), 0)
        return HilbertSeries.from_dict(d, n)

    def pole_order(self) -> int:
        """Order of the pole at t=1: the Krull dimension of the module."""
        return self.reduced().denom_power

    def numer_at_one(self) -> int:
        return sum(c for _, c in self.numer)

    def coefficient(self, d: int) -> int:
        """Exact coefficient of t^d: the F_p-dimension of the degree-d piece."""
        n = self.denom_power
        total = 0
        for e, c in self.numer:
            k = d - e
            if k >= 0:
                total += c * comb(k + n - 1, n - 1) if n > 0 else (c if k == 0 else 0)
        return total

    def __str__(self) -> str:
        if not self.numer:
            return "0"
        parts = []
        for e, c in self.numer:
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*t^{e}")
        return f"({' + '.join(parts)}) / (1-t)^{self.denom_power}"


def _divide_by_one_minus_t(d: dict) -> dict | None:
    """Quotient d/(1-t) as a dict, or None when division is not exact."""
    if not d:
        return {}
    lo, hi = min(d), max(d)
    out = {}
    carry = 0
    for k in range(lo, hi + 1):
        carry += d.get(k, 0)
        if carry:
            out[k] = carry
    if carry != 0:
        return None
    out.pop(hi, None)
    return out


def _minimalize_monomials(mons: Iterable[tuple], pm: PackedMonomials) -> tuple:
    """Drop monomials that are multiples of another in the list.

    The divisibility test runs on guard-bit packed monomials (arith.py).
    """
    uniq = sorted(set(mons), key=lambda m: (sum(m), m))
    guard = pm.guard
    keep: list = []
    packed: list = []
    for m in uniq:
        pk = pm.pack(m, EXP_GUARD - 1)
        mg = pk | guard
        for k in packed:
            if (mg - k) & guard == guard:
                break
        else:
            keep.append(m)
            packed.append(pk)
    return tuple(keep)


def _pairwise_coprime(mons: Sequence[tuple]) -> bool:
    for i in range(len(mons)):
        for j in range(i):
            if any(a and b for a, b in zip(mons[i], mons[j])):
                return False
    return True


def _coprime_product_numer(mons: Sequence[tuple]) -> dict:
    out = {0: 1}
    for m in mons:
        d = sum(m)
        nxt: dict = {}
        for e, c in out.items():
            nxt[e] = nxt.get(e, 0) + c
            nxt[e + d] = nxt.get(e + d, 0) - c
        out = {e: c for e, c in nxt.items() if c}
    return out


def _monomial_numerator(mons: tuple, memo: dict, pm: PackedMonomials) -> dict:
    """Numerator K(t) of HS(S/(mons)) = K / (1-t)^nvars.

    Pivot recursion: split on a median power of the most shared
    variable; the branches are the ideal plus the pivot and the ideal
    colon the pivot. Pairwise coprime sets terminate as complete
    intersections.
    """
    mons = _minimalize_monomials(mons, pm)
    if not mons:
        return {0: 1}
    if any(sum(m) == 0 for m in mons):
        return {}
    cached = memo.get(mons)
    if cached is not None:
        return cached
    if _pairwise_coprime(mons):
        out = _coprime_product_numer(mons)
        memo[mons] = out
        return out
    nvars = len(mons[0])
    counts = [0] * nvars
    for m in mons:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    piv_var = max(range(nvars), key=lambda i: counts[i])
    exps = sorted(m[piv_var] for m in mons if m[piv_var])
    piv_exp = exps[len(exps) // 2]
    if piv_exp == exps[-1] and piv_exp > 1:
        # ensure the "plus pivot" branch strictly tightens
        piv_exp -= 1
    pivot = tuple(piv_exp if i == piv_var else 0 for i in range(nvars))
    plus = mons + (pivot,)
    quo = tuple(
        tuple(max(e - piv_exp, 0) if i == piv_var else e for i, e in enumerate(m))
        for m in mons
    )
    n_plus = _monomial_numerator(plus, memo, pm)
    n_quo = _monomial_numerator(quo, memo, pm)
    out = dict(n_plus)
    for e, c in n_quo.items():
        out[e + piv_exp] = out.get(e + piv_exp, 0) + c
    out = {e: c for e, c in out.items() if c}
    memo[mons] = out
    return out


def hilbert_series(U: Submodule, budget: GbBudget | None = None) -> HilbertSeries:
    """Hilbert series of F/U, F = sum_j S(-twists[j]), U given by spanning set.

    Computed from the lead module of a Groebner basis componentwise;
    exact integer numerator over (1-t)^nvars.
    """
    gb = buchberger(U, budget)
    memo: dict = {}
    total: dict = {}
    pm = PackedMonomials(U.ring.nvars)
    by_comp = gb.lead_monomials_by_component()
    for j in range(U.rank):
        numer = _monomial_numerator(tuple(by_comp.get(j, ())), memo, pm)
        e = U.twists[j]
        for d, c in numer.items():
            k = d + e
            total[k] = total.get(k, 0) + c
    return HilbertSeries.from_dict(total, U.ring.nvars)


def colength_difference(U: Submodule, V: Submodule, budget: GbBudget | None = None) -> int:
    """Exact length of V/U for nested submodules U <= V of the same ambient.

    Raises GhkHypothesisError when U is not contained in V or when the
    quotient has positive dimension (infinite length). The length falls
    out of the Hilbert-series difference; no graded piece is ever
    enumerated.
    """
    _check_same_ambient(U, V)
    if not _contains_with_budget(V, U, budget):
        raise GhkHypothesisError("colength_difference needs U <= V; U is not contained in V")
    diff = hilbert_series(U, budget).sub(hilbert_series(V, budget))
    red = diff.reduced()
    if red.is_zero():
        return 0
    if red.denom_power > 0:
        raise GhkHypothesisError(
            f"quotient has dimension {red.denom_power} > 0; its length is infinite"
        )
    length = red.numer_at_one()
    if length < 0:
        raise GhkError("internal error: negative length from a nested pair")
    return length


# ---------------------------------------------------------------------------
# ambient checks


def _check_same_ambient(U: Submodule, V: Submodule) -> None:
    if U.ring != V.ring or U.rank != V.rank or U.twists != V.twists:
        raise RingMismatchError("submodules live in different ambient modules")
    if U.relations != V.relations:
        raise RingMismatchError("submodules live over different quotient rings")


def _contains_with_budget(big: Submodule, small: Submodule, budget: GbBudget | None) -> bool:
    gb = buchberger(big, budget)
    return all(gb.contains(v) for v in small.spanning())


# ---------------------------------------------------------------------------
# bracket powers


def bracket_power(I: Submodule, q: int) -> Submodule:
    """Ideal generated by q-th powers of the generators of I, over R.

    Ring relations are carried over untouched (they are NOT raised to
    the q-th power); only the user-level generators are. q must be a
    power of the characteristic, which makes g -> g^q additive, so the
    result does not depend on the chosen generating set of I.
    """
    if I.rank != 1:
        raise GhkError("bracket powers are defined for ideals (rank-1 submodules)")
    gens = [frobenius_power(v[0], q) for v in I.gens]
    return Submodule(
        I.ring, 1, gens, twists=I.twists, relations=I.relations, position=I.position
    )


# ---------------------------------------------------------------------------
# intersection and colon via block elimination


def _doubled(U_vecs, V_vecs, ring, rank, twists, position="pot"):
    zero = ring.zero
    gens = []
    for u in U_vecs:
        gens.append(ModVector(tuple(u.components) + tuple(u.components)))
    for v in V_vecs:
        gens.append(ModVector(tuple(v.components) + (zero,) * rank))
    return Submodule(ring, 2 * rank, gens, twists=twists + twists, position=position)


def intersect(U: Submodule, V: Submodule, budget: GbBudget | None = None) -> Submodule:
    """U cap V inside the shared ambient module, over the shared ring.

    Component-doubling elimination: generators (u, u) and (v, 0) span a
    module whose elements with vanishing first block have second block
    in the intersection. Homogeneity is preserved (both blocks keep the
    ambient twists), so the graded pipeline never leaves homogeneous
    territory.
    """
    _check_same_ambient(U, V)
    ring, rank = U.ring, U.rank
    W = _doubled(U.spanning(), V.spanning(), ring, rank, U.twists)
    gb = buchberger(W, budget)
    zero = ring.zero
    extracted = []
    for vec in gb.vectors:
        if all(f.is_zero() for f in vec.components[:rank]):
            extracted.append(ModVector(vec.components[rank:]))
    result = Submodule(
        ring, rank, extracted, twists=U.twists, relations=U.relations, position=U.position
    )
    if rank == 1 and U.position == "top" and result._gb is None:
        # the extracted block is itself a reduced basis when the target
        # ambient has a single component
        result._gb = _trusted_reduced_basis(ring, 1, U.twists, "top", extracted)
    return result


def _colon_by_element(U: Submodule, g: Poly, budget: GbBudget | None) -> Submodule:
    """(U : g) over R, by eliminating the graph of multiplication by g.

    Generators (g*e_j, e_j) and (u, 0): a combination with vanishing
    first block has second block v satisfying g*v in U (relations
    included via U's spanning set). Intersect-then-divide would be wrong
    over a quotient ring: elements of U cap gF need not be divisible by
    g once relation columns participate.
    """
    ring, rank = U.ring, U.rank
    if g.is_zero():
        raise GhkHypothesisError("colon by zero is not defined")
    dg = g.homogeneous_degree()
    zero = ring.zero
    gens = []
    for j in range(rank):
        first = [zero] * rank
        second = [zero] * rank
        first[j] = g
        second[j] = ring.one
        gens.append(ModVector(tuple(first) + tuple(second)))
    for u in U.spanning():
        gens.append(ModVector(tuple(u.components) + (zero,) * rank))
    tag_twists = tuple(e + dg for e in U.twists)
    W = Submodule(ring, 2 * rank, gens, twists=U.twists + tag_twists, position="pot")
    gb = buchberger(W, budget)
    extracted = []
    for vec in gb.vectors:
        if all(f.is_zero() for f in vec.components[:rank]):
            extracted.append(ModVector(vec.components[rank:]))
    result = Submodule(
        ring, rank, extracted, twists=U.twists, relations=U.relations, position=U.position
    )
    if rank == 1 and U.position == "top" and result._gb is None:
        result._gb = _trusted_reduced_basis(ring, 1, U.twists, "top", extracted)
    return result


def colon(U: Submodule, J, budget: GbBudget | None = None) -> Submodule:
    """(U : J) = {v : f*v in U for every f in J}, J an ideal or element.

    J may be a Poly, an iterable of Polys, or a rank-1 Submodule over
    the same ring; only its user-level generators matter (relation
    generators are zero in R and would contribute the full module).
    """
    gens = _ideal_generators(U.ring, J, U.relations)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise GhkHypothesisError("colon by the zero ideal is not defined")
    result = _colon_by_element(U, gens[0], budget)
    for g in gens[1:]:
        nxt = _colon_by_element(U, g, budget)
        # cheap containment shortcuts before a full elimination
        if _contains_with_budget(nxt, result, budget):
            continue
        if _contains_with_budget(result, nxt, budget):
            result = nxt
            continue
        result = intersect(result, nxt, budget)
    return result


def _ideal_generators(ring: PolyRing, J, relations) -> list:
    if isinstance(J, Submodule):
        if J.rank != 1:
            raise GhkError("colon divisor must be an ideal (rank-1 submodule)")
        if J.ring != ring:
            raise RingMismatchError("colon divisor lives over a different ring")
        if J.relations != relations:
            raise RingMismatchError("colon divisor lives over a different quotient ring")
        return [v[0] for v in J.gens]
    if isinstance(J, Poly):
        J = [J]
    out = []
    for f in J:
        if not isinstance(f, Poly):
            raise GhkError(f"colon divisor entries must be Poly, got {f!r}")
        if f.ring != ring:
            raise RingMismatchError("colon divisor lives over a different ring")
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# saturation


def saturate(
    U: Submodule,
    J=None,
    method: str = "colon",
    budget: GbBudget | None = None,
) -> Submodule:
    """Saturation of U with respect to J (default: the irrelevant ideal).

    method "colon" (default): iterate W <- (W : J) until stable. This is
    the reference semantics.

    method "divide": per-variable single-basis route, valid when J is
    the irrelevant ideal and all ambient twists are equal: a basis in a
    degree-order whose tie-break favors dividing by the chosen last
    variable stays a basis after each element is divided by the largest
    power of that variable dividing it; the full saturation is the
    intersection of the per-variable saturations. Much faster on
    Frobenius-power workloads; tests pin it to the "colon" answer.

    method "auto": "divide" when applicable, else "colon".
    """
    ring = U.ring
    irrelevant = J is None
    if J is not None:
        jgens = [g for g in _ideal_generators(ring, J, U.relations) if not g.is_zero()]
        if not jgens:
            raise GhkHypothesisError("saturation by the zero ideal is not defined")
        irrelevant = {g.monic() for g in jgens} == set(ring.gens())
    else:
        jgens = [ring.variable(i) for i in range(ring.nvars)]

    if method not in ("colon", "divide", "auto"):
        raise GhkError(f"unknown saturation method {method!r}")
    divisible = irrelevant and len(set(U.twists)) == 1
    if method == "divide" and not divisible:
        raise GhkError(
            "saturation method 'divide' needs the irrelevant ideal and equal twists"
        )
    if method == "auto":
        method = "divide" if divisible else "colon"

    if method == "colon":
        W = U
        while True:
            W2 = colon(W, jgens, budget)
            if _contains_with_budget(W, W2, budget):
                return W
            W = W2

    return _saturate_by_division(U, budget)


def _saturate_by_division(U: Submodule, budget: GbBudget | None) -> Submodule:
    ring = U.ring
    n = ring.nvars
    gbU = buchberger(U, budget)
    # try variables carrying the least lead-monomial weight first: a
    # variable absent from the staircase is the likeliest to certify
    # that U is already saturated, ending the whole computation after a
    # single basis
    load = [0] * n
    for _comp, mon in gbU.lead_terms():
        for j in range(n):
            load[j] += mon[j]
    order = sorted(range(n), key=lambda j: (load[j], j))
    per_variable: list = []
    for i in order:
        sat_i, changed = _saturate_one_variable(U, i, gbU, budget)
        # early exit: if a single-variable saturation adds nothing, U is
        # already saturated (U <= sat(U, R+) <= sat(U, x_i) = U)
        if not changed or all(gbU.contains(v) for v in sat_i.gens):
            return U
        per_variable.append(sat_i)
    result = per_variable[0]
    for sat_i in per_variable[1:]:
        if _contains_with_budget(sat_i, result, budget):
            continue
        if _contains_with_budget(result, sat_i, budget):
            result = sat_i
            continue
        result = intersect(result, sat_i, budget)
    return result


def _saturate_one_variable(U, i, gbU, budget) -> tuple:
    """sat(U, x_i) by the divide trick in a degree order ending at x_i.

    Returns (submodule, changed); changed False means no generator was
    divisible by x_i, so the result is U itself verbatim.
    """
    ring, rank = U.ring, U.rank
    seq = tuple(j for j in range(ring.nvars) if j != i) + (i,)
    ambient_varseq = ring.order.varseq or tuple(range(ring.nvars))
    if ring.order.kind == "grevlex" and seq == ambient_varseq:
        ring_i, gb = ring, gbU
    else:
        ring_i = ring.with_order(MonomialOrder("grevlex", varseq=seq))
        conv = [
            ModVector(tuple(ring_i.convert(f) for f in v.components))
            for v in U.spanning()
        ]
        gb = buchberger(
            Submodule(ring_i, rank, conv, twists=U.twists, position=U.position), budget
        )
    changed = False
    back = []
    for vec in gb.vectors:
        mult = min(
            (f.variable_multiplicity(i) for f in vec.components if not f.is_zero()),
            default=0,
        )
        if mult == 0 and ring_i is ring:
            back.append(vec)
            continue
        changed = changed or mult > 0
        comps = []
        for f in vec.components:
            if f.is_zero():
                comps.append(ring.zero)
            else:
                comps.append(ring.convert(f.divide_by_variable_power(i, mult)))
        back.append(ModVector(comps))
    if not changed:
        return U, False
    sub = Submodule(
        ring, rank, back, twists=U.twists, relations=U.relations, position=U.position
    )
    return sub, True


# ---------------------------------------------------------------------------
# reflexive hull


def reflexive_hull(I: Submodule, witness: Poly | None = None, budget: GbBudget | None = None) -> Submodule:
    """Double dual I** = ((a) : ((a) : I)) for a nonzero a in I.

    The result is independent of the witness a; over a normal
    two-dimensional ring it is the divisorial (hence saturated) ideal
    agreeing with I away from the irrelevant maximal ideal.
    """
    if I.rank != 1:
        raise GhkError("reflexive hulls are defined for ideals (rank-1 submodules)")
    nonzero = [v[0] for v in I.gens if not v[0].is_zero()]
    if not nonzero:
        raise GhkHypothesisError("reflexive hull of the zero ideal is not defined")
    if witness is None:
        witness = nonzero[0]
    else:
        if witness.is_zero():
            raise GhkHypothesisError("witness element must be nonzero")
        if not buchberger(I, budget).contains(witness):
            raise GhkHypothesisError("witness element does not lie in the ideal")
    principal = Submodule.ideal(I.ring, [witness], relations=I.relations)
    inner = colon(principal, I, budget)
    return colon(principal, inner, budget)


# ---------------------------------------------------------------------------
# ring-level reports


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    jacobian_codim_met: bool
    singular_locus_dimension: int  # Krull dim of S / (minors + relations); 0 means empty in Proj
    details: str

    def to_json_dict(self) -> dict:
        return {
            "smooth": self.smooth,
            "singular_locus_dimension": self.singular_locus_dimension,
            "details": self.details,
        }


@dataclass(frozen=True)
class RingReport:
    p: int
    variables: tuple
    relations: tuple
    dimension: int
    degree: int | None
    smooth: bool
    hypersurface: bool
    ok: bool
    warnings: tuple

    def to_json_dict(self) -> dict:
        return {
            "characteristic": self.p,
            "variables": list(self.variables),
            "relations": list(self.relations),
            "dimension": self.dimension,
            "degree": self.degree,
            "smooth": self.smooth,
            "hypersurface": self.hypersurface,
            "ok": self.ok,
            "warnings": list(self.warnings),
        }


class RingSpec:
    """A graded quotient ring R = F_p[variables]/(relations).

    The intended universe is a two-dimensional standard graded ring
    whose Proj is a smooth projective curve; construction does not
    enforce that (so degenerate members of a family can be examined),
    but validate()/require_dim2() report and enforce it.
    """

    def __init__(
        self,
        p: int,
        variables: Sequence[str],
        relations: Iterable = (),
        order: MonomialOrder | None = None,
    ):
        self.ring = PolyRing(p, variables, order)
        rels = []
        for r in relations:
            f = self.ring.parse(r) if isinstance(r, str) else r
            if not isinstance(f, Poly):
                raise GhkError(f"relation must be a string or Poly, got {r!r}")
            if f.ring != self.ring:
                raise RingMismatchError("relation parsed into a different ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise HomogeneityError(f"relation {f} is not homogeneous")
            rels.append(f)
        self.relations = tuple(rels)
        self._hs = None
        self._smooth = None

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def variables(self) -> tuple:
        return self.ring.variables

    def parse(self, text: str) -> Poly:
        return self.ring.parse(text)

    def ideal(self, gens: Iterable) -> Submodule:
        polys = [self.parse(g) if isinstance(g, str) else g for g in gens]
        return Submodule.ideal(self.ring, polys, relations=self.relations)

    def submodule(self, rank: int, gens: Iterable, twists: Sequence[int] | None = None) -> Submodule:
        return Submodule(self.ring, rank, gens, twists=twists, relations=self.relations)

    def unit_ideal(self) -> Submodule:
        return Submodule.ideal(self.ring, [self.ring.one], relations=self.relations)

    def hilbert_series(self) -> HilbertSeries:
        """Hilbert series of R itself (as S / relation ideal)."""
        if self._hs is None:
            defining = Submodule.ideal(self.ring, self.relations)
            self._hs = hilbert_series(defining)
        return self._hs

    def krull_dimension(self) -> int:
        return self.hilbert_series().pole_order()

    def proj_degree(self) -> int:
        """Degree of Proj R in its embedding; requires dimension 2."""
        hs = self.hilbert_series().reduced()
        if hs.denom_power != 2:
            raise GhkHypothesisError(
                f"ring has Krull dimension {hs.denom_power}, need 2 for a projective curve"
            )
        return hs.numer_at_one()

    def require_dim2(self) -> None:
        dim = self.krull_dimension()
        if dim != 2:
            raise GhkHypothesisError(f"ring has Krull dimension {dim}, need 2")

    def smoothness(self) -> SmoothnessReport:
        if self._smooth is None:
            self._smooth = smoothness_check(self)
        return self._smooth

    def validate(self) -> RingReport:
        dim = self.krull_dimension()
        degree = None
        warnings = []
        if dim == 2:
            degree = self.proj_degree()
        sm = self.smoothness()
        hyper = len(self.relations) <= 1
        if not hyper:
            warnings.append(
                "ring is not a hypersurface; normality is assumed, not verified"
            )
        if dim != 2:
            warnings.append(f"Krull dimension is {dim}, not 2")
        if not sm.smooth:
            warnings.append("projective curve is singular; " + sm.details)
        return RingReport(
            p=self.p,
            variables=self.variables,
            relations=tuple(str(r) for r in self.relations),
            dimension=dim,
            degree=degree,
            smooth=sm.smooth,
            hypersurface=hyper,
            ok=(dim == 2 and sm.smooth),
            warnings=tuple(warnings),
        )

    def __repr__(self) -> str:
        rels = ", ".join(str(r) for r in self.relations)
        return f"<RingSpec F_{self.p}[{', '.join(self.variables)}]/({rels})>"


def degree_of_proj(rspec: RingSpec) -> int:
    """Degree of the projective curve Proj R; requires Krull dimension 2."""
    return rspec.proj_degree()


def _poly_matrix_det(rows: list) -> Poly:
    """Determinant by cofactor expansion; rows of Polys, small sizes only."""
    k = len(rows)
    ring = rows[0][0].ring
    if k == 0:
        return ring.one
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = ring.zero
    for j in range(k):
        minor = [[rows[r][c] for c in range(k) if c != j] for r in range(1, k)]
        term = rows[0][j] * _poly_matrix_det(minor)
        total = total - term if j % 2 else total + term
    return total


def smoothness_check(rspec: RingSpec) -> SmoothnessReport:
    """Jacobian criterion for Proj R.

    The singular locus inside Proj is cut out by the (n-2)-minors of the
    Jacobian of the relations together with the relations themselves; it
    is empty exactly when that ideal is irrelevant-primary, i.e. when
    S/(minors + relations) has Krull dimension 0. Works entirely over
    the prime field; the rank condition is insensitive to field
    extension, so this decides geometric smoothness.
    """
    ring = rspec.ring
    n = ring.nvars
    rels = rspec.relations
    if not rels:
        # a free polynomial ring: Proj is a projective space, smooth
        return SmoothnessReport(True, True, 0, "no relations; Proj is a projective space")
    k = n - 2
    jac = [[f.derivative(i) for i in range(n)] for f in rels]
    minors: list = []
    if k <= 0:
        minors = [ring.one]
    elif len(rels) >= k:
        for rowsel in itertools.combinations(range(len(rels)), k):
            for colsel in itertools.combinations(range(n), k):
                rows = [[jac[r][c] for c in colsel] for r in rowsel]
                det = _poly_matrix_det(rows)
                if not det.is_zero():
                    minors.append(det)
    gens = minors + list(rels)
    sing = Submodule.ideal(ring, gens)
    dim = hilbert_series(sing).pole_order()
    smooth = dim <= 0
    details = (
        "Jacobian minors cut out an empty locus in Proj"
        if smooth
        else f"Jacobian ideal leaves a singular locus of dimension {dim} in the cone"
    )
    return SmoothnessReport(smooth, bool(minors), dim, details)


def sheaf_degree(rspec: RingSpec, I: Submodule, budget: GbBudget | None = None) -> int:
    """Degree of the rank-one subsheaf of O_Y cut out by the ideal I.

    Convention: the value is NORMALIZED AS NONPOSITIVE. The sheaf
    attached to I embeds in the structure sheaf of the curve Y = Proj R,
    so its degree is 0 minus the total length of the finite quotient:
    a principal ideal generated in degree a gives -a * deg(Y); the ideal
    of a single reduced point gives -1. The saturation of I is computed
    first, so different ideals with the same sheaf agree.
    """
    rspec.require_dim2()
    if I.rank != 1:
        raise GhkError("sheaf degrees are defined for ideals (rank-1 submodules)")
    if I.relations != rspec.relations:
        raise RingMismatchError("ideal does not live over the given ring")
    sat = saturate(I, method="auto", budget=budget)
    gb = buchberger(sat, budget)
    if gb.is_full_module():
        return 0
    hs = hilbert_series(sat, budget).reduced()
    if hs.denom_power == 2 or hs.is_zero():
        raise GhkHypothesisError("zero ideal has no sheaf degree")
    if hs.denom_power != 1:
        raise GhkError("internal error: saturated proper ideal with finite-length quotient")
    return -hs.numer_at_one()
