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
* Every submodule is built and queried one way: Submodule's "top"
  basis, through Submodule.groebner, contains and contains_submodule.
  An intersection or a colon is one elimination, through groebner's
  private _preimage: U cap V is {v in V : 1*v in U} and U : J is
  {v in F : g*v in U for each generator g of J}, each read from the
  last block of one "top" basis with the other blocks above it and
  installed as the result's basis. Caller input is checked by
  groebner's rules, one per kind: as_vector, as_relations, as_ideal and
  check_same_ring (Submodule._check_ambient adds rank and twists).
* Saturation by the irrelevant ideal has one certified route, for any
  twists: certify_saturation looks for a variable l whose basis
  U.groebner(last=l), in grevlex with l compared last, proves
  U : l^inf = sat(U) by a pole-order-0 Hilbert series difference, and
  when none does alone, meets the U : l^inf until the difference has
  pole order 0, reading each meet's series by the modular law from one
  basis of a sum; only saturate, which returns the module, builds the
  last meet. Rings carry no term order; a basis is the only place one
  is chosen. saturate_by_colon is the reference route that tests pin
  saturate against, and the only route for any other ideal.
* The one exception to implicit quotient rings: when the ring has a
  Noether normalization A (RingSpec.noether_normalization), pulled-back
  images are built over A with no relation columns, and
  frobmod.ghk_value saturates them there.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from .arith import EXP_CAP, Poly, PolyRing, Record, frobenius_exponent, frobenius_power
from .errors import GhkError, GhkHypothesisError
from .groebner import (
    GbBudget,
    ModVector,
    Submodule,
    _preimage,
    as_ideal,
    as_relations,
    as_vector,
    check_same_ring,
)

__all__ = [
    "RingSpec",
    "NoetherNormalization",
    "RingReport",
    "SmoothnessReport",
    "HilbertSeries",
    "bracket_power",
    "intersect",
    "colon",
    "saturate",
    "saturate_by_colon",
    "certify_saturation",
    "SaturationCertificate",
    "reflexive_hull",
    "hilbert_series",
    "colength_difference",
    "smoothness_check",
    "sheaf_degree",
]


# ---------------------------------------------------------------------------
# Hilbert series


class HilbertSeries(Record):
    """Series numer(t) / (1-t)^denom_power with integer Laurent numerator.

    numer is a tuple of (exponent, coeff) pairs, sorted, no zeros.
    Exponents may be negative (twisted ambient modules). The numerator
    is kept as it comes, with no factor of (1-t) cancelled: callers read
    the pole order and the multiplicity through leading().
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

    def leading(self) -> tuple:
        """(pole order, multiplicity): the series is Q(t) / (1-t)^pole with
        Q(1) the multiplicity. Q(1) is 0 only when the series is a Laurent
        polynomial vanishing at 1, the zero series included: then (0, 0).

        With s = 1 - t, numer = sum_i (-1)^i M_i s^i, M_i the sum of
        c * binom(e, i) over its terms c*t^e (Bruns-Herzog, Ch. 4.1), the
        binomial a falling factorial over i!, so negative e work. The
        first m <= n = denom_power with M_m != 0, or n, gives the pole
        order n - m and Q(1) = (-1)^m M_m. Each moment is one pass over
        the terms, however wide the numerator's degree span.
        """
        n = self.denom_power
        cs = [c for _, c in self.numer]  # c * binom(e, m) for each term
        for m in range(n + 1):
            M = sum(cs)
            if M or m == n:
                return n - m, (-1) ** m * M
            cs = [c * (e - m) // (m + 1) for (e, _), c in zip(self.numer, cs)]

    def pole_order(self) -> int:
        """Order of the pole at t=1: the Krull dimension of the module."""
        return self.leading()[0]

    def coefficient(self, d: int) -> int:
        """Exact coefficient of t^d: the F_p-dimension of the degree-d piece."""
        n = self.denom_power
        total = 0
        for e, c in self.numer:
            k = d - e
            if k >= 0:
                total += c * math.comb(k + n - 1, n - 1) if n > 0 else (c if k == 0 else 0)
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


def _monomial_numerator(gens: list) -> dict:
    """Numerator K(t) of HS(S/(gens)) = K / (1-t)^n, as {degree: coeff}.

    gens are exponent tuples of length n, any generating set of the
    monomial ideal (repeats and multiples are harmless). Slicing
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Ch. 3): in
    two variables the corners of the staircase, sorted by the first
    exponent with the second strictly falling, give
    K = 1 - sum t^(a_i+b_i) + sum t^(a_(i+1)+b_i). In more, S/I is the
    sum over k of v^k * S'/I_k for the variable v with the fewest
    distinct exponents l_1 < ... < l_s, where I_k is generated by the
    generators with v-exponent <= k, v deleted; I_k steps only at the
    l_i, so K = 1 + sum_i t^(l_i) * (K(M_i) - K(M_(i-1))) with M_i the
    ideal I_(l_i) and K(M_0) = 1. With no variable left, a generator
    is the unit, K = 0, so one variable gives 1 - t^a, a the least
    exponent. The recursion is at most n - 2 deep.
    """
    if not gens:
        return {0: 1}
    n = len(gens[0])
    if n == 0:
        return {}
    out = {0: 1}
    if n == 2:
        top = None  # the second exponent of the last corner
        for a, b in sorted(gens):
            if top is None or b < top:
                if top is not None:
                    out[a + top] = out.get(a + top, 0) + 1
                out[a + b] = out.get(a + b, 0) - 1
                top = b
        return {e: c for e, c in out.items() if c}
    v = min(range(n), key=lambda i: len({g[i] for g in gens}))
    levels: dict = {}
    for g in gens:
        levels.setdefault(g[v], []).append(g[:v] + g[v + 1 :])
    below: list = []
    prev = {0: 1}
    for l in sorted(levels):
        below += levels[l]
        cur = _monomial_numerator(below)
        for e, c in cur.items():
            out[e + l] = out.get(e + l, 0) + c
        for e, c in prev.items():
            out[e + l] = out.get(e + l, 0) - c
        prev = cur
    return {e: c for e, c in out.items() if c}


def _lead_series(leads: Iterable, twists: tuple, nvars: int) -> HilbertSeries:
    """Hilbert series of F/(leads), F = sum_j S(-twists[j]).

    leads are (component, exponent tuple) pairs that generate a monomial
    module (GroebnerBasis.lead_terms, or those leads with an exponent
    set to 0); neither minimality nor order matters.
    """
    per: list = [[] for _ in twists]
    for j, m in leads:
        per[j].append(m)
    total: dict = {}
    for gens, e in zip(per, twists):
        for d, c in _monomial_numerator(gens).items():
            k = d + e
            total[k] = total.get(k, 0) + c
    return HilbertSeries.from_dict(total, nvars)


def hilbert_series(U: Submodule, budget: GbBudget | None = None) -> HilbertSeries:
    """Hilbert series of F/U, F = sum_j S(-twists[j]), U given by spanning set.

    Read off the leads of U's Groebner basis, one component at a time,
    by the slicing of _monomial_numerator: an exact integer numerator
    over (1-t)^nvars.
    """
    return _lead_series(U.groebner(budget).lead_terms(), U.twists, U.ring.nvars)


def colength_difference(U: Submodule, V: Submodule, budget: GbBudget | None = None) -> int:
    """Exact length of V/U for nested submodules U <= V of the same ambient.

    Raises GhkHypothesisError when U is not contained in V or when the
    quotient has positive dimension (infinite length). HS(V/U) is
    HS(F/U) - HS(F/V), uncancelled; its leading() gives the dimension
    and, at dimension 0, the length. No graded piece is ever enumerated.
    """
    if not V.contains_submodule(U, budget):
        raise GhkHypothesisError("colength_difference needs U <= V; U is not contained in V")
    dim, length = hilbert_series(U, budget).sub(hilbert_series(V, budget)).leading()
    if dim > 0:
        raise GhkHypothesisError(f"quotient has dimension {dim} > 0; its length is infinite")
    if length < 0:
        raise GhkError("internal error: negative length from a nested pair")
    return length


# ---------------------------------------------------------------------------
# bracket powers


def bracket_power(I: Submodule, q: int) -> Submodule:
    """Ideal generated by q-th powers of the generators of I, over R.

    Ring relations are carried over untouched (they are NOT raised to
    the q-th power); only the user-level generators are. q must be a
    power of the characteristic, which makes g -> g^q additive, so the
    result does not depend on the chosen generating set of I.

    Each generator arrives as the normal form of g^q modulo the
    relation ideal (with no relations, g^q itself), built one p-th
    power at a time, w <- NF(w^[p]): u = v mod the relations gives
    u^p = v^p in characteristic p. The ideal is the literal q-th powers', but the
    engine need not unroll x^q by the relations; a generator whose q-th
    power lies in the relation ideal drops out. The relations' Groebner
    basis (the engine's default order, unbudgeted) is built once per
    call, and every p-th power step reduces by it.
    """
    as_ideal(I, "a bracket power")
    gens = [v[0] for v in I.gens]
    normal_form = Submodule.ideal(I.ring, I.relations).groebner().normal_form
    for _ in range(frobenius_exponent(q, I.ring.p)):
        gens = [normal_form(frobenius_power(g, I.ring.p))[0] for g in gens]
    return Submodule(I.ring, 1, gens, twists=I.twists, relations=I.relations)


# ---------------------------------------------------------------------------
# intersection and colon via block elimination


def intersect(U: Submodule, V: Submodule, budget: GbBudget | None = None) -> Submodule:
    """U cap V inside the shared ambient module, over the shared ring.

    The elements v of V with 1*v in U: groebner's _preimage eliminates
    the first block of generators (v, v) and (u, 0). Homogeneity is
    preserved (both blocks keep the ambient twists), so the graded
    pipeline never leaves homogeneous territory.
    """
    U._check_ambient(V)
    return _preimage(U, V.spanning(), [U.ring.one], budget)


def colon(U: Submodule, J, budget: GbBudget | None = None) -> Submodule:
    """(U : J) = {v : f*v in U for every f in J}, J an ideal or element.

    J may be a Poly, an iterable of Polys, or a rank-1 Submodule over
    the same ring; only its user-level generators matter (relation
    generators are zero in R and would contribute the full module).
    One elimination (groebner's _preimage) of the graphs of
    multiplication by J's nonzero generators g_1..g_k: generators
    (g_1*e_j, ..., g_k*e_j, e_j) and U's spanning set in each of the
    first k blocks. Intersect-then-divide would be wrong over a
    quotient ring: elements of U cap gF need not be divisible by g once
    relation columns participate.
    """
    gens = _ideal_generators(U, J)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise GhkHypothesisError("colon by the zero ideal is not defined")
    ring, rank = U.ring, U.rank
    units = [
        ModVector(tuple(ring.one if i == j else ring.zero for i in range(rank)))
        for j in range(rank)
    ]
    return _preimage(U, units, gens, budget)


def _ideal_generators(U: Submodule, J) -> list:
    """The generators of the colon divisor J over U's ring."""
    if isinstance(J, Submodule):
        check_same_ring(as_ideal(J, "a colon divisor"), U, "the colon divisor and the module")
        return [v[0] for v in J.gens]
    if isinstance(J, Poly):
        J = [J]
    return [as_vector(f, U.ring, 1, "a colon divisor entry")[0] for f in J]


# ---------------------------------------------------------------------------
# saturation


class SaturationCertificate(Record):
    """Proof that sat(U) is the intersection of the U : l^inf over the
    variables l in `variables`, in the order tried; torsion is
    HS(sat(U)/U), of pole order 0, as the difference of the two series
    over (1-t)^nvars with no factor cancelled, and length, the length of
    sat(U)/U, is its leading() multiplicity, read once where the pole
    order was.
    """

    variables: tuple
    torsion: HilbertSeries
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise GhkError("internal error: negative saturation length")


def certify_saturation(U: Submodule, budget: GbBudget | None = None) -> SaturationCertificate:
    """Certify sat(U) from the bases U.groebner(budget, last=l).

    Each M containing U that is an intersection of some U : l^inf
    contains sat(U), and when HS(F/U) - HS(F/M) has pole order 0, M/U
    has finite length, so it lies in H^0_m(F/U) = sat(U)/U and
    M = sat(U); the torsion is that difference.

    Tries each variable alone first: the ring's last variable (U's
    default basis), then the others in index order, except that over
    two variables x goes first when _torsion_over_y0 sees torsion of
    F/U at (1:0), where y's test must fail. In grevlex with l
    last, in(U : l^inf) = in(U) : l^inf (Bayer-Stillman), so one basis
    gives HS(F/(U : l^inf)) from its leads with the l-exponent set to
    0, a generating set that _lead_series takes as it is; HS(F/U) is
    read from the first basis's leads.

    When none does alone, the U : l^inf are met in the order tried, up
    to the first M that certifies. The last variable always gets there:
    a v with l^(k_l)*v in U for every l is killed by m^(sum k_l), so
    the meet of all of them is sat(U). No meet is built for its series:
    for graded submodules W and D of F, the modular law
    dim(W cap D)_n = dim W_n + dim D_n - dim(W + D)_n gives
    HS(F/(W cap D)) = HS(F/W) + HS(F/D) - HS(F/(W + D)), with W the
    meet so far and D = U : l^inf, so a further variable costs one
    basis of W + D in F. W itself is intersected (one elimination)
    only when yet another variable has to be tried: the lattice of
    submodules is not distributive, so the law does not extend to
    three terms. The loop is _certified_meet's, which saturate shares.
    """
    return _certified_meet(U, budget)[0]


def _certified_meet(U: Submodule, budget: GbBudget | None) -> tuple:
    """The certificate, and the meet W of the U : l^inf over all its
    variables but the last (None for one): sat(U) is W cap U : l^inf."""
    nvars = U.ring.nvars
    order = (0, 1) if nvars == 2 and _torsion_over_y0(U) else (nvars - 1, *range(nvars - 1))
    hs = None
    cut = {}  # l -> HS(F/(U : l^inf))
    for i in order:
        leads = U.groebner(budget, last=i).lead_terms()
        if hs is None:
            hs = _lead_series(leads, U.twists, nvars)
        cut[i] = _lead_series(((j, m[:i] + (0,) + m[i + 1 :]) for j, m in leads), U.twists, nvars)
        torsion = hs.sub(cut[i])
        dim, length = torsion.leading()
        if dim == 0:
            return SaturationCertificate((i,), torsion, length), None
    # W is the meet so far, met its series HS(F/W)
    W, met = _divide_out(U, order[0], budget), cut[order[0]]
    for k, i in enumerate(order[1:], 2):
        D = _divide_out(U, i, budget)
        both = Submodule(U.ring, U.rank, W.gens + D.gens, twists=U.twists, relations=U.relations)
        met = met.sub(hilbert_series(both, budget).sub(cut[i]))
        torsion = hs.sub(met)
        dim, length = torsion.leading()
        if dim == 0:
            return SaturationCertificate(order[:k], torsion, length), W
        W = intersect(W, D, budget)
    raise GhkError("internal error: the variable saturations meet in more than sat(U)")


def _torsion_over_y0(U: Submodule) -> bool:
    """Whether U, over a ring of two variables x, y, has a smaller rank
    at the point (1, 0) than at (0, 1): then x is tried first.

    The fibre of the sheaf of F/U on P^1 at a point has dimension
    U.rank minus U's rank there, at least the generic one. So
    rank(1, 0) < rank(0, 1) <= the generic rank says F/U is not locally
    free at (1:0); on the smooth curve P^1 it has torsion there, so (y)
    is associated to F/U, U : y^inf is more than sat(U), and y's
    pole-order test would fail. Equal ranks (a vector bundle, or
    torsion at both points) keep the ring's order, and so does a full
    rank(1, 0), for which rank(0, 1) is never computed. The pole-order
    test still decides every certificate: this picks only the order."""
    at_x = _vertex_rank(U, False)
    return at_x < U.rank and at_x < _vertex_rank(U, True)


def _vertex_rank(U: Submodule, last: bool) -> int:
    """F_p-rank of U's spanning vectors at (1, 0, ..., 0), or with `last`
    at (0, ..., 0, 1): row echelon mod p of their entries' values there
    (Poly.vertex_value), a row at a time, stopping at U.rank."""
    p, rank, pivots = U.ring.p, U.rank, []  # (column, a row with 1 there, 0 at earlier pivots)
    for v in U.spanning():
        row = [f.vertex_value(last) for f in v.components]
        for col, piv in pivots:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, piv)]
        for col, c in enumerate(row):
            if c:
                inv = pow(c, -1, p)
                pivots.append((col, [a * inv % p for a in row]))
                if len(pivots) == rank:
                    return rank
                break
    return len(pivots)


def saturate(U: Submodule, budget: GbBudget | None = None) -> Submodule:
    """Saturation of U by the irrelevant ideal, for any ambient twists:
    the certificate's meet W cut with U : l^inf for its last variable l,
    the basis with l last divided out (_divide_out)."""
    cert, W = _certified_meet(U, budget)
    D = _divide_out(U, cert.variables[-1], budget)
    return D if W is None else intersect(W, D, budget)


def saturate_by_colon(U: Submodule, J=None, budget: GbBudget | None = None) -> Submodule:
    """Saturation of U with respect to J (default: the irrelevant ideal)
    by iterating W <- (W : J) until stable: the reference route that
    tests pin saturate against, and the route for any other ideal. J is
    given as for colon."""
    if J is None:
        J = U.ring.gens()
    W = U
    while True:
        W2 = colon(W, J, budget)
        if W.contains_submodule(W2, budget):
            return W
        W = W2


def _divide_out(U: Submodule, i: int, budget: GbBudget | None) -> Submodule:
    """U : x_i^inf from U.groebner(budget, last=i): each basis element
    over x_i^a, a the x_i-exponent of its lead, which divides the whole
    vector (the module-degree "top" order of groebner.py)."""
    gb = U.groebner(budget, last=i)
    back = [
        ModVector(tuple(f.divide_by_variable_power(i, lead[i]) for f in vec.components))
        for vec, (_, lead) in zip(gb.vectors, gb.lead_terms())
    ]
    return Submodule(U.ring, U.rank, back, twists=U.twists, relations=U.relations)


# ---------------------------------------------------------------------------
# reflexive hull


def reflexive_hull(I: Submodule, witness: Poly | None = None, budget: GbBudget | None = None) -> Submodule:
    """Double dual I** = ((a) : ((a) : I)) for a nonzero a in I.

    The result is independent of the witness a; over a normal
    two-dimensional ring it is the divisorial (hence saturated) ideal
    agreeing with I away from the irrelevant maximal ideal.
    """
    as_ideal(I, "a reflexive hull")
    nonzero = [v[0] for v in I.gens if not v[0].is_zero()]
    if not nonzero:
        raise GhkHypothesisError("reflexive hull of the zero ideal is not defined")
    if witness is None:
        witness = nonzero[0]
    else:
        if witness.is_zero():
            raise GhkHypothesisError("witness element must be nonzero")
        if not I.groebner(budget).contains(witness):
            raise GhkHypothesisError("witness element does not lie in the ideal")
    principal = Submodule.ideal(I.ring, [witness], relations=I.relations)
    inner = colon(principal, I, budget)
    return colon(principal, inner, budget)


# ---------------------------------------------------------------------------
# ring-level reports


class SmoothnessReport(Record):
    smooth: bool
    singular_locus_dimension: int  # Krull dim of S / (minors + relations); 0 means empty in Proj
    details: str


class RingReport(Record):
    characteristic: int
    variables: tuple
    relations: tuple
    dimension: int
    degree: int | None
    smooth: bool
    hypersurface: bool
    ok: bool
    warnings: tuple


class RingSpec:
    """A graded quotient ring R = F_p[variables]/(relations).

    The intended universe is a two-dimensional standard graded ring
    whose Proj is a smooth projective curve; construction does not
    enforce that (so degenerate members of a family can be examined),
    but validate()/require_dim2() report and enforce it. Relations,
    strings parsed first, pass groebner.as_relations.
    """

    def __init__(
        self,
        p: int,
        variables: Sequence[str],
        relations: Iterable = (),
    ):
        self.ring = PolyRing(p, variables)
        if isinstance(relations, str):
            raise GhkError(f"relations must be a list, got the string {relations!r}")
        self.relations = as_relations(
            [self.ring.parse(r) if isinstance(r, str) else r for r in relations], self.ring
        )
        self._hs = None
        self._smooth = None
        self._noether = False  # not searched yet; then a NoetherNormalization or None

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def variables(self) -> tuple:
        return self.ring.variables

    def parse(self, text: str) -> Poly:
        return self.ring.parse(text)

    def ideal(self, gens: Iterable) -> Submodule:
        if isinstance(gens, str):
            raise GhkError(f"gens must be a list, got the string {gens!r}")
        polys = [self.parse(g) if isinstance(g, str) else g for g in gens]
        return Submodule.ideal(self.ring, polys, relations=self.relations)

    def submodule(self, rank: int, gens: Iterable, twists: Sequence[int] | None = None) -> Submodule:
        return Submodule(self.ring, rank, gens, twists=twists, relations=self.relations)

    def hilbert_series(self) -> HilbertSeries:
        """Hilbert series of R itself (as S / relation ideal)."""
        if self._hs is None:
            self._hs = hilbert_series(Submodule.ideal(self.ring, self.relations))
        return self._hs

    def noether_normalization(self) -> "NoetherNormalization | None":
        """R as a free module over a Noether normalization, or None:
        NoetherNormalization.find(self), searched once per RingSpec."""
        if self._noether is False:
            self._noether = NoetherNormalization.find(self)
        return self._noether

    def krull_dimension(self) -> int:
        return self.hilbert_series().pole_order()

    def proj_degree(self) -> int:
        """Degree of Proj R in its embedding; requires dimension 2."""
        dim, degree = self.hilbert_series().leading()
        if dim != 2:
            raise GhkHypothesisError(
                f"ring has Krull dimension {dim}, need 2 for a projective curve"
            )
        return degree

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
            characteristic=self.p,
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


class NoetherNormalization:
    """R = S/I as a free module over A = F_p[x_i, x_j] (`base`).

    A centre is a pair x_i, x_j and a shift x_i -> x_i + sum a_k*x_k,
    x_j -> x_j + sum b_k*x_k over the other, fibre, variables: an
    automorphism of S, so lengths do not change. In grevlex on S', the
    fibre variables and then x_i, x_j, when no minimal lead of the image
    of I involves x_i or x_j and each fibre variable has a pure power
    among them, R is free over A on the finite set B of standard fibre
    monomials, a combination of which is its own normal form
    (Bayer-Stillman); `degree` = |B|. Elements of R are coordinate
    tuples on B, kept in the class. B spans R/(x_i, x_j)R, so (x_i, x_j)R
    has the radical of the irrelevant ideal: sat(U)/U is the same over A.
    """

    def __init__(self, rspec: RingSpec, pair: tuple, shift: tuple):
        ring, (i, j) = rspec.ring, pair
        fibre = [v for v in range(ring.nvars) if v not in pair]
        order = (*fibre, i, j)
        self.p, k = ring.p, len(fibre)
        self.shift = ((ring.variables[i], ring.variables[j]), shift)
        self.base = PolyRing(ring.p, self.shift[0])
        self._ring = PolyRing(ring.p, [ring.variables[v] for v in order])
        # the image of each variable of S, as (exponent tuple over S', coefficient) terms
        self._vars = [[(tuple(int(w == v) for w in order), 1)] for v in range(ring.nvars)]
        for v, a in ((i, shift[:k]), (j, shift[k:])):
            self._vars[v] += [(self._vars[w][0][0], c) for w, c in zip(fibre, a) if c]
        rels = [self._ring.from_pairs(self._substitute(f).items()) for f in rspec.relations]
        gb = Submodule.ideal(self._ring, rels).groebner()
        leads = [m for _, m in gb.lead_terms()]
        # each fibre variable's pure power among the leads, 0 for none
        box = [min((m[f] for m in leads if m[f] == sum(m) > 0), default=0) for f in range(k)]
        self.finite = all(box)  # the fibre R/(x_i, x_j) is finite
        self.degree = 0  # stays 0 when the leads do not certify the centre
        if not self.finite or any(any(m[k:]) for m in leads):
            return
        below = itertools.product(*map(range, box))
        standard = (u for u in below if not any(all(e >= l for e, l in zip(u, m)) for m in leads))
        self._basis = basis = sorted(standard, key=sum)
        self.degree = len(basis)
        one, zero = self.base.one, self.base.zero
        self._known = {b: tuple(one if c == b else zero for c in basis) for b in basis}
        self._zero = []  # the border monomials that are 0 in R
        up = [[b[:f] + (b[f] + 1,) + b[f + 1 :] for b in basis] for f in range(k)]
        for u in {u for row in up for u in row} - self._known.keys():  # the border
            nf = gb.normal_form(self._ring.monomial(u + (0, 0)))[0]
            self._known[u] = self._coordinates(nf.terms())
            if nf.is_zero():
                self._zero.append(u)
        self._table = [[self._known[u] for u in row] for row in up]
        self._pth = [w for w, in self._ladder([self._known[basis[0]]], self.p)]

    @classmethod
    def find(cls, rspec: RingSpec) -> "NoetherNormalization | None":
        """The first centre whose leads certify, or None: for each shift of
        itertools.product each pair of itertools.combinations, so the
        coordinate centres come first. None for two variables: R is its A.

        The search also stops, with None, at the first centre whose
        fibre is finite but whose leads involve the pair. With the pair
        last in grevlex, the pair is then not a regular sequence
        (Bayer-Stillman), and the finite fibre makes it a system of
        parameters of R, or R has dimension below 2 and nothing
        certifies. A graded ring is Cohen-Macaulay iff one homogeneous
        system of parameters is a regular sequence, and then all are
        (Bruns-Herzog, Ch. 2). A certified centre is such a sequence,
        so no centre certifies.

        A characteristic above EXP_CAP raises GhkHypothesisError: no
        Frobenius power of a form of positive degree packs there, and the
        _pth ladder alone would take p steps. The shifts are the base-p
        digits of a counter, in itertools.product's order, walked lazily:
        product would build a tuple of all p values first."""
        p, n = rspec.p, rspec.ring.nvars
        if p > EXP_CAP:
            raise GhkHypothesisError(
                f"characteristic {p} exceeds the supported cap {EXP_CAP} of a Frobenius power"
            )
        if n < 3:
            return None
        k = 2 * (n - 2)
        for count in range(p**k):
            shift = tuple(count // p ** (k - 1 - t) % p for t in range(k))
            for pair in itertools.combinations(range(n), 2):
                nn = cls(rspec, pair, shift)
                if nn.degree:
                    return nn
                if nn.finite:
                    return None
        return None

    def pullback(self, columns: Sequence[ModVector], row_twists: tuple, q: int) -> Submodule:
        """The image over A of the q-th Frobenius pullback of the matrix
        with these columns (vectors over S) and row twists: the span of
        b * v^[q] for each column v and b in B, with no relation columns,
        in A^(d*r), its component (j, s) the s-th b in row j, of twist
        q*r_j + deg b. Entries are raised to q in R by _frobenius."""
        gens = []
        for v in columns:
            entries = [self._coordinates(self._substitute(f).items()) for f in v.components]
            entries = [self._frobenius(w, q) for w in entries]
            gens += [ModVector([c for w in row for c in w]) for row in self._ladder(entries, 1)]
        twists = tuple(q * t + sum(b) for t in row_twists for b in self._basis)
        return Submodule(self.base, self.degree * len(row_twists), gens, twists=twists)

    def _ladder(self, first: list, power: int) -> list:
        """[b^power * w for w in first] for each b in B, x_f^power * b/x_f."""
        rows = {self._basis[0]: first}
        for b in self._basis[1:]:
            f = next(f for f, e in enumerate(b) if e)
            row = rows[b[:f] + (b[f] - 1,) + b[f + 1 :]]
            for _ in range(power):
                row = [self._combine(zip(w, self._table[f])) for w in row]
            rows[b] = row
        return list(rows.values())

    def _substitute(self, h: Poly) -> dict:
        """The substituted h over S', as {exponent tuple: coefficient}.
        A variable whose image is one term only moves the exponent. The
        power of a longer image is the one below it times the image, with
        like terms collected, so the work is polynomial in the degree."""
        zero = (0,) * len(self._vars)
        powers: dict = {}  # v -> [the image of x_v^e for e = 0, 1, ...]
        acc: dict = {}
        for m, c in h.terms():
            key, longer = zero, []
            for v, e in enumerate(m):
                if e and len(self._vars[v]) > 1:
                    row = powers.setdefault(v, [{zero: 1}])
                    while len(row) <= e:
                        row.append(self._times(row[-1], self._vars[v]))
                    longer.append(row[e].items())
                elif e:  # a variable of S', coefficient 1
                    ((y, _),) = self._vars[v]
                    key = tuple(a + e * b for a, b in zip(key, y))
            part = {key: c}
            for terms in longer:
                part = self._times(part, terms)
            for key, a in part.items():
                acc[key] = acc.get(key, 0) + a
        return {key: a % self.p for key, a in acc.items() if a % self.p}

    def _times(self, h: dict, terms) -> dict:
        """h times the (exponent tuple, coefficient) terms, mod p."""
        out: dict = {}
        for m, c in h.items():
            for y, cy in terms:
                key = tuple(map(sum, zip(m, y)))
                out[key] = out.get(key, 0) + c * cy
        return {key: a % self.p for key, a in out.items() if a % self.p}

    def _coordinates(self, terms) -> tuple:
        """The element of R with these terms over S': each fibre monomial u's
        coefficient over A times u's coordinates, x_f times those of u/x_f.
        A multiple of a border monomial that is 0 in R is 0 with no walk."""
        k, parts = len(self._vars) - 2, {}
        for m, c in terms:
            parts.setdefault(m[:k], []).append((m[k:], c))
        for u in parts.keys() - self._known.keys():
            if any(all(e >= l for e, l in zip(u, z)) for z in self._zero):
                del parts[u]
                continue
            chain = []  # u and the monomials below it down to a known one
            while u not in self._known:
                f = next(f for f, e in enumerate(u) if e)
                chain.append((u, f))
                u = u[:f] + (u[f] - 1,) + u[f + 1 :]
            for above, f in reversed(chain):
                self._known[above] = self._combine(zip(self._known[u], self._table[f]))
                u = above
        return self._combine((self.base.from_pairs(g), self._known[u]) for u, g in parts.items())

    def _combine(self, pairs) -> tuple:
        """The sum of a * w over pairs of a over A and w in R; an entry 1
        of w, or an empty slot of the sum, costs no arithmetic."""
        out = [self.base.zero] * self.degree
        for a, w in pairs:
            if a:
                for t, c in enumerate(w):
                    if c:
                        x = a if c == 1 else a * c
                        out[t] = out[t] + x if out[t] else x
        return tuple(out)

    def _frobenius(self, h: tuple, q: int) -> tuple:
        """h^q, one p-th power at a time: (sum a_b*b)^p = sum a_b^[p] * (b^p in R)."""
        while q > 1:
            h = self._combine((frobenius_power(a, self.p), w) for a, w in zip(h, self._pth))
            q //= self.p
        return h


def _poly_matrix_det(rows: list) -> Poly:
    """Determinant by cofactor expansion; rows of Polys, small sizes only."""
    k = len(rows)
    ring = rows[0][0].ring
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
        return SmoothnessReport(True, 0, "no relations; Proj is a projective space")
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
    return SmoothnessReport(smooth, dim, details)


def sheaf_degree(rspec: RingSpec, I: Submodule, budget: GbBudget | None = None) -> int:
    """Degree of the rank-one subsheaf of O_Y cut out by the ideal I.

    Convention: the value is NORMALIZED AS NONPOSITIVE. The sheaf
    attached to I embeds in the structure sheaf of the curve Y = Proj R,
    so its degree is 0 minus the total length of the finite quotient:
    a principal ideal generated in degree a gives -a * deg(Y); the ideal
    of a single reduced point gives -1. sat(I)/I has finite length, so
    HS(R/I) and HS(R/sat(I)) share the pole order and, at pole order 1,
    the numerator at 1: ideals with the same sheaf agree.
    """
    rspec.require_dim2()
    check_same_ring(as_ideal(I, "a sheaf degree"), rspec, "the ideal and rspec")
    dim, multiplicity = hilbert_series(I, budget).leading()
    if dim == 0:
        return 0
    if dim == 2:
        raise GhkHypothesisError("zero ideal has no sheaf degree")
    return -multiplicity
