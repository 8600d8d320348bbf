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
  installed as the result's basis. Submodule._check_ambient is the one
  ambient check: ring, rank, twists and relations.
* Saturation by the irrelevant ideal takes one certified basis, for
  any twists: certify_saturation looks for a variable l whose basis
  U.groebner(last=l), in grevlex with l compared last, proves
  U : l^inf = sat(U) by a pole-order-0 Hilbert series difference.
  Rings carry no term order; a basis is the only place one is chosen.
  When no variable certifies, saturate falls back to saturate_by_colon,
  the reference route that tests pin saturate against and the only
  route for any other ideal.
* The one exception to implicit quotient rings: a hypersurface in three
  variables may be read as a free module over a Noether normalization
  A = F_p[x, y] (RingSpec.noether_normalization), and frobmod.ghk_value
  saturates its pulled-back modules over A, where no relation columns
  are needed.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Sequence

from .arith import EXP_BITS, PackedMonomials, Poly, PolyRing, Record, frobenius_power
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
    _preimage,
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


def _coprime_product_numer(degrees: Iterable[int]) -> dict:
    """prod (1 - t^d) over the generator degrees of a complete intersection."""
    out = {0: 1}
    for d in degrees:
        nxt: dict = {}
        for e, c in out.items():
            nxt[e] = nxt.get(e, 0) + c
            nxt[e + d] = nxt.get(e + d, 0) - c
        out = {e: c for e, c in nxt.items() if c}
    return out


def _monomial_numerator(mons: tuple, memo: dict, pm: PackedMonomials) -> dict:
    """Numerator K(t) of HS(S/(mons)) = K / (1-t)^nvars.

    mons are the minimal generators of a monomial ideal, packed by pm
    and in ascending packed value; each branch hands its recursive calls
    the same form. Pivot recursion (Bigatti): split on the lower median
    power of the most shared variable; the branches are the ideal plus
    the pivot and the ideal colon the pivot, whose generators are
    m - gcd(m, pivot). Pairwise coprime sets, where each generator
    shares no variable with the lcm of those before it, terminate as
    complete intersections.
    """
    if not mons:
        return {0: 1}
    if mons[0] == 0:
        return {}
    cached = memo.get(mons)
    if cached is not None:
        return cached
    gcd = pm.gcd
    acc = 0
    for m in mons:
        if gcd(acc, m):
            break
        acc += m
    else:
        out = _coprime_product_numer(pm.degree(m) for m in mons)
        memo[mons] = out
        return out
    exps = [pm.unpack(m) for m in mons]
    nvars = len(exps[0])
    counts = [0] * nvars
    for m in exps:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    piv_var = max(range(nvars), key=lambda i: counts[i])
    # The set is not coprime, so piv_var is in at least two generators
    # and the lower median of its exponents is below their largest. A
    # pure power of piv_var among minimal generators would hold the
    # unique largest, so the pivot is not in the ideal: both branches
    # strictly grow it, and each drops or shortens about half of the
    # generators in piv_var, so the depth does not grow with exponents.
    piv_exps = sorted(m[piv_var] for m in exps if m[piv_var])
    piv_exp = piv_exps[(len(piv_exps) - 1) // 2]
    pivot = piv_exp << (EXP_BITS * piv_var)
    plus = tuple(pm.minimal(sorted(mons + (pivot,))))
    quo = tuple(pm.minimal(sorted(m - gcd(m, pivot) for m in mons)))
    n_plus = _monomial_numerator(plus, memo, pm)
    n_quo = _monomial_numerator(quo, memo, pm)
    out = dict(n_plus)
    for e, c in n_quo.items():
        out[e + piv_exp] = out.get(e + piv_exp, 0) + c
    out = {e: c for e, c in out.items() if c}
    memo[mons] = out
    return out


def _lead_series(leads: dict, twists: tuple, nvars: int, memo: dict, pm: PackedMonomials) -> HilbertSeries:
    """Hilbert series of F/(leads), F = sum_j S(-twists[j]).

    leads maps each component to the minimal generators of a lead
    module there, packed by pm and ascending (GroebnerBasis.packed_leads);
    memo caches monomial-ideal numerators and may be shared by calls.
    """
    total: dict = {}
    for j, e in enumerate(twists):
        for d, c in _monomial_numerator(leads[j], memo, pm).items():
            k = d + e
            total[k] = total.get(k, 0) + c
    return HilbertSeries.from_dict(total, nvars)


def hilbert_series(U: Submodule, budget: GbBudget | None = None) -> HilbertSeries:
    """Hilbert series of F/U, F = sum_j S(-twists[j]), U given by spanning set.

    Computed from the lead module of a Groebner basis componentwise;
    exact integer numerator over (1-t)^nvars.
    """
    gb = U.groebner(budget)
    nvars = U.ring.nvars
    return _lead_series(gb.packed_leads(), U.twists, nvars, {}, PackedMonomials(nvars))


def colength_difference(U: Submodule, V: Submodule, budget: GbBudget | None = None) -> int:
    """Exact length of V/U for nested submodules U <= V of the same ambient.

    Raises GhkHypothesisError when U is not contained in V or when the
    quotient has positive dimension (infinite length). The length falls
    out of the Hilbert-series difference; no graded piece is ever
    enumerated.
    """
    if not V.contains_submodule(U, budget):
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
    gens = _ideal_generators(U.ring, J, U.relations)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise GhkHypothesisError("colon by the zero ideal is not defined")
    ring, rank = U.ring, U.rank
    units = [
        ModVector(tuple(ring.one if i == j else ring.zero for i in range(rank)))
        for j in range(rank)
    ]
    return _preimage(U, units, gens, budget)


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


class SaturationCertificate(Record):
    """Proof that U : x_var^inf = sat(U), read off one Groebner basis.

    gb is U.groebner(last=var), U's basis in grevlex with x_var compared
    last; torsion is HS(sat(U)/U), reduced to pole order 0.
    """

    var: int
    gb: GroebnerBasis
    torsion: HilbertSeries

    @property
    def length(self) -> int:
        """Length of sat(U)/U."""
        return self.torsion.numer_at_one()


def certify_saturation(
    U: Submodule, budget: GbBudget | None = None
) -> SaturationCertificate | None:
    """Find a variable l with U : l^inf = sat(U), or None.

    Tries the ring's last variable first (U's default basis), then the
    others in index order, each through U.groebner(budget, last=l). In
    grevlex with l last, in(U : l^inf) = in(U) : l^inf
    (Bayer-Stillman), so one basis gives HS(F/U) from its leads and
    HS(F/(U : l^inf)) from the same leads with the l-exponent set to 0.
    U : l^inf contains sat(U); when the difference has pole order 0,
    (U : l^inf)/U has finite length, so it lies in sat(U) and the two
    are equal.
    """
    nvars = U.ring.nvars
    pm = PackedMonomials(nvars)
    memo: dict = {}
    # sets the l-exponent to 0: l has the top field in its basis's layout
    keep = pm.low >> EXP_BITS
    for i in (nvars - 1, *range(nvars - 1)):
        gb = U.groebner(budget, last=i)
        leads = gb.packed_leads()
        cut = {j: tuple(pm.minimal(sorted(m & keep for m in mons))) for j, mons in leads.items()}
        diff = _lead_series(leads, U.twists, nvars, memo, pm).sub(
            _lead_series(cut, U.twists, nvars, memo, pm)
        ).reduced()
        if diff.denom_power == 0:
            if diff.numer_at_one() < 0:
                raise GhkError("internal error: negative saturation length")
            return SaturationCertificate(i, gb, diff)
    return None


def saturate(U: Submodule, budget: GbBudget | None = None) -> Submodule:
    """Saturation of U with respect to the irrelevant ideal.

    For any ambient twists, certify_saturation finds a variable l with
    U : l^inf = sat(U); each element of the basis with l last is divided
    by the largest power of l dividing its lead, which divides the whole
    vector (the module-degree "top" order of groebner.py), and those
    quotients span sat(U). When no variable certifies, this is
    saturate_by_colon(U).
    """
    cert = certify_saturation(U, budget)
    if cert is not None:
        return _divide_out(U, cert)
    return saturate_by_colon(U, budget=budget)


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


def _divide_out(U: Submodule, cert: SaturationCertificate) -> Submodule:
    """sat(U) from a certificate: each basis element over x_var^a, a the
    x_var-exponent of its lead."""
    if cert.torsion.is_zero():
        return U
    i = cert.var
    back = [
        ModVector(tuple(f.divide_by_variable_power(i, lead[i]) for f in vec.components))
        for vec, (_, lead) in zip(cert.gb.vectors, cert.gb.lead_terms())
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

    def to_json_dict(self) -> dict:
        return {
            "smooth": self.smooth,
            "singular_locus_dimension": self.singular_locus_dimension,
            "details": self.details,
        }


class RingReport(Record):
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
    ):
        self.ring = PolyRing(p, variables)
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
        polys = [self.parse(g) if isinstance(g, str) else g for g in gens]
        return Submodule.ideal(self.ring, polys, relations=self.relations)

    def submodule(self, rank: int, gens: Iterable, twists: Sequence[int] | None = None) -> Submodule:
        return Submodule(self.ring, rank, gens, twists=twists, relations=self.relations)

    def hilbert_series(self) -> HilbertSeries:
        """Hilbert series of R itself (as S / relation ideal)."""
        if self._hs is None:
            defining = Submodule.ideal(self.ring, self.relations)
            self._hs = hilbert_series(defining)
        return self._hs

    def noether_normalization(self) -> "NoetherNormalization | None":
        """R as a free module over A = F_p[x, y], or None.

        Defined for three variables and one relation f of degree d >= 1:
        the first (a, b) in F_p^2, in the order of itertools.product,
        with f(a, b, 1) != 0 gives the normalization (see
        NoetherNormalization). A curve through every point (a : b : 1),
        or any other ring, has none here. Searched once per RingSpec.
        """
        if self._noether is False:
            self._noether = None
            if self.ring.nvars == 3 and len(self.relations) == 1:
                f = self.relations[0]
                if f.degree() >= 1:
                    p = self.p
                    for a, b in itertools.product(range(p), repeat=2):
                        if sum(c * pow(a, i, p) * pow(b, j, p) for (i, j, _), c in f.terms()) % p:
                            self._noether = NoetherNormalization(f, a, b)
                            break
        return self._noether

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


class NoetherNormalization:
    """R = F_p[x, y, z]/(f) as a free module over A = F_p[x, y].

    The substitution x -> x + a*z, y -> y + b*z is an automorphism of
    S = F_p[x, y, z] over F_p, so it preserves every length; it sends f
    to g, whose z^d coefficient is the unit f(a, b, 1). So R is free
    over A (the ring `base`) with basis 1, z, ..., z^(d-1)
    (Bruns-Herzog, Cohen-Macaulay Rings, 2.2), and an element of R is
    the tuple of its d coefficients over A. (x, y)R has the radical of
    the irrelevant ideal, because R/(x, y)R = F_p[z]/(z^d), so a
    submodule of R^r saturates to the same module over A as over R, and
    sat(U)/U has the same length.

    element() reads a polynomial of S, substituted, as such a tuple;
    times_z() and frobenius() multiply by z and raise to a power of p.
    """

    def __init__(self, f: Poly, a: int, b: int):
        ring = f.ring
        self.p = p = ring.p
        self.shift = (a, b)
        self.base = base = PolyRing(p, ring.variables[:2])
        self.degree = d = f.degree()
        g = self._by_z_power(f)
        # z^d = -(g_0 + g_1*z + ... + g_(d-1)*z^(d-1)) / g_d, g_d = f(a, b, 1),
        # kept as the (l, coefficient) pairs with a nonzero coefficient
        unit = -pow(g[d].coeff((0, 0)), -1, p)
        self._zd = tuple((l, g[l].scale(unit)) for l in range(d) if l in g)
        one = (base.one,) + (base.zero,) * (d - 1)
        # z^(l*p) for l < d: the table of the p-th-power recursion
        pw = [one]
        for _ in range((d - 1) * p):
            pw.append(self.times_z(pw[-1]))
        self._pth = tuple(pw[l * p] for l in range(d))
        self.basis = tuple(pw[:d])

    def _by_z_power(self, h: Poly) -> dict:
        """The substituted h as {k: its z^k coefficient over A}."""
        a, b = self.shift
        p = self.p
        acc: dict = {}
        for (i, j, k), c in h.terms():
            for s in range(i + 1):
                cs = c * comb(i, s) * pow(a, i - s, p) % p
                if cs:
                    for t in range(j + 1):
                        ct = cs * comb(j, t) * pow(b, j - t, p) % p
                        if ct:
                            acc.setdefault(k + i - s + j - t, []).append(((s, t), ct))
        return {k: self.base.from_pairs(pairs) for k, pairs in acc.items()}

    def element(self, h: Poly) -> tuple:
        """The substituted h in R, by Horner's rule in z."""
        coeffs = self._by_z_power(h)
        zero = self.base.zero
        out = (zero,) * self.degree
        for k in range(max(coeffs, default=0), -1, -1):
            out = self.times_z(out)
            out = (out[0] + coeffs.get(k, zero),) + out[1:]
        return out

    def times_z(self, h: tuple) -> tuple:
        """z*h in R: shift up, then rewrite z^d."""
        out = [self.base.zero, *h[:-1]]
        top = h[-1]
        if top:
            for l, c in self._zd:
                out[l] = out[l] + top * c
        return tuple(out)

    def combine(self, coeffs, elements) -> tuple:
        """sum_k coeffs[k] * elements[k], coefficients in A."""
        out = [self.base.zero] * self.degree
        for c, w in zip(coeffs, elements):
            if c:
                for s, ws in enumerate(w):
                    if ws:
                        out[s] = out[s] + c * ws
        return tuple(out)

    def frobenius(self, h: tuple, q: int) -> tuple:
        """h^q, q a power of p, one p-th power at a time:
        (sum_l a_l*z^l)^p = sum_l a_l^[p] * (z^(l*p) mod g)."""
        p = self.p
        while q > 1:
            h = self.combine([frobenius_power(c, p) for c in h], self._pth)
            q //= p
        return h


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
    of a single reduced point gives -1. The saturation of I is computed
    first, so different ideals with the same sheaf agree.
    """
    rspec.require_dim2()
    if I.rank != 1:
        raise GhkError("sheaf degrees are defined for ideals (rank-1 submodules)")
    if I.relations != rspec.relations:
        raise RingMismatchError("ideal does not live over the given ring")
    sat = saturate(I, budget=budget)
    if sat.groebner(budget).is_full_module():
        return 0
    hs = hilbert_series(sat, budget).reduced()
    if hs.denom_power == 2:
        raise GhkHypothesisError("zero ideal has no sheaf degree")
    if hs.denom_power != 1:
        raise GhkError("internal error: saturated proper ideal with finite-length quotient")
    return -hs.numer_at_one()
