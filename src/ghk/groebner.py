"""Groebner bases for submodules of twisted free modules over F_p[x_1..x_n].

Buchberger's algorithm with the Gebauer-Moller pair filters, normal
(degree-first) pair selection with ties broken by input index, and
canonical reduced output: the reduced basis of a submodule is unique
for a fixed term order, so results are reproducible across strategies.
The engine stops at a minimal basis; its tails are reduced against the
whole basis only when GroebnerBasis.vectors is first read. Leads,
membership and normal forms are read without that pass, and a Hilbert
series needs only the leads.

Quotient rings R = S/(relations) are never represented directly. A
submodule of a free R-module is stored over the polynomial ring S with
the relation columns adjoined to its spanning set; the user-level
generator list stays separate so that operations which must distinguish
generators from relations (bracket powers) can do so.

The engine, not the ring, chooses the term order of a basis: ring
monomials compare in grevlex with a chosen variable `last` compared
last (arith.grevlex_key; by default the ring's last variable, the
order every Poly is sorted in), and Submodule.groebner keeps one basis
per `last`. Module terms are packed into single integers, extending
those monomial keys by a component field. "top" order compares the
module degree deg(m) + twists[j] first, then the monomial (component 0
wins ties): the key of component j carries twists[j] - min(twists) in
the monomial key's top field. With equal twists that is plain grevlex.
The module-degree rule gives the revlex property for any twists: if
`last` divides the lead of a homogeneous vector, it divides every
term, which the certified saturation in idealops relies on. Every
basis is in "top" order. Block elimination (_second_block_of_kernel,
which intersect and colon in idealops call) adds EXP_GUARD to the
degree field of the eliminated components' offsets: no reduced degree
reaches EXP_GUARD, so those components form a block above the rest,
and inside each block the order is still "top". Shifting a vector by a
monomial adds a constant to every packed key, so the reducer does one
integer add per term.

Inside the engine a term's monomial is a PackedMonomials int from
arith.py (exponent i in field i, a guard bit on top of each field), so
a product is an int add and a divisibility test is
((a | G) - b) & G == G. Terms and basis records are packed from the
first vec_to_terms to the last terms_to_vec; lead_terms unpacks,
packed_leads hands the leads on packed to the Hilbert series in
idealops, and Poly and the public API keep exponent tuples. The test
is only exact while every exponent stays below EXP_GUARD, so the
engine checks the bound where it can first be broken: packing refuses
exponents above EXP_CAP, every input vector needs
deg - min(twists) < EXP_GUARD, and so does every S-pair before it is
reduced. All terms of a homogeneous reduction share that degree, and
exponents cannot exceed it.

Pairs are kept in a dict for the chain criterion and picked from a heap
of (degree, i, j) with lazy deletion; a pair key is never reinserted,
so the heap reproduces the degree-then-index order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .arith import EXP_BITS, EXP_GUARD, PackedMonomials, Poly, PolyRing, grevlex_key
from .errors import (
    BudgetExceededError,
    GhkError,
    HomogeneityError,
    RingMismatchError,
)

__all__ = [
    "GbBudget",
    "ModVector",
    "Submodule",
    "GroebnerBasis",
    "buchberger",
]

COMP_BITS = 16
_CMAX = (1 << COMP_BITS) - 1


@dataclass(frozen=True)
class GbBudget:
    """Resource limits for one Groebner run.

    max_degree: largest module degree of an S-pair that may be reduced.
    max_pairs: largest number of S-pair reductions.
    Exceeding either raises BudgetExceededError; partial output is never
    returned.
    """

    max_degree: int | None = None
    max_pairs: int | None = None


# ---------------------------------------------------------------------------
# vectors


class ModVector:
    """Element of a free module R^rank; components are ring polynomials."""

    __slots__ = ("ring", "components")

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        if not comps:
            raise GhkError("a module vector needs at least one component")
        ring = comps[0].ring
        for f in comps:
            if not isinstance(f, Poly):
                raise GhkError(f"components must be Poly, got {f!r}")
            if f.ring is not ring and f.ring != ring:
                raise RingMismatchError("vector components live in different rings")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("ModVector is immutable")

    def __reduce__(self):
        return (ModVector, (self.components,))

    @property
    def rank(self) -> int:
        return len(self.components)

    def __getitem__(self, j: int) -> Poly:
        return self.components[j]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __sub__(self, other: "ModVector") -> "ModVector":
        self._check_ambient(other)
        return ModVector(tuple(a - b for a, b in zip(self.components, other.components)))

    def poly_mul(self, f: Poly) -> "ModVector":
        return ModVector(tuple(f * a for a in self.components))

    def _check_ambient(self, other: "ModVector") -> None:
        if not isinstance(other, ModVector):
            raise GhkError(f"expected a ModVector, got {other!r}")
        if other.rank != self.rank or (other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatchError("vectors live in different ambient modules")

    def is_homogeneous(self, twists: Sequence[int]) -> bool:
        degs = set()
        for f, e in zip(self.components, twists):
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                return False
            degs.add(f.homogeneous_degree() + e)
        return len(degs) <= 1

    def homogeneous_degree(self, twists: Sequence[int]) -> int:
        """Common degree deg(f_j) + twists[j] over nonzero components."""
        degs = set()
        for f, e in zip(self.components, twists):
            if f.is_zero():
                continue
            degs.add(f.homogeneous_degree() + e)
        if len(degs) != 1:
            raise HomogeneityError(f"vector {self} is not homogeneous for twists {tuple(twists)}")
        return degs.pop()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModVector)
            and other.ring == self.ring
            and other.components == self.components
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.components))

    def __str__(self) -> str:
        return "(" + ", ".join(str(f) for f in self.components) + ")"

    def __repr__(self) -> str:
        return f"<ModVector {self}>"


# ---------------------------------------------------------------------------
# packed module-term context


class _Ctx:
    """Key packing for module terms at fixed twists and grevlex last
    variable, in "top" order with the first `eliminate` components as a
    block above the rest."""

    __slots__ = ("ring", "rank", "twists", "p", "pm", "key", "term_key")

    def __init__(self, ring: PolyRing, twists: tuple, last: int | None = None, eliminate: int = 0):
        rank = len(twists)
        if rank < 1 or rank > _CMAX:
            raise GhkError(f"rank {rank} out of supported range [1, {_CMAX}]")
        self.ring = ring
        self.rank = rank
        self.twists = twists
        self.p = ring.p
        self.pm = PackedMonomials(ring.nvars)
        self.key = grevlex_key(ring.nvars, last)
        # module degree first: component j's twist excess goes into the
        # ring key's top (degree) field; equal twists add 0. check_degree
        # keeps that field below EXP_GUARD, so adding EXP_GUARD lifts the
        # eliminated components above every other term.
        low = min(twists)
        offs = tuple(
            (e - low + (EXP_GUARD if j < eliminate else 0)) << (ring.nvars * EXP_BITS)
            for j, e in enumerate(twists)
        )

        def term_key(comp, rk, _cb=COMP_BITS, _cm=_CMAX, _offs=offs):
            return ((rk + _offs[comp]) << _cb) | (_cm - comp)

        self.term_key = term_key

    def check_degree(self, deg: int) -> None:
        """Refuse work of module degree deg that could reach a guard bit."""
        if deg - min(self.twists) >= EXP_GUARD:
            raise GhkError(
                f"module degree {deg} is too large for packed monomials "
                f"(degree minus the smallest twist must stay below {EXP_GUARD})"
            )

    def vec_to_terms(self, v: ModVector) -> tuple:
        tk = self.term_key
        key = self.key
        pack = self.pm.pack
        terms = []
        for j, f in enumerate(v.components):
            if f._t:
                self.check_degree(f.degree() + self.twists[j])
            for _, m, c in f._t:
                terms.append((tk(j, key(m)), j, pack(m), c))
        terms.sort(reverse=True)
        return tuple(terms)

    def terms_to_vec(self, terms: Iterable[tuple]) -> ModVector:
        ring = self.ring
        per: list = [[] for _ in range(self.rank)]
        key = ring.key
        unpack = self.pm.unpack
        for _, cp, m, c in terms:
            mon = unpack(m)
            per[cp].append((key(mon), mon, c))
        comps = []
        for lst in per:
            lst.sort(reverse=True)
            comps.append(Poly(ring, tuple(lst)))
        return ModVector(comps)


# ---------------------------------------------------------------------------
# the reduction loop

# A basis record is (ltkey, ltcomp, ltmon, tail) with the element
# monic and tail the non-lead terms; terms are (key, comp, mon, coeff)
# with mon a packed monomial.


def _reduce(seeds, by_comp, p, guard, full=True):
    """Reduce a seeded combination modulo monic basis records.

    seeds: iterable of (terms, mult, delta, shift) contributions; each
    term (k, comp, mon, c) enters as key k+delta, packed monomial
    mon+shift, coefficient c*mult. guard is the packing's guard mask.

    With full=True returns the complete normal form (terms descending).
    With full=False stops at the first irreducible term, which is enough
    for membership tests.
    """
    acc: dict = {}  # key -> [coeff, comp, mon]
    heap: list = []
    for terms, mult, delta, shift in seeds:
        for k, cp, m, c in terms:
            nk = k + delta
            entry = acc.get(nk)
            if entry is None:
                acc[nk] = [c * mult, cp, m + shift]
                heappush(heap, -nk)
            else:
                entry[0] += c * mult
    out = []
    while heap:
        k = -heappop(heap)
        c, cp, mon = acc.pop(k)
        c %= p
        if c == 0:
            continue
        mg = mon | guard
        red = None
        for g in by_comp.get(cp, ()):
            if (mg - g[2]) & guard == guard:
                red = g
                break
        if red is None:
            out.append((k, cp, mon, c))
            if not full:
                break
            continue
        delta = k - red[0]
        shift = mon - red[2]
        for tk, tcp, tm, tc in red[3]:
            nk = tk + delta
            entry = acc.get(nk)
            if entry is None:
                acc[nk] = [-(tc * c), tcp, tm + shift]
                heappush(heap, -nk)
            else:
                entry[0] -= tc * c
    return tuple(out)


def _monic_record(ctx: _Ctx, terms: tuple) -> tuple:
    k, cp, m, c = terms[0]
    if c != 1:
        p = ctx.p
        inv = pow(c, -1, p)
        terms = tuple((tk, tcp, tm, tc * inv % p) for tk, tcp, tm, tc in terms)
    return (k, cp, m, terms[1:])


def _record_terms(rec: tuple) -> tuple:
    return ((rec[0], rec[1], rec[2], 1),) + rec[3]


# ---------------------------------------------------------------------------
# Buchberger driver with Gebauer-Moller pair filters


def _update_pairs(
    G: list, P: dict, heap: list, t: int, twists: tuple, rank: int, pm: PackedMonomials
) -> None:
    """Install pairs (i, t); apply lcm, duplicate, product, chain filters.

    P maps a live pair (i, j) to its packed lcm; heap gets (degree, i, j)
    for each new pair. Of the pairs (i, t), one per minimal lcm survives
    (the smallest i); PackedMonomials.minimal finds the minimal lcms in
    one pass over the distinct ones in ascending packed value.
    """
    guard = pm.guard
    hrec = G[t]
    hc, hm = hrec[1], hrec[2]
    lcm_of = pm.lcm
    lcms: dict = {}
    first: dict = {}  # distinct lcm -> smallest i with that lcm
    coprime: set = set()
    for i in range(t):
        gi = G[i]
        if gi[1] != hc:
            continue
        gm = gi[2]
        lcm = lcm_of(hm, gm)
        lcms[i] = lcm
        if lcm not in first:
            first[lcm] = i
        if lcm == gm + hm:
            coprime.add(lcm)
    for lcm in pm.minimal(sorted(first)):
        # coprime-lead criterion is sound only for ideals: if any member
        # of an equal-lcm class has lcm == product, the whole class
        # reduces to zero.
        if rank == 1 and lcm in coprime:
            continue
        i = first[lcm]
        P[(i, t)] = lcm
        heappush(heap, (pm.degree(lcm) + twists[hc], i, t))
    # chain criterion against existing pairs
    dead = []
    for ij, lij in P.items():
        if ((lij | guard) - hm) & guard != guard:
            continue
        i, j = ij
        if j != t and G[i][1] == hc and lcms[i] != lij and lcms[j] != lij:
            dead.append(ij)
    for ij in dead:
        del P[ij]


def _engine(vec_terms: list, ctx: _Ctx, budget: GbBudget | None) -> list:
    """Run Buchberger to completion; return a minimal basis, ascending.

    The records are monic with pairwise non-dividing leads. Each tail
    was reduced against the basis as it stood when its record was
    installed, so a later element may still divide a tail term; the
    leads are final, and _interreduce makes the basis reduced.
    """
    p = ctx.p
    pm = ctx.pm
    guard = pm.guard
    max_degree = budget.max_degree if budget else None
    max_pairs = budget.max_pairs if budget else None
    G: list = []
    by_comp: dict = {}
    P: dict = {}
    heap: list = []

    def install(terms: tuple) -> None:
        rec = _monic_record(ctx, terms)
        G.append(rec)
        by_comp.setdefault(rec[1], []).append(rec)
        _update_pairs(G, P, heap, len(G) - 1, ctx.twists, ctx.rank, pm)

    for terms in vec_terms:
        if not terms:
            continue
        red = _reduce([(terms, 1, 0, 0)], by_comp, p, guard)
        if red:
            install(red)

    pairs_done = 0
    while heap:
        deg, i, j = heappop(heap)
        tau = P.pop((i, j), None)
        if tau is None:
            continue  # dropped by the chain criterion
        if max_degree is not None and deg > max_degree:
            raise BudgetExceededError(
                f"S-pair degree {deg} exceeds budget {max_degree}",
                kind="degree",
                limit=max_degree,
                reached=deg,
            )
        if max_pairs is not None and pairs_done >= max_pairs:
            raise BudgetExceededError(
                f"S-pair count exceeds budget {max_pairs}",
                kind="pairs",
                limit=max_pairs,
                reached=pairs_done + 1,
            )
        ctx.check_degree(deg)
        pairs_done += 1
        gi, gj = G[i], G[j]
        ktau = ctx.term_key(gi[1], ctx.key(pm.unpack(tau)))
        seeds = [
            (gi[3], 1, ktau - gi[0], tau - gi[2]),
            (gj[3], p - 1, ktau - gj[0], tau - gj[2]),
        ]
        red = _reduce(seeds, by_comp, p, guard)
        if red:
            install(red)

    # minimal lead set: the leads are distinct, so keep the records
    # whose lead is a minimal generator of its component's lead ideal
    minimal = {
        cp: set(pm.minimal(sorted(rec[2] for rec in recs))) for cp, recs in by_comp.items()
    }
    return sorted((rec for rec in G if rec[2] in minimal[rec[1]]), key=lambda rec: rec[0])


def _interreduce(records: list, p: int, guard: int) -> list:
    """Reduce every tail of a minimal basis against the whole basis.

    records: monic records of a minimal Groebner basis, ascending. Leads
    and order are kept, so the result is the reduced basis, ascending.
    An element's own lead can never divide its tail monomials
    (divisibility implies order-greater), so one shared lookup table is
    safe.
    """
    by_comp: dict = {}
    for rec in records:
        by_comp.setdefault(rec[1], []).append(rec)
    return [
        (rec[0], rec[1], rec[2], _reduce([(rec[3], 1, 0, 0)], by_comp, p, guard))
        for rec in records
    ]


# ---------------------------------------------------------------------------
# public layer


class GroebnerBasis:
    """Reduced Groebner basis of a submodule: unique for (module, last).

    Elements are monic, no term of any element is divisible by the lead
    of another, and vectors are sorted by ascending lead. Reusable as a
    reducer via normal_form/contains. The vectors' polynomials are
    sorted in the ring's own grevlex, so with another `last` their lm()
    need not be the basis lead; lead_terms gives the leads.

    It is built from a minimal basis, monic and ascending: the engine's,
    or the block that elimination keeps. Its tails are reduced the
    first time vectors (or iteration) is read, and the vectors are
    unpacked then. Leads, membership and normal forms are read from the
    records as they stand: they depend only on the leads and on the
    module, so that pass never changes them, and callers that only
    reduce or read leads never pay for it.
    """

    __slots__ = ("ring", "rank", "twists", "_vectors", "_records", "_by_comp", "_ctx")

    def __init__(self, ctx: _Ctx, records: list):
        self.ring = ctx.ring
        self.rank = ctx.rank
        self.twists = ctx.twists
        self._ctx = ctx
        self._set_records(records)
        self._vectors = None

    def _set_records(self, records: list) -> None:
        self._records = tuple(records)
        by_comp: dict = {}
        for rec in records:
            by_comp.setdefault(rec[1], []).append(rec)
        self._by_comp = by_comp

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            self._set_records(_interreduce(self._records, self.ring.p, self._ctx.pm.guard))
            to_vec = self._ctx.terms_to_vec
            self._vectors = tuple(to_vec(_record_terms(rec)) for rec in self._records)
        return self._vectors

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.vectors)

    def lead_terms(self) -> tuple:
        """(component, monomial) of each element, ascending order."""
        unpack = self._ctx.pm.unpack
        return tuple((rec[1], unpack(rec[2])) for rec in self._records)

    def packed_leads(self) -> dict:
        """Component -> its lead monomials as packed ints, ascending.

        They are the minimal generators of the lead module there: no
        lead of a minimal basis divides another.
        """
        out: dict = {j: [] for j in range(self.rank)}
        for rec in self._records:
            out[rec[1]].append(rec[2])
        return {j: tuple(sorted(mons)) for j, mons in out.items()}

    def _coerce(self, v) -> ModVector:
        if isinstance(v, Poly):
            v = ModVector((v,))
        if not isinstance(v, ModVector):
            raise GhkError(f"expected ModVector or Poly, got {v!r}")
        if v.rank != self.rank:
            raise RingMismatchError(f"vector rank {v.rank} != ambient rank {self.rank}")
        if v.ring != self.ring:
            raise RingMismatchError("vector ring differs from basis ring")
        return v

    def normal_form(self, v) -> ModVector:
        """The unique reduced remainder of v modulo the submodule."""
        v = self._coerce(v)
        terms = self._ctx.vec_to_terms(v)
        red = _reduce([(terms, 1, 0, 0)], self._by_comp, self.ring.p, self._ctx.pm.guard)
        return self._ctx.terms_to_vec(red)

    def contains(self, v) -> bool:
        v = self._coerce(v)
        terms = self._ctx.vec_to_terms(v)
        red = _reduce(
            [(terms, 1, 0, 0)], self._by_comp, self.ring.p, self._ctx.pm.guard, full=False
        )
        return not red

    def is_full_module(self) -> bool:
        """True when the basis generates all of R^rank (unit columns)."""
        seen = {rec[1] for rec in self._records if rec[2] == 0}
        return len(seen) == self.rank

    def __repr__(self) -> str:
        return f"<GroebnerBasis of rank-{self.rank} submodule, {len(self)} elements>"


class Submodule:
    """Finitely generated graded submodule of F = sum_j R(-twists[j]).

    R = S/(relation ideal) is carried implicitly: `relations` holds
    homogeneous ring polynomials, and every relation times every
    standard basis vector is adjoined to the spanning set that Groebner
    computations consume. `gens` is the user-level generating set over
    R and is what bracket-power style operations transform.
    """

    __slots__ = ("ring", "rank", "twists", "gens", "relations", "_gb")

    def __init__(
        self,
        ring: PolyRing,
        rank: int,
        gens: Iterable,
        twists: Sequence[int] | None = None,
        relations: Iterable[Poly] = (),
    ):
        if rank < 1 or rank > _CMAX:
            raise GhkError(f"rank {rank} out of supported range")
        self.ring = ring
        self.rank = rank
        self.twists = tuple(int(e) for e in twists) if twists is not None else (0,) * rank
        if len(self.twists) != rank:
            raise GhkError(f"{len(self.twists)} twists for rank {rank}")

        rels = []
        for r in relations:
            if not isinstance(r, Poly):
                raise GhkError(f"relations must be Poly, got {r!r}")
            if r.ring != ring:
                raise RingMismatchError("relation lives in a different ring")
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise HomogeneityError(f"relation {r} is not homogeneous")
            rels.append(r)
        self.relations = tuple(rels)

        vecs = []
        for g in gens:
            v = self._coerce_gen(g)
            if v.is_zero():
                continue
            if not v.is_homogeneous(self.twists):
                raise HomogeneityError(
                    f"generator {v} is not homogeneous for twists {self.twists}"
                )
            vecs.append(v)
        self.gens = tuple(vecs)
        self._gb: dict = {}  # last variable -> basis

    def _coerce_gen(self, g) -> ModVector:
        if isinstance(g, ModVector):
            v = g
        elif isinstance(g, Poly):
            if self.rank != 1:
                raise GhkError("bare polynomials only generate rank-1 submodules")
            v = ModVector((g,))
        else:
            v = ModVector(tuple(g))
        if v.rank != self.rank:
            raise RingMismatchError(f"generator rank {v.rank} != ambient rank {self.rank}")
        if v.ring != self.ring:
            raise RingMismatchError("generator ring differs from submodule ring")
        return v

    @classmethod
    def ideal(cls, ring: PolyRing, gens: Iterable, relations: Iterable[Poly] = ()) -> "Submodule":
        """Rank-1 untwisted submodule: an ideal of R = S/(relations)."""
        return cls(ring, 1, gens, twists=(0,), relations=relations)

    def relation_columns(self) -> tuple:
        cols = []
        zero = self.ring.zero
        for r in self.relations:
            for j in range(self.rank):
                comps = [zero] * self.rank
                comps[j] = r
                cols.append(ModVector(comps))
        return tuple(cols)

    def spanning(self) -> tuple:
        """Generators plus relation columns: what the engine consumes."""
        return self.gens + self.relation_columns()

    def groebner(self, budget: GbBudget | None = None, last: int | None = None) -> GroebnerBasis:
        """The basis in "top" grevlex with variable `last` compared last
        (default: the ring's last variable), built once per `last`."""
        if last is None:
            last = self.ring.nvars - 1
        gb = self._gb.get(last)
        if gb is None:
            gb = _basis(self.ring, self.twists, self.spanning(), budget, last)
            self._gb[last] = gb
        return gb

    def contains(self, v) -> bool:
        return self.groebner().contains(v)

    def contains_submodule(self, other: "Submodule", budget: GbBudget | None = None) -> bool:
        """other <= self, through self's basis (built within budget)."""
        self._check_ambient(other)
        gb = self.groebner(budget)
        return all(gb.contains(v) for v in other.spanning())

    def _check_ambient(self, other: "Submodule") -> None:
        """Refuse a submodule of another free module or quotient ring."""
        if not isinstance(other, Submodule):
            raise GhkError(f"expected a Submodule, got {other!r}")
        if other.ring != self.ring or other.rank != self.rank or other.twists != self.twists:
            raise RingMismatchError("submodules live in different ambient modules")
        if other.relations != self.relations:
            raise RingMismatchError("submodules live over different quotient rings")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        try:
            self._check_ambient(other)
        except RingMismatchError:
            return False
        return self.contains_submodule(other) and other.contains_submodule(self)

    __hash__ = None  # semantic equality needs Groebner bases; not hashable

    def __repr__(self) -> str:
        return (
            f"<Submodule rank {self.rank}, twists {self.twists}, "
            f"{len(self.gens)} gens, {len(self.relations)} relations over F_{self.ring.p}>"
        )


def _basis(
    ring: PolyRing,
    twists: tuple,
    vectors: Iterable,
    budget: GbBudget | None,
    last: int | None = None,
    eliminate: int = 0,
) -> GroebnerBasis:
    """Basis of the span of vectors in F = sum_j R(-twists[j]), in "top"
    grevlex with variable `last` compared last and the first `eliminate`
    components as a block above the rest."""
    ctx = _Ctx(ring, twists, last, eliminate)
    return GroebnerBasis(ctx, _engine([ctx.vec_to_terms(v) for v in vectors], ctx, budget))


def _second_block_of_kernel(
    U: Submodule, gens: list, twists: tuple, budget: GbBudget | None
) -> Submodule:
    """Second blocks of the elements of the doubled module spanned by
    gens (ambient twists `twists`) whose first block vanishes, as a
    submodule of U's ambient module, with its basis installed.

    Internal to intersect and colon in idealops. The basis eliminates
    the first block: it lies above the second, so the records whose
    lead is in the second block have every term there and form a
    Groebner basis of the result (Elimination Theorem). The second
    block's twists are U's plus a constant, so inside it the order is
    U's own "top" order: those records, still minimal and ascending,
    are the result's basis, for every rank. Their tails are reduced on
    the first read of the result's vectors.
    """
    ring, rank = U.ring, U.rank
    doubled = _basis(ring, twists, gens, budget, eliminate=rank)
    to_vec = doubled._ctx.terms_to_vec
    kept = [
        ModVector(to_vec(_record_terms(rec)).components[rank:])
        for rec in doubled._records
        if rec[1] >= rank
    ]
    result = Submodule(ring, rank, kept, twists=U.twists, relations=U.relations)
    ctx = _Ctx(ring, U.twists)
    records = [_monic_record(ctx, ctx.vec_to_terms(v)) for v in kept]
    result._gb[ring.nvars - 1] = GroebnerBasis(ctx, records)
    return result


def buchberger(U: Submodule, budget: GbBudget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of U's spanning set (gens + relation columns).

    A cached basis is returned whatever the budget; a budgeted run seeds
    the cache only when it completes, so an aborted one cannot poison it.
    """
    return U.groebner(budget)

