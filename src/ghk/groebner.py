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
last (arith.PackedMonomials; by default the ring's last variable,
the order every Poly is sorted in), and Submodule.groebner keeps one basis
per `last`. Module terms are packed into single integers, extending
those monomial keys by a component field. "top" order compares the
module degree deg(m) + twists[j] first, then the monomial (component 0
wins ties): the key of component j carries twists[j] - min(twists) in
the monomial key's top field. With equal twists that is plain grevlex.
The module-degree rule gives the revlex property for any twists: if
`last` divides the lead of a homogeneous vector, it divides every
term, which the certified saturation in idealops relies on. Every
basis is in "top" order. Block elimination adds EXP_GUARD to the
degree field of the eliminated components' offsets: no reduced degree
reaches EXP_GUARD, so those components form a block above the rest,
and inside each block the order is still "top". Its one user is
_preimage, the single elimination behind intersect and colon in
idealops: {v in a span : g*v in U for each g} from one basis of
F^(k+1), k multipliers g, whose last block is installed as the result's
basis. Shifting a vector by a monomial adds a constant to every packed
key, so the reducer does one integer add per term.

Inside the engine a term is its key and a coefficient: the key holds
the component and the PackedMonomials int of arith.py, laid out for
the basis's `last`, and _Ctx.split reads them back. A product is an
int add and a divisibility test is ((a | G) - b) & G == G. A Poly
term is already a grevlex key, in the ring's layout (the default
`last`), so vec_to_terms and terms_to_vec only move fields between
the ring's layout and the basis's, the identity when `last` is the
ring's last variable, and add or remove the component field;
lead_terms unpacks, and packed_leads hands the leads on in the basis's
layout to the Hilbert series in idealops. The test is only exact while
every exponent stays below EXP_GUARD, so the engine checks the bound
where it can first be broken: vec_to_terms refuses exponents above
EXP_CAP, every input vector needs deg - min(twists) < EXP_GUARD, and so
does every S-pair before it is reduced. All terms of a homogeneous
reduction share that degree, and exponents cannot exceed it.

The reducer finds a divisor of a term's monomial among the leads of
its component through a _DivisorIndex, never by scanning every lead:
most terms have none, and their cost sets the reducer's. The index
buckets the leads on their exponents outside two staircase fields, the
top two of the layout: `last` and the variable compared right after
it, whose exponents a basis spreads widely; the others stay small
(with `last` = z on a cubic x^3 + ..., the relation's lead caps the
x-exponent at 2). With two variables or fewer there is one bucket. The
bucket keys are kept sorted, and a divisor's key is never a larger
int, so a query tests the keys up to the term's own and visits the
buckets whose key divides it. Inside a bucket, where divisibility is a
2-D staircase question, the leads are sorted by the `last` exponent
with a running minimum of the other one: one bisect and one compare
decide whether a lead there divides the term, and the running minimum
names it. The engine adds each lead as it installs the record, and
later inserts recompute the running minimum from their position on.
Which divisor the query returns is deterministic but otherwise
arbitrary. The records a run installs may depend on it, but the
remainder modulo a Groebner basis is unique whichever divisor each
step uses, so the minimal basis's leads, the reduced basis, normal
forms and every length do not.

Pairs are kept in a dict for the chain criterion and picked from a heap
of (degree, i, j) with lazy deletion; a pair key is never reinserted,
so the heap reproduces the degree-then-index order exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .arith import (
    _FMAX,
    EXP_BITS,
    EXP_GUARD,
    PackedMonomials,
    Poly,
    PolyRing,
    Record,
    as_int,
    check_exponent_cap,
)
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


class GbBudget(Record):
    """Resource limits for one Groebner run.

    max_degree: largest module degree of an S-pair that may be reduced.
    max_pairs: largest number of S-pair reductions.
    Each is None (no limit) or a non-negative int; a bool or a float is
    refused rather than compared. Exceeding either raises
    BudgetExceededError; partial output is never returned.
    """

    max_degree: int | None = None
    max_pairs: int | None = None

    def __post_init__(self):
        for limit in (self.max_degree, self.max_pairs):
            if limit is not None:
                as_int(limit, "a budget limit", 0)


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
    block above the rest. term_key(comp, mon) puts the grevlex key of a
    packed monomial (pm, laid out for `last`) above a component field,
    and split(key) reads (comp, mon) back.

    to_basis and to_ring convert a monomial's grevlex key between the
    ring's layout (a Poly key) and the basis's: the basis layout moves
    the ring's field `last` to the top and the fields above it down by
    one. A key's low fields are the packed monomial's complement, which
    a field permutation keeps, so moving the fields of the key moves
    those of the monomial. With `last` the ring's last variable both
    are the identity."""

    __slots__ = (
        "ring", "rank", "twists", "p", "pm", "offs", "term_key", "split", "to_basis", "to_ring"
    )

    def __init__(self, ring: PolyRing, twists: tuple, last: int | None = None, eliminate: int = 0):
        rank = len(twists)
        if rank < 1 or rank > _CMAX:
            raise GhkError(f"rank {rank} out of supported range [1, {_CMAX}]")
        self.ring = ring
        self.rank = rank
        self.twists = twists
        self.p = ring.p
        self.pm = pm = PackedMonomials(ring.nvars, last)
        # module degree first: component j's twist excess goes into the
        # monomial key's top (degree) field; equal twists add 0.
        # check_degree keeps that field below EXP_GUARD, so adding
        # EXP_GUARD lifts the eliminated components above every other term.
        low = min(twists)
        self.offs = offs = tuple(
            (e - low + (EXP_GUARD if j < eliminate else 0)) << (ring.nvars * EXP_BITS)
            for j, e in enumerate(twists)
        )

        def term_key(comp, mon, _key=pm.key, _cb=COMP_BITS, _cm=_CMAX, _offs=offs):
            return ((_key(mon) + _offs[comp]) << _cb) | (_cm - comp)

        def split(k, _cb=COMP_BITS, _cm=_CMAX, _low=pm.low):
            # the monomial key's low fields hold low - mon
            return _cm - (k & _cm), _low - ((k >> _cb) & _low)

        s = EXP_BITS * (ring.nvars - 1 if last is None else last)
        top = EXP_BITS * (ring.nvars - 1)
        moved = (1 << top) - (1 << s)  # basis fields last .. nvars - 2
        stay = ~(moved | (_FMAX << top))  # the degree and the fields below last

        def to_basis(k, _s=s, _top=top, _moved=moved, _stay=stay):
            return (k & _stay) | ((k >> EXP_BITS) & _moved) | (((k >> _s) & _FMAX) << _top)

        def to_ring(k, _s=s, _top=top, _moved=moved, _stay=stay):
            return (k & _stay) | ((k & _moved) << EXP_BITS) | (((k >> _top) & _FMAX) << _s)

        self.term_key = term_key
        self.split = split
        self.to_basis = to_basis
        self.to_ring = to_ring

    def check_degree(self, deg: int) -> None:
        """Refuse work of module degree deg that could reach a guard bit."""
        if deg - min(self.twists) >= EXP_GUARD:
            raise GhkError(
                f"module degree {deg} is too large for packed monomials "
                f"(degree minus the smallest twist must stay below {EXP_GUARD})"
            )

    def vec_to_terms(self, v: ModVector) -> tuple:
        to_basis = self.to_basis
        terms = []
        for j, f in enumerate(v.components):
            if f._t:
                self.check_degree(f.degree() + self.twists[j])
                check_exponent_cap(f)
                off, tag = self.offs[j], _CMAX - j
                terms += [(((to_basis(k) + off) << COMP_BITS) | tag, c) for k, c in f._t]
        terms.sort(reverse=True)
        return tuple(terms)

    def terms_to_vec(self, terms: Iterable[tuple]) -> ModVector:
        per: list = [[] for _ in range(self.rank)]
        to_ring, offs = self.to_ring, self.offs
        for k, c in terms:
            cp = _CMAX - (k & _CMAX)
            per[cp].append((to_ring((k >> COMP_BITS) - offs[cp]), c))
        return ModVector([Poly(self.ring, tuple(sorted(lst, reverse=True))) for lst in per])


# ---------------------------------------------------------------------------
# the divisor index and the reduction loop

# A term is (key, coeff), its component and packed monomial read off
# the key (_Ctx.split). A basis record is (ltkey, ltcomp, ltmon, tail)
# with the element monic, the lead's component and monomial cached for
# the pair update and the index, and tail the non-lead terms.


class _DivisorIndex:
    """The leads of monic basis records, indexed for divisor queries.

    records holds the records in the order added (a list that is never
    rebound, since divisor reads it) and members maps a component to the
    positions of its records, ascending. divisor(k) returns a record
    whose lead divides the term of key k (same component, dividing
    monomial), or None.

    Per component the leads are bucketed on their exponents outside the
    two staircase fields (the top two: `last` and the variable compared
    right after it), the buckets sorted by key. A bucket keeps its leads
    sorted by the `last` field, with a running minimum of the other
    field and the position that first attains it.
    """

    __slots__ = ("records", "members", "divisor", "_comps", "_outer", "_a", "_b")

    def __init__(self, ctx: _Ctx, records: Iterable[tuple] = ()):
        low = ctx.pm.low
        # the top field, the one below it (if any) and all the others
        self._a = low ^ (low >> EXP_BITS)
        self._b = (low >> EXP_BITS) ^ (low >> 2 * EXP_BITS)
        self._outer = low >> 2 * EXP_BITS
        self.records: list = []
        self.members: dict = {}
        self._comps: dict = {}  # component -> (bucket keys, buckets), parallel

        def divisor(
            k, _get=self._comps.get, _g=ctx.pm.guard, _o=self._outer, _a=self._a,
            _b=self._b, _records=self.records, _cb=COMP_BITS, _cm=_CMAX, _low=low,
        ):
            comp = _get(_cm - (k & _cm))
            if comp is None:
                return None
            mon = _low - ((k >> _cb) & _low)  # as _Ctx.split
            outer = mon & _o
            og = outer | _g
            a = mon & _a
            b = mon & _b
            for key, avals, best, _ in comp[1]:
                if (og - key) & _g == _g:
                    i = bisect_right(avals, a)
                    if i and best[i - 1][0] <= b:
                        return _records[best[i - 1][1]]
                elif key > outer:
                    break  # a dividing key is no larger int, and keys ascend
            return None

        self.divisor = divisor
        for rec in records:
            self.add(rec)

    def __len__(self) -> int:
        return len(self.records)

    def add(self, rec: tuple) -> None:
        pos = len(self.records)
        self.records.append(rec)
        cp, mon = rec[1], rec[2]
        self.members.setdefault(cp, []).append(pos)
        keys, buckets = self._comps.setdefault(cp, ([], []))
        key = mon & self._outer
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            keys.insert(i, key)
            buckets.insert(i, (key, [], [], []))
        _, avals, best, items = buckets[i]
        a = mon & self._a
        j = bisect_right(avals, a)
        avals.insert(j, a)
        items.insert(j, (mon & self._b, pos))
        # the running minimum changes from the insertion point on
        cur = best[j - 1] if j else items[j]
        tail = []
        for item in items[j:]:
            if item[0] < cur[0]:
                cur = item
            tail.append(cur)
        best[j:] = tail


def _reduce(seeds, index: _DivisorIndex, p, full=True):
    """Reduce a seeded combination modulo monic basis records.

    seeds: iterable of (terms, mult, delta) contributions; each term
    (k, c) enters as key k+delta with coefficient c*mult. Adding delta
    to a key multiplies its monomial by the one delta stands for, so the
    key is all the reducer moves. Each term is reduced by the record
    that index.divisor returns for its key.

    With full=True returns the complete normal form (terms descending).
    With full=False stops at the first irreducible term, which is enough
    for membership tests.
    """
    divisor = index.divisor
    acc: dict = {}  # key -> coefficient
    heap: list = []
    for terms, mult, delta in seeds:
        for k, c in terms:
            nk = k + delta
            prev = acc.get(nk)
            if prev is None:
                acc[nk] = c * mult
                heappush(heap, -nk)
            else:
                acc[nk] = prev + c * mult
    out = []
    while heap:
        k = -heappop(heap)
        c = acc.pop(k) % p
        if c == 0:
            continue
        red = divisor(k)
        if red is None:
            out.append((k, c))
            if not full:
                break
            continue
        delta = k - red[0]
        for tk, tc in red[3]:
            nk = tk + delta
            prev = acc.get(nk)
            if prev is None:
                acc[nk] = -(tc * c)
                heappush(heap, -nk)
            else:
                acc[nk] = prev - tc * c
    return tuple(out)


def _monic_record(ctx: _Ctx, terms: tuple) -> tuple:
    k, c = terms[0]
    if c != 1:
        p = ctx.p
        inv = pow(c, -1, p)
        terms = tuple((tk, tc * inv % p) for tk, tc in terms)
    return (k, *ctx.split(k), terms[1:])


def _record_terms(rec: tuple) -> tuple:
    return ((rec[0], 1),) + rec[3]


# ---------------------------------------------------------------------------
# Buchberger driver with Gebauer-Moller pair filters


def _update_pairs(
    G: list,
    P: dict,
    heap: list,
    t: int,
    peers: Iterable[int],
    twists: tuple,
    rank: int,
    pm: PackedMonomials,
) -> None:
    """Install pairs (i, t); apply lcm, duplicate, product, chain filters.

    peers: the positions i < t of the records in G[t]'s component,
    ascending, so that the first i seen with an lcm is the smallest. P
    maps a live pair (i, j) to its packed lcm; heap gets (degree, i, j)
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
    for i in peers:
        gm = G[i][2]
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
    max_degree = budget.max_degree if budget else None
    max_pairs = budget.max_pairs if budget else None
    index = _DivisorIndex(ctx)
    G = index.records
    P: dict = {}
    heap: list = []

    def install(terms: tuple) -> None:
        rec = _monic_record(ctx, terms)
        index.add(rec)
        peers = index.members[rec[1]]
        _update_pairs(G, P, heap, peers[-1], peers[:-1], ctx.twists, ctx.rank, pm)

    for terms in vec_terms:
        if not terms:
            continue
        red = _reduce([(terms, 1, 0)], index, p)
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
        ktau = ctx.term_key(gi[1], tau)
        seeds = [(gi[3], 1, ktau - gi[0]), (gj[3], p - 1, ktau - gj[0])]
        red = _reduce(seeds, index, p)
        if red:
            install(red)

    # minimal lead set: the leads are distinct, so keep the records
    # whose lead is a minimal generator of its component's lead ideal
    minimal = {
        cp: set(pm.minimal(sorted(G[i][2] for i in peers)))
        for cp, peers in index.members.items()
    }
    return sorted((rec for rec in G if rec[2] in minimal[rec[1]]), key=lambda rec: rec[0])


def _interreduce(index: _DivisorIndex, p: int) -> list:
    """Reduce every tail of a minimal basis against the whole basis.

    index: the records of a minimal Groebner basis, monic and ascending.
    Leads and order are kept, so the result is the reduced basis,
    ascending, and index stays valid when it replaces index.records in
    place. An element's own lead can
    never divide its tail monomials (divisibility implies
    order-greater), so one shared index is safe.
    """
    return [
        (rec[0], rec[1], rec[2], _reduce([(rec[3], 1, 0)], index, p))
        for rec in index.records
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
    reduce or read leads never pay for it. The divisor index that
    reductions use is built on the first one, so callers that only read
    leads never build it.
    """

    __slots__ = ("ring", "rank", "twists", "_vectors", "_records", "_divisors", "_ctx")

    def __init__(self, ctx: _Ctx, records: list):
        self.ring = ctx.ring
        self.rank = ctx.rank
        self.twists = ctx.twists
        self._ctx = ctx
        self._records = records
        self._divisors = None
        self._vectors = None

    @property
    def _index(self) -> _DivisorIndex:
        """The divisor index, built on the first query; from then on
        _records is its list."""
        if self._divisors is None:
            self._divisors = _DivisorIndex(self._ctx, self._records)
            self._records = self._divisors.records
        return self._divisors

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            index = self._index
            index.records[:] = _interreduce(index, self.ring.p)
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
        lead of a minimal basis divides another. They are packed in the
        basis's layout, PackedMonomials(nvars, last): read in the default
        one they are the leads with the variables permuted, which leaves
        a monomial ideal's Hilbert numerator unchanged.
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
        red = _reduce([(terms, 1, 0)], self._index, self.ring.p)
        return self._ctx.terms_to_vec(red)

    def contains(self, v) -> bool:
        v = self._coerce(v)
        terms = self._ctx.vec_to_terms(v)
        red = _reduce([(terms, 1, 0)], self._index, self.ring.p, full=False)
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
        if as_int(rank, "a rank", 1) > _CMAX:
            raise GhkError(f"rank {rank} out of supported range")
        self.ring = ring
        self.rank = rank
        self.twists = (0,) * rank if twists is None else tuple(as_int(t, "a twist") for t in twists)
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
        last = self.ring.nvars - 1 if last is None else as_int(last, "the last variable")
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


def _preimage(
    U: Submodule, span: Sequence[ModVector], mults: Sequence[Poly], budget: GbBudget | None
) -> Submodule:
    """{v in the span of `span` : g*v in U for every g in mults}, as a
    submodule of U's ambient module F, with its basis installed.

    Internal to intersect (mults = [1]) and colon (span = the unit
    vectors) in idealops. One elimination in F^(k+1), k = len(mults):
    each w in span gives (g_1*w, ..., g_k*w, w), and each u of
    U.spanning() sits alone in each of the first k blocks. An element
    whose first k blocks vanish has last block v = sum a_w*w with
    g_i*v in U for each i, and every such v arises. Block i carries
    U's twists plus top - deg g_i and the last block U's twists plus
    top, top = max deg g_i, so every generator is homogeneous. The
    basis puts the first k blocks above the last: its records whose
    lead is in the last block have every term there and form a
    Groebner basis of the result (Elimination Theorem). The last
    block's twists are U's plus a constant, so inside it the order is
    U's own "top" order: those records, re-keyed for it and still
    minimal and ascending, are the result's basis, for every rank.
    Their tails are reduced on the first read of the result's vectors.
    """
    ring, rank = U.ring, U.rank
    k = len(mults)
    degs = [g.homogeneous_degree() for g in mults]
    top = max(degs)
    zero = (ring.zero,) * rank
    gens = [ModVector(tuple(g * f for g in mults for f in w.components) + w.components) for w in span]
    for i in range(k):
        gens += [ModVector(zero * i + u.components + zero * (k - i)) for u in U.spanning()]
    twists = tuple(e + top - d for d in (*degs, 0) for e in U.twists)
    base = k * rank
    big = _basis(ring, twists, gens, budget, eliminate=base)
    ctx = _Ctx(ring, U.twists)
    # a term of component base + j moves to component j, and its key by
    # one constant for every j: the last block's twists are U's plus
    # top, so each of its components sits top degrees higher than in U
    moved = ctx.term_key(0, 0) - big._ctx.term_key(base, 0)
    records = [
        (key + moved, cp - base, m, tuple((tk + moved, tc) for tk, tc in tail))
        for key, cp, m, tail in big._records
        if cp >= base
    ]
    kept = [ctx.terms_to_vec(_record_terms(rec)) for rec in records]
    result = Submodule(ring, rank, kept, twists=U.twists, relations=U.relations)
    result._gb[ring.nvars - 1] = GroebnerBasis(ctx, records)
    return result


def buchberger(U: Submodule, budget: GbBudget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of U's spanning set (gens + relation columns).

    A cached basis is returned whatever the budget; a budgeted run seeds
    the cache only when it completes, so an aborted one cannot poison it.
    """
    return U.groebner(budget)

