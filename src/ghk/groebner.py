"""Groebner bases for submodules of twisted free modules over F_p[x_1..x_n].

Buchberger's algorithm with the Gebauer-Moller pair filters, run
degree by degree: inputs and S-pairs are taken in order of module
degree, each input before the S-pairs of its degree, ties broken by
index, so every record the engine installs belongs to the minimal
basis it returns. The output is canonical: the reduced basis of a
submodule is unique for a fixed term order, so results are
reproducible across strategies. The engine stops at a minimal basis;
its tails are reduced against the whole basis only when
GroebnerBasis.vectors is first read. Leads, membership and normal
forms are read without that pass, and a Hilbert series needs only the
leads.

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
the leads leave the engine only through lead_terms, as (component,
exponent tuple) pairs in the ring's variable order. The test is only
exact while every exponent stays below EXP_GUARD, so the engine checks
the bound where it can first be broken: vec_to_terms refuses exponents above
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
2-D staircase question, the leads are sorted by the `last` exponent,
then the other one, with a running minimum of the other one: one
bisect and one compare decide whether a lead there divides the term,
and the running minimum names it. The engine adds each lead as it
installs the record, and later inserts recompute the running minimum
from their position on.
Which divisor the query returns is deterministic but otherwise
arbitrary. The records a run installs may depend on it, but the
remainder modulo a Groebner basis is unique whichever divisor each
step uses, so the minimal basis's leads, the reduced basis, normal
forms and every length do not.

Over two variables (u and `last` = l) with no eliminated block, the
engine keeps each vector as one Python int, a row (Kronecker
substitution). A homogeneous vector of module degree D in rank r has
at most r(D + 1) terms, one per slot (component j, exponent a of u),
and slot (j, a) is the field a*r + (t_j - min t)*r + pi(j) of the row,
pi ordering the components by (twist, -index). At a fixed D this field
order is the "top" order, and multiplying by u^alpha l^beta moves every
field up alpha*r places: one shift. An S-pair is two shifted adds of
tails. A reduction step takes the top field of row & reducible[D], the
mask of the slots at degree D that some lead divides (from D to D + 1
it grows by itself shifted one place of u, and each lead installed at
D sets its own slot), asks the same _DivisorIndex.divisor for that
term's key and adds a multiple of the record's tail: one big-int add,
not one heap entry per term. Because the reducer is the one _reduce
would pick, term for term, the records, S-pair counts, zero reductions
and every report stay those of _reduce. Fields are not reduced mod p
at each step: each is wide enough to hold a bounded number of steps
without carrying into its neighbour, and one bulk Barrett pass per
remainder (and one every `steps` steps) brings them back into [0, p).
_Fields owns that arithmetic for both row layouts and proves the
width. Leads leave a row basis as keys like any other; its tails are
unpacked to term tuples once, when the divisor index is first built
(normal forms, membership, vectors), so callers that read leads only
never unpack.

A rank-1 basis in three variables whose ring has exactly one relation
f with a pure-power lead x_o^d in the basis's layout (x_o the first
variable other than `last`, m the other one and l = `last`), and no
generator of degree below d, keeps its rows in R-normal form instead
(_RelationRows): the term x_o^i m^b l^c, i < d, is field
d(i + b) + i, so at a fixed degree field order is term order again,
and multiplying by x_o substitutes -(f - x_o^d) for x_o^d, a few
shifted adds of the top slice. The relation is installed
first, and every other record, seed and remainder carries no term at
or past x_o^d. That is exact: the heap reducer reduces each such term
by f's record as soon as it is on top, and f's substitution only
brings in smaller terms, so the two reducers meet the same top terms
below x_o^d with the same coefficients, ask the divisor index the same
questions and emit the same remainders. Records, S-pair counts and
zero reductions are the heap's. A product by x_o puts at most
(d + 2)(p - 1)^2 into a field before its pass, so this layout's fields
hold d or more steps (at least 8). hk_value's basis of I^[q] + (f) on
a curve with f(1, 0, 0) != 0 is this case. Every other basis in three
or more variables, and every elimination basis, keeps the heap
reducer.

In three variables the index also keeps each component's pure-power
lead x_o^X (x_o the outer variable, x when `last` = z), by which
_reduce reduces every term at or past it without a query, and in an
engine run reducibility masks that climb with the degree as the row
mask does, by which it skips the query for a term no lead divides.
A run installs the same records with masks as without them;
_DivisorIndex gives the argument. Engine calls also get their
remainder monic from _reduce, each term scaled as it is emitted, so
making a record takes no second pass over its tail.

The Gebauer-Moller pair update asks the same index for the new lead's
staircase neighbours instead of taking an lcm with every earlier lead
of its component. The minimal syzygies of a monomial ideal join
neighbouring corners of its staircase, and inside a bucket the lcms
with the new lead differ only in the two staircase fields, so a walk
from the new lead's `last` exponent upward finds a member of every
minimal lcm (_DivisorIndex gives the argument). Of an equal-lcm class
the pair with the member of smallest lead, then smallest position,
is kept; the class is dropped, for an ideal, when some member is
coprime to the new lead, which is when the lcm minus the new lead is a
lead of the component. The chain criterion takes an lcm only for the
live pairs whose lcm the new lead divides. Pairs are kept in a dict for
that criterion and picked from a heap of (degree, i, j) with lazy
deletion, which also holds each input k as (degree, -1, k); a pair key
is never reinserted, so the heap reproduces the degree-then-index order
exactly.
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
    """Element of a free module R^rank; components are Polys of one ring.

    Every entry point, subtraction included, takes its vectors through
    as_vector, which also checks the rank and ring of the ambient module."""

    __slots__ = ("ring", "components")

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        if not comps:
            raise GhkError("a module vector needs at least one component")
        ring = comps[0].ring if isinstance(comps[0], Poly) else None
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

    def __sub__(self, other) -> "ModVector":
        other = as_vector(other, self.ring, self.rank, "a subtrahend")
        return ModVector(tuple(a - b for a, b in zip(self.components, other.components)))

    def poly_mul(self, f: Poly) -> "ModVector":
        return ModVector(tuple(f * a for a in self.components))

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
# caller input: one check for each kind


def as_vector(value, ring: PolyRing, rank: int, what: str) -> ModVector:
    """value as a vector of R^rank over ring: a ModVector, a Poly (rank 1)
    or any other iterable of Polys. Anything else raises GhkError, a
    vector of another rank or ring RingMismatchError."""
    if isinstance(value, Poly):
        value = ModVector((value,))
    elif not isinstance(value, ModVector):
        if not isinstance(value, Iterable):
            raise GhkError(f"{what} must be a ModVector, a Poly or Polys, got {value!r}")
        value = ModVector(value)
    if value.rank != rank:
        raise RingMismatchError(f"{what} has rank {value.rank}, not {rank}")
    if value.ring is not ring and value.ring != ring:
        raise RingMismatchError(f"{what} lives over a different ring")
    return value


def as_relations(values: Iterable, ring: PolyRing) -> tuple:
    """The nonzero values, each a homogeneous Poly over ring: GhkError,
    RingMismatchError or HomogeneityError otherwise."""
    rels = []
    for r in values:
        if not isinstance(r, Poly):
            raise GhkError(f"relations must be Poly, got {r!r}")
        if r.ring != ring:
            raise RingMismatchError(f"relation {r} lives over a different ring")
        if r.is_zero():
            continue
        if not r.is_homogeneous():
            raise HomogeneityError(f"relation {r} is not homogeneous")
        rels.append(r)
    return tuple(rels)


def as_ideal(I, what: str) -> "Submodule":
    """I, if it is an ideal (a rank-1 Submodule); GhkError otherwise."""
    if not isinstance(I, Submodule) or I.rank != 1:
        raise GhkError(f"{what} needs an ideal (rank-1 submodule), got {I!r}")
    return I


def check_same_ring(a, b, what: str) -> None:
    """Refuse (RingMismatchError) two Submodules or RingSpecs whose .ring
    or .relations differ: they live over different quotient rings."""
    if a.ring != b.ring:
        raise RingMismatchError(f"{what} live over different polynomial rings")
    if a.relations != b.relations:
        raise RingMismatchError(f"{what} live over different quotient rings")


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
        "ring", "rank", "twists", "p", "pm", "offs", "term_key", "split", "to_basis", "to_ring",
        "rows",
    )

    def __init__(self, ring: PolyRing, twists: tuple, last: int | None = None, eliminate: int = 0):
        rank = len(twists)
        if rank < 1 or rank > _CMAX:
            raise GhkError(f"rank {rank} out of supported range [1, {_CMAX}]")
        self.ring = ring
        self.rank = rank
        self.twists = twists
        self.p = ring.p
        # the engine reduces in row ints (_Rows) over two variables with no block
        self.rows = ring.nvars == 2 and not eliminate
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
# the pair update and the index, and tail the non-lead terms. A record
# of a row basis (_Rows) is (ltkey, ltcomp, ltmon, tail, scale), tail a
# row int, the element ltkey + scale*tail; _RelationRows appends the
# cache of the tail's x_o-multiples.


class _DivisorIndex:
    """What an engine run knows about its leads: the leads of monic
    basis records indexed for divisor and neighbour queries, each
    component's pure power and, in an engine run, its reducibility
    masks.

    records holds the records in the order added (a list that is never
    rebound, since divisor reads it). comps maps a component to its entry
    [bucket keys, buckets (parallel), X, power, bits]: the buckets below,
    the pure power's exponent and record, and the masks (None where
    there are none). divisor(k) returns a record whose lead divides the
    term of key k (same component, dividing monomial), or None;
    neighbours(comp, mon) names the records whose lcm with mon the pair
    update needs. _reduce reads X, power and bits itself, and asks
    divisor only about the terms they leave open.

    Per component the leads are bucketed on their exponents outside the
    two staircase fields (the top two: `last`, field a, and the variable
    compared right after it, field b), the buckets sorted by key. A
    bucket keeps its leads sorted by (a, b), then by position, with a
    running minimum of b and the position that first attains it.

    Why neighbours finds every minimal lcm. Write a_h, b_h for the two
    staircase exponents of the new lead h. In a bucket every lead has the
    same exponents outside a and b, so lcm(h, g) has the same outer part
    for every g there, and inside the bucket minimality is a 2-D
    staircase question on (max(a, a_h), max(b, b_h)).

    - The leads with a <= a_h all give a_h, and the least of their lcms
      comes from the least b, which the running minimum names. When that
      b is at most b_h, every lead there with b <= b_h gives the
      bucket's least lcm, and the first of them is where the running
      minimum first reaches b_h.
    - The leads with a > a_h are walked in order, keeping each whose
      max(b, b_h) drops strictly below every value seen so far (the
      first part's included), until that value reaches b_h, below which
      none can go.

    A globally minimal lcm is minimal inside every bucket that holds a
    member of it, so each such bucket yields a member: its first one in
    the bucket's (a, b, position) order. The leads of a bucket differ
    only in a and b, so that is the bucket's member with the smallest
    lead, then the smallest position.

    The pure power. In three variables write a monomial as
    x_o^a m^b x_l^c, x_o the outer field (field 0; x when `last` = z)
    and x_l `last`. A lead x_o^X is a pure power, and the entry keeps
    the component's smallest one. It divides every monomial with
    a >= X, so _reduce reduces such a term by it without a query,
    whoever calls _reduce. add records a pure power in three variables
    only. Elsewhere X stays above every exponent and divisor answers
    every term, so over two variables the row reducer, which asks
    divisor directly, picks the reducer the heap reducer picks.

    The masks. Once the engine has called climb(deg), an entry with a
    pure power also holds bits: X ints, one per a < X, whose bit c is
    set when a lead of the component divides the monomial of module
    degree deg with exponents a and c (b is what the degree leaves).
    From D to D + 1 they climb as new[a] = old[a] | old[a] << 1 |
    old[a - 1], since a multiple at D + 1 of a lead below it is a
    variable (m, x_l or x_o) times a multiple at D. add sets the bit of
    each lead installed at the current degree, and a pure power added
    after other leads of its component replays them: lead
    x_o^A m^B x_l^C divides, for each A <= a < X, the bits
    C .. D - a - B, D the component's monomial degree. No lead of a
    minimal basis other than x_o^X reaches a = X, so the bits need no
    row there. A clear bit means that no lead divides the term and
    divisor would return None, so _reduce skips the query, and a run
    installs the records it installs without masks. Most terms then
    cost one compare or one bit test instead of a query: the hk basis of
    the Fermat cubic at q = 361 asks 517 times, against 6,898 with
    neither rule, and 1,959 of its 2,476 reduction steps are by the
    relation's x^3.
    """

    __slots__ = (
        "records", "comps", "divisor", "deg", "_twists", "_outer", "_a", "_b", "_powers",
    )

    def __init__(self, ctx: _Ctx, records: Iterable[tuple] = ()):
        low = ctx.pm.low
        # the top field, the one below it (if any) and all the others
        self._a = low ^ (low >> EXP_BITS)
        self._b = (low >> EXP_BITS) ^ (low >> 2 * EXP_BITS)
        self._outer = low >> 2 * EXP_BITS
        # in three variables the outer part is one field, a pure power's
        self._powers = ctx.ring.nvars == 3
        self._twists = ctx.twists
        self.records: list = []
        self.comps: dict = {}
        self.deg = None  # the module degree of the masks; None before climb

        def divisor(
            k, _get=self.comps.get, _g=ctx.pm.guard, _o=self._outer, _a=self._a,
            _b=self._b, _records=self.records, _cb=COMP_BITS, _cm=_CMAX, _low=low,
        ):
            comp = _get(_cm - (k & _cm))
            if comp is None:
                return None
            mon = _low - ((k >> _cb) & _low)  # as _Ctx.split
            outer = mon & _o
            og = outer | _g
            ab = (mon & _a) | _b  # no smaller than the (a, b) of a lead with a <= mon's
            b = mon & _b
            for key, abvals, best, _ in comp[1]:
                if (og - key) & _g == _g:
                    i = bisect_right(abvals, ab)
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
        """Index the lead of rec; in an engine run, at the degree the
        masks were last climbed to (the engine installs nowhere else)."""
        pos = len(self.records)
        self.records.append(rec)
        cp, mon = rec[1], rec[2]
        entry = self.comps.get(cp)
        if entry is None:
            entry = self.comps[cp] = [[], [], _FMAX + 1, None, None]
        if self._powers and mon <= _FMAX and mon < entry[2]:
            entry[2], entry[3] = mon, rec
            if self.deg is not None:
                entry[4] = bits = [0] * mon
                D = self.deg - self._twists[cp]
                # the earlier leads of cp, through its buckets
                for m in (self.records[i][2] for *_, items in entry[1] for _, i in items):
                    A, B, C = m & _FMAX, (m >> EXP_BITS) & _FMAX, m >> 2 * EXP_BITS
                    for a in range(A, mon):
                        if D - a - B >= C:
                            bits[a] |= (1 << (D - a - B + 1)) - (1 << C)
        elif entry[4] is not None:
            # a lead below X: a minimal basis has no other
            entry[4][mon & _FMAX] |= 1 << (mon >> 2 * EXP_BITS)
        keys, buckets = entry[0], entry[1]
        key = mon & self._outer
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            keys.insert(i, key)
            buckets.insert(i, (key, [], [], []))
        _, abvals, best, items = buckets[i]
        ab = mon & (self._a | self._b)
        j = bisect_right(abvals, ab)
        abvals.insert(j, ab)
        items.insert(j, (mon & self._b, pos))
        # the running minimum changes from the insertion point on
        cur = best[j - 1] if j else items[j]
        tail = []
        for item in items[j:]:
            if item[0] < cur[0]:
                cur = item
            tail.append(cur)
        best[j:] = tail

    def climb(self, deg: int) -> None:
        """Move the masks up to module degree deg, no lower than any
        degree asked before. The first call starts them: a pure power
        added from then on gets its bits. Outside three variables no
        entry has one, so every heap run of the engine calls climb and
        only three-variable runs build masks."""
        if self.deg is not None:
            for _ in range(deg - self.deg):
                for entry in self.comps.values():
                    bits = entry[4]
                    if bits:
                        # descending, so bits[a - 1] is still the old one
                        for a in range(len(bits) - 1, -1, -1):
                            bits[a] |= bits[a] << 1 | (bits[a - 1] if a else 0)
        self.deg = deg

    def neighbours(self, comp: int, mon: int) -> list:
        """Positions of the records of component comp whose lcms with mon
        include, for every minimal lcm, its member with the smallest
        lead, then the smallest position (the class argument above).
        Some of the lcms may be non-minimal; the caller filters them."""
        entry = self.comps.get(comp)
        if entry is None:
            return []
        ab = (mon & self._a) | self._b
        b = mon & self._b
        near = []
        for _, abvals, best, items in entry[1]:
            i = bisect_right(abvals, ab)
            if i:
                low, pos = best[i - 1]
                if low <= b:
                    # the least lcm (a_h, b_h): its smallest member is the
                    # first lead with b <= b_h, where the minimum first gets there
                    near.append(best[bisect_left(best, -b, 0, i, key=_negated_b)][1])
                    continue
                near.append(pos)
                cur = low
            else:
                cur = self._b + 1  # above every b
            for bb, pos in items[i:]:
                if bb < cur:
                    near.append(pos)
                    if bb <= b:
                        break
                    cur = bb
        return near


def _negated_b(item: tuple) -> int:
    return -item[0]


def _reduce(seeds, index: _DivisorIndex, p, full=True, monic=False):
    """Reduce a seeded combination modulo monic basis records.

    seeds: iterable of (terms, mult, delta) contributions; each term
    (k, c) enters as key k+delta with coefficient c*mult. Adding delta
    to a key multiplies its monomial by the one delta stands for, so the
    key is all the reducer moves. A term of a component with no lead is
    irreducible, a term at or past the component's pure power is
    reduced by its record, and a term below it whose mask bit is clear
    is irreducible (_DivisorIndex gives both rules); every other term
    is reduced by the record that index.divisor returns for its key.

    With full=True returns the complete normal form (terms descending).
    With full=False stops at the first irreducible term, which is enough
    for membership tests. With monic=True (engine calls) the remainder
    comes out monic: the first irreducible term fixes 1/c, and every
    later one is scaled by it as it is emitted.
    """
    divisor, get = index.divisor, index.comps.get
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
    cb, cm, fm, cs = COMP_BITS, _CMAX, _FMAX, 2 * EXP_BITS
    out = []
    scale = 0  # 1/c of the lead, once a monic remainder has one
    while heap:
        k = -heappop(heap)
        c = acc.pop(k) % p
        if c == 0:
            continue
        entry = get(cm - (k & cm))
        if entry is None:
            red = None  # the component has no lead
        else:
            kk = k >> cb  # the key's low fields hold FMAX minus each exponent
            a = fm - (kk & fm)
            if a >= entry[2]:
                red = entry[3]  # at or past x_o^X, which divides the term
            else:
                bits = entry[4]
                if bits is None or (bits[a] >> (fm - ((kk >> cs) & fm))) & 1:
                    red = divisor(k)
                else:
                    red = None
        if red is None:
            if scale:
                c = c * scale % p
            elif monic:
                scale, c = pow(c, -1, p), 1
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


class _Fields:
    """Packed F_p coefficients, one per field of a row int: the arithmetic
    that both row layouts (_Rows, _RelationRows) share. Field f is bits
    f*width up; which term it holds is the layout's business.

    normal(row) is the bulk Barrett pass, exact on every field up to
    bound = (steps + 2)(p - 1)^2, top(row) reads the top nonzero field,
    and pack_fields/row_fields convert (field, coefficient) pairs
    through hex text, width being a multiple of 4.

    Why no field carries. Every operation keeps every field a
    non-negative int, and a layout adds at most steps + 2 products of
    two values in [0, p) to a field between two passes: an S-pair adds
    two rows below p times multipliers in [1, p - 1], and each
    reduction step one more. So no field exceeds bound. Adding rows adds
    field by field, and clearing a field subtracts exactly its value.
    The pass takes q = floor(v*M / 2^S) in every field at once, with
    2^S > bound*(p - 1) and M = ceil(2^S / p): writing v = q'p + rho,
    v*M/2^S = q' + rho/p + v*e/(p*2^S) with e = M*p - 2^S < p, and
    rho/p + v*e/(p*2^S) < (p - 1)/p + 1/p = 1, so q = q' = floor(v/p)
    (the Granlund-Montgomery bound). width is chosen so that bound*M <
    2^width: the product row*M is then the packed product of each field
    with M, carrying nowhere; shifting it right by S and keeping the low
    width - S bits of each field leaves exactly q, since the bits of the
    field above land at width - S and higher; and subtracting q*p <= v
    borrows nowhere. width is the least multiple of 4 that `least`
    steps need, and steps the most that width holds.
    """

    __slots__ = ("p", "width", "field", "steps", "bound", "shift", "mul", "_qmask", "_qbits")

    def __init__(self, p: int, least: int = 8):
        width, steps = 0, least
        while True:
            bound = (steps + 2) * (p - 1) ** 2
            shift = (bound * (p - 1)).bit_length()
            mul = -(-(1 << shift) // p)
            need = (bound * mul).bit_length()
            if width and need > width:
                break
            width = width or -(-need // 4) * 4
            best = (steps, bound, shift, mul)
            steps += 1
        self.p, self.width, self.field = p, width, (1 << width) - 1
        self.steps, self.bound, self.shift, self.mul = best
        self._qmask = self._qbits = 0

    def normal(self, row: int) -> int:
        """The row with every field reduced into [0, p): one bulk pass."""
        if row.bit_length() > self._qbits:
            w = self.width
            n = 2 * -(-row.bit_length() // w)
            self._qbits = n * w
            self._qmask = ((1 << n * w) - 1) // self.field * ((1 << (w - self.shift)) - 1)
        return row - (((row * self.mul) >> self.shift) & self._qmask) * self.p

    def top(self, row: int) -> tuple:
        """(field, value) of the top nonzero field of a nonzero row."""
        f = (row.bit_length() - 1) // self.width
        return f, row >> f * self.width

    def pack_fields(self, fields: Iterable[tuple]) -> int:
        """The row of (field, coefficient in [0, p)) pairs, fields descending."""
        h = self.width // 4
        digits = f"0{h}x"
        parts = []
        above = None
        for f, c in fields:
            if above is not None:
                parts.append("0" * (h * (above - f - 1)))
            parts.append(format(c, digits))
            above = f
        if above is None:
            return 0
        parts.append("0" * (h * above))
        return int("".join(parts), 16)

    def row_fields(self, row: int) -> list:
        """The (field, value) pairs of a row's nonzero fields, descending.
        The hex text is read in blocks of 32 fields: a block of zeros is
        skipped by one compare, and the others are walked from their top
        nonzero field, so the zero fields of a sparse row cost no Python
        step."""
        w = self.width
        h = w // 4
        text = format(row, "x")
        size = -(-len(text) // h) * h
        text = text.rjust(size, "0")
        run = 32 * h
        zeros = "0" * run
        out = []
        for start in range(0, size, run):
            if text.startswith(zeros, start):
                continue
            end = min(start + run, size)
            block, low = int(text[start:end], 16), (size - end) // h
            while block:
                f = (block.bit_length() - 1) // w
                c = block >> f * w
                block -= c << f * w
                out.append((low + f, c))
        return out


class _Rows(_Fields):
    """Row ints of one engine run over two variables (module docstring).

    Slot (j, a), the term u^a l^b of component j, is field
    a*rank + base[j], base[j] = (t_j - min t)*rank + pi(j), pi ordering
    the components by (twist, -index). A row holds the coefficients of
    one homogeneous vector of known module degree D, and field order is
    term order at every D. key(D, f) = D*kd + (f // rank)*ka +
    kc[f % rank] is the term key of field f. reducible(D) masks the
    slots that some lead added so far divides, all bits of each such
    field set, for D no lower than any degree asked before: the engine
    reduces degree by degree and adds each lead at the degree it
    reduced. A record is (key, component, monomial, tail, scale): the
    monic element is the lead plus scale times the row int tail, whose
    fields lie in [0, p), so installing a remainder takes no second
    pass to make it monic. Multiplying by u^alpha l^beta moves a row up
    alpha*rank fields, so seed and _reduce_rows only shift tails.
    """

    __slots__ = ("rank", "twists", "stride", "order", "base", "kd", "ka", "kc", "deg", "mask")

    def __init__(self, ctx: _Ctx):
        super().__init__(ctx.p)
        r, twists = ctx.rank, ctx.twists
        self.rank, self.twists = r, twists
        self.order = order = sorted(range(r), key=lambda j: (twists[j], -j))
        low = min(twists)
        base = [0] * r
        for pi, j in enumerate(order):
            base[j] = (twists[j] - low) * r + pi
        self.base = tuple(base)
        # mon 1 of component j is the slot a = 0, field base[j], at module degree t_j
        key = ctx.term_key
        l = 1 << EXP_BITS  # the last variable, top field of the packed monomial
        self.kd = key(0, l) - key(0, 0)
        self.ka = key(0, 1) - key(0, l)
        self.kc = tuple(
            key(j, 0) - twists[j] * self.kd - (twists[j] - low) * self.ka for j in order
        )
        self.stride = r * self.width
        self.deg = None  # the module degree that mask is for
        self.mask = 0

    def record(self, row: int, deg: int) -> tuple:
        """The record of a nonzero remainder of module degree deg: its
        top field is the lead, c times the lead's term, and the record
        keeps the tail with scale 1/c mod p."""
        f, c = self.top(row)
        g, pi = divmod(f, self.rank)
        cp = self.order[pi]
        a = g - (self.base[cp] - pi) // self.rank  # the slot's exponent of u
        mon = ((deg - self.twists[cp] - a) << EXP_BITS) | a
        key = deg * self.kd + g * self.ka + self.kc[pi]
        return (key, cp, mon, row - (c << f * self.width), pow(c, -1, self.p))

    def add_lead(self, rec: tuple) -> None:
        """Register the lead of a record installed at the current degree
        (the engine installs nowhere else): its own slot."""
        f = (rec[2] & _FMAX) * self.rank + self.base[rec[1]]
        self.mask |= self.field << f * self.width

    def reducible(self, deg: int) -> int:
        """The fields of slots at module degree deg that a lead divides.

        A lead u^A l^B of degree D0 divides the slots a = A .. A + D - D0
        of its component at degree D, so from D to D + 1 the mask grows
        by itself shifted one exponent of u (stride bits), and add_lead
        sets the slot of each lead installed at D. The engine asks for
        degrees in ascending order, so the mask only grows; the first
        call starts from the empty mask, before any lead."""
        if self.deg is not None:
            m, stride = self.mask, self.stride
            for _ in range(deg - self.deg):
                m |= m << stride
            self.mask = m
        self.deg = deg
        return self.mask

    def seed(self, rec: tuple, tau: int, mult: int) -> tuple:
        """rec's tail times tau over its lead, as a _reduce_rows seed."""
        return rec[3], mult, ((tau & _FMAX) - (rec[2] & _FMAX)) * self.stride

    def pack(self, terms: tuple) -> int:
        """The row of terms (key, coefficient in [0, p)) from _Ctx, keys
        descending, so their fields descend too."""
        r, base = self.rank, self.base
        # the key's low field is _FMAX - a
        return self.pack_fields(
            ((_FMAX - ((k >> COMP_BITS) & _FMAX)) * r + base[_CMAX - (k & _CMAX)], c)
            for k, c in terms
        )

    def unpack(self, rec: tuple) -> tuple:
        """The monic record of a row-mode record, its tail as terms."""
        k, cp, m, tail, scale = rec
        p, r, ka, kc = self.p, self.rank, self.ka, self.kc
        kd = ((m >> EXP_BITS) + (m & _FMAX) + self.twists[cp]) * self.kd
        out = []
        for f, c in self.row_fields(tail):
            g, pi = divmod(f, r)
            out.append((kd + g * ka + kc[pi], c * scale % p))
        return (k, cp, m, tuple(out))


class _RelationRows(_Fields):
    """Row ints of one rank-1 engine run in three variables whose ring
    has one relation f with a pure-power lead x_o^d (module docstring).

    Write a monomial x_o^i m^b l^c, x_o the outer field and l `last`.
    Every record but f's is an R-normal form: no term has i >= d, since
    each is reduced by f as it arises. The term x_o^i m^b l^c, i < d, of
    a row of known degree D = i + b + c is field d(i + b) + i, so field
    order is term order at every D. Multiplying by l leaves the fields
    in place and multiplying by m moves them up d. Multiplying by x_o
    (times_x) moves the slices i < d - 1 up d + 1 and replaces the
    slice i = d - 1 by f's substitution: x_o^d m^b l^c = -(f - x_o^d)
    m^b l^c, so f's tail term phi x_o^k m^beta l^gamma takes that
    slice's field d(d - 1 + b) + d - 1 to d(k + b + beta) + k,
    (d + 1)(k - d + 1) + d*beta fields up (a negative count moves it
    down; the target field is never below 0). Such a product is reduced
    mod p before it is used: a target field gets its shifted field and
    f's d - k + 1 or fewer terms with x_o^k, each times a field below p,
    so at most (d + 2)(p - 1)^2, inside the pass's bound when steps >= d
    (_Fields), and the layout asks for that many.

    A record is (key, component 0, monomial, tail, scale, multiples),
    the monic element the lead plus scale times the tail row, and
    multiples the cache of multiple(), x_o^alpha times the tail reduced
    mod f, which seed and _reduce_rows ask for. power is f's record:
    its lead x_o^d has no field, and it is installed before any other
    input (serving admits no input of degree below d), so the heap
    reducer would reduce every term at or past x_o^d by it too.
    reducible(D) masks the fields that a lead divides: from D to D + 1
    they climb as m | m << d | (m & slices below d - 1) << d + 1
    fields, the three variables' moves, and add_lead sets each new
    lead's field. No lead but f's reaches i = d.
    """

    __slots__ = (
        "d", "twist", "kd", "ka", "kc", "dw", "power", "subst", "_power_index",
        "deg", "mask", "_lower", "_top", "_sbits",
    )

    @classmethod
    def serving(cls, ctx: _Ctx, gens: list, relations: list):
        """The layout of an engine run on gens and relations (term tuples
        from ctx), or None where it does not serve: it needs three
        variables, rank 1, one relation whose lead is a pure power x_o^d
        in the basis's layout, and no input of degree below d."""
        if ctx.ring.nvars != 3 or ctx.rank != 1 or len(relations) != 1:
            return None
        d = ctx.split(relations[0][0][0])[1]  # the lead's monomial
        if not 0 < d <= _FMAX:  # no pure power of x_o
            return None
        degree = ctx.pm.degree
        if any(terms and degree(ctx.split(terms[0][0])[1]) < d for terms in gens):
            return None
        return cls(ctx, relations[0])

    def __init__(self, ctx: _Ctx, relation: tuple):
        (lead, c), tail = relation[0], relation[1:]
        d = ctx.split(lead)[1]
        super().__init__(ctx.p, max(8, d))
        p, w = self.p, self.width
        self.d, self.twist, self.dw = d, ctx.twists[0], d * w
        # key(D, f) = D*kd + (f // d)*ka + kc[f % d] at module degree D, as
        # over _Rows: field d*j + i is x_o^i m^(j - i) l^(D - t - j)
        key, M, L = ctx.term_key, 1 << EXP_BITS, 1 << 2 * EXP_BITS
        self.kd = key(0, L) - key(0, 0)
        self.ka = key(0, M) - key(0, L)
        ki = key(0, 1) - key(0, M)
        self.kc = tuple(key(0, 0) - self.twist * self.kd + i * ki for i in range(d))
        scale = pow(c, -1, p)
        self.power = (lead, 0, d, self.pack_fields((self._field(k), c) for k, c in tail), scale, {})
        subst = []
        for k, c in tail:
            i = _FMAX - ((k >> COMP_BITS) & _FMAX)
            beta = _FMAX - ((k >> COMP_BITS + EXP_BITS) & _FMAX)
            subst.append((((d + 1) * (i - d + 1) + d * beta) * w, -c * scale % p))
        self.subst = tuple(subst)
        monic = tuple((k, c * scale % p) for k, c in tail)
        self._power_index = _DivisorIndex(ctx, [(lead, 0, d, monic)])
        self.deg = None  # the module degree that mask is for
        self.mask = 0
        self._lower = self._top = self._sbits = 0

    def _field(self, k: int) -> int:
        """The field of the term of key k (i < d): the key's low fields
        hold _FMAX minus each exponent."""
        i = _FMAX - ((k >> COMP_BITS) & _FMAX)
        b = _FMAX - ((k >> COMP_BITS + EXP_BITS) & _FMAX)
        return self.d * (i + b) + i

    def _slices(self, nbits: int) -> tuple:
        """(lower, top): all bits of the fields with i < d - 1 and of the
        fields with i = d - 1, over at least nbits bits."""
        if nbits > self._sbits:
            dw = self.dw
            n = 2 * -(-nbits // dw)
            ones = ((1 << n * dw) - 1) // ((1 << dw) - 1)  # bit 0 of each run of d fields
            self._top = ones * (self.field << (self.d - 1) * self.width)
            self._lower = (ones << dw) - ones - self._top
            self._sbits = n * dw
        return self._lower, self._top

    def times_x(self, row: int) -> int:
        """x_o times an R-normal row, in R-normal form, every field in [0, p)."""
        top = row & self._slices(row.bit_length())[1]
        out = (row - top) << self.dw + self.width
        for sh, c in self.subst:
            out += c * top << sh if sh >= 0 else c * top >> -sh
        return self.normal(out)

    def multiple(self, rec: tuple, alpha: int) -> int:
        """x_o^alpha times rec's tail, reduced mod f.

        rec's cache maps alpha to the multiple from the second time it is
        asked for, and to None after the first: most are asked for once
        (631 of the 689 of the Fermat hk basis at q = 2401), and a kept
        row is as long as its degree. The product starts from the
        highest multiple kept below alpha."""
        if not alpha:
            return rec[3]
        cache = rec[5]
        row = cache.get(alpha)
        if row is not None:
            return row
        start, row = 0, rec[3]
        for a in range(alpha - 1, 0, -1):
            if cache.get(a) is not None:
                start, row = a, cache[a]
                break
        for _ in range(alpha - start):
            row = self.times_x(row)
        cache[alpha] = row if alpha in cache else None
        return row

    def record(self, row: int, deg: int) -> tuple:
        """The record of a nonzero remainder of module degree deg, as
        _Rows.record makes it."""
        f, c = self.top(row)
        j, i = divmod(f, self.d)
        mon = i | (j - i) << EXP_BITS | (deg - self.twist - j) << 2 * EXP_BITS
        key = deg * self.kd + j * self.ka + self.kc[i]
        return (key, 0, mon, row - (c << f * self.width), pow(c, -1, self.p), {})

    def add_lead(self, rec: tuple) -> None:
        """Register the lead of a record installed at the current degree:
        its own field."""
        m = rec[2]
        i = m & _FMAX
        self.mask |= self.field << (self.d * (i + ((m >> EXP_BITS) & _FMAX)) + i) * self.width

    def reducible(self, deg: int) -> int:
        """The fields at module degree deg that a lead divides, as
        _Rows.reducible gives them.

        k degrees up, the mask m is the union over alpha <= min(k, d - 1)
        of x_o^alpha m (the slices below d - alpha moved up alpha(d + 1)
        fields, one slice at a time) times every m^beta with beta <=
        k - alpha (l moves nothing): one step is m | m << d |
        (m & slices below d - 1) << d + 1 fields, and the shifts by beta
        are taken by doubling, so a long climb costs a few big-int
        operations per alpha."""
        if self.deg is not None and deg > self.deg:
            k, m, dw, w = deg - self.deg, self.mask, self.dw, self.width
            lower = self._slices(m.bit_length() + k * (dw + w))[0]
            climbed = 0
            for alpha in range(min(k, self.d - 1) + 1):
                if alpha:
                    m = (m & lower) << dw + w
                part, done = m, 0  # part holds m^beta times m for beta <= done
                while done < k - alpha:
                    step = min(done + 1, k - alpha - done)
                    part |= part << step * dw
                    done += step
                climbed |= part
            self.mask = climbed
        self.deg = deg
        return self.mask

    def seed(self, rec: tuple, tau: int, mult: int) -> tuple:
        """rec's tail times tau over its lead, reduced mod f, as a
        _reduce_rows seed: x_o^alpha from the cache, then m^beta a shift.
        A pair with f has tau's x_o^d, so f's alpha is 0 and the other
        record's is d - i, its lead in slice i."""
        m = rec[2]
        alpha = (tau & _FMAX) - (m & _FMAX)
        beta = ((tau >> EXP_BITS) & _FMAX) - ((m >> EXP_BITS) & _FMAX)
        return self.multiple(rec, alpha), mult, beta * self.dw

    def pack(self, terms: tuple) -> int:
        """The row of an input's terms (key, coefficient in [0, p)) from
        _Ctx, keys descending, in R-normal form: an input with a term at
        or past x_o^d is first reduced by f alone."""
        d = self.d
        if any(_FMAX - ((k >> COMP_BITS) & _FMAX) >= d for k, _ in terms):
            terms = _reduce([(terms, 1, 0)], self._power_index, self.p)
        return self.pack_fields((self._field(k), c) for k, c in terms)

    def unpack(self, rec: tuple) -> tuple:
        """The monic record of a row-mode record, its tail as terms."""
        k, cp, m, tail, scale = rec[:5]
        p, d, ka, kc = self.p, self.d, self.ka, self.kc
        kd = ((m & _FMAX) + ((m >> EXP_BITS) & _FMAX) + (m >> 2 * EXP_BITS) + self.twist) * self.kd
        out = []
        for f, c in self.row_fields(tail):
            j, i = divmod(f, d)
            out.append((kd + j * ka + kc[i], c * scale % p))
        return (k, cp, m, tuple(out))


def _reduce_rows(seeds, index: _DivisorIndex, rows: _Fields, deg: int) -> int:
    """_reduce on row ints: the remainder of a seeded combination of
    module degree deg, every field in [0, p) (0 when it is zero).

    seeds: (row, mult, shift) contributions, each entering as
    (row*mult) << shift. Each step takes the top field of row &
    rows.reducible(deg), the term that _reduce would reduce next,
    reduces it by the record index.divisor returns for its key, the one
    _reduce would use, and adds a multiple of that record's tail moved
    up to it: one big-int add. The remainder, its lead and the records
    installed are therefore _reduce's. Both layouts give field f the
    key deg*kd + (f // r)*ka + kc[f % r], r the rank over _Rows and d
    over _RelationRows. Over _Rows the tail moves by one shift; over
    _RelationRows the term is x_o^i m^b, the record's x_o^alpha
    multiple comes from rows.multiple, and m^beta is a shift of beta*d
    fields.
    """
    row = 0
    for tail, mult, shift in seeds:
        row += (tail * mult) << shift
    red = rows.reducible(deg)
    x = row & red
    if x:
        p, w, divisor = rows.p, rows.width, index.divisor
        kd, ka, kc = deg * rows.kd, rows.ka, rows.kc
        if isinstance(rows, _RelationRows):
            r, multiple, dw = rows.d, rows.multiple, rows.dw
        else:
            r, multiple, base = rows.rank, None, rows.base
        left = rows.steps
        while x:
            f = (x.bit_length() - 1) // w
            sh = f * w
            v = x >> sh
            row -= v << sh
            c = v % p
            if c:
                g, pi = divmod(f, r)
                rec = divisor(kd + g * ka + kc[pi])
                m = rec[2]
                if multiple is None:
                    tail, up = rec[3], sh - ((m & _FMAX) * r + base[rec[1]]) * w
                else:
                    tail = multiple(rec, pi - (m & _FMAX))
                    up = (g - pi - ((m >> EXP_BITS) & _FMAX)) * dw
                row += ((p - c) * rec[4] % p * tail) << up
                left -= 1
                if not left:
                    row = rows.normal(row)
                    left = rows.steps
            x = row & red
    return rows.normal(row)


def _monic_record(ctx: _Ctx, terms: tuple) -> tuple:
    """The record of a monic remainder: (lead key, component, lead
    monomial, tail terms)."""
    k = terms[0][0]
    return (k, *ctx.split(k), terms[1:])


def _record_terms(rec: tuple) -> tuple:
    return ((rec[0], 1),) + rec[3]


# ---------------------------------------------------------------------------
# Buchberger driver with Gebauer-Moller pair filters


def _update_pairs(
    index: _DivisorIndex,
    P: dict,
    heap: list,
    hc: int,
    hm: int,
    twists: tuple,
    rank: int,
    pm: PackedMonomials,
) -> None:
    """Install the pairs (i, t) of a new lead hm of component hc, t the
    position its record takes when it is added to index next; apply the
    lcm, duplicate, product and chain filters.

    The peers are read through index.neighbours(hc, hm), which walks
    each bucket's staircase from hm's `last` exponent upward and keeps
    the leads whose lcm with hm drops. A globally minimal lcm is minimal
    in every bucket that holds a member of it, so the neighbours hold,
    for each minimal lcm, its member with the smallest lead and then the
    smallest i (_DivisorIndex states the argument). One lcm per
    neighbour and PackedMonomials.minimal over the distinct ones give
    every minimal lcm with that representative; no other peer is read.
    P maps a live pair (i, j) to its packed lcm; heap gets (degree, i, j)
    for each new pair. The chain criterion takes lcm(hm, g) only for the
    live pairs whose lcm hm divides.
    """
    G = index.records
    t = len(G)
    guard = pm.guard
    lcm_of = pm.lcm
    rep: dict = {}  # distinct lcm -> (lead, i) of its smallest neighbour
    for i in index.neighbours(hc, hm):
        gm = G[i][2]
        lcm = lcm_of(hm, gm)
        old = rep.get(lcm)
        if old is None or (gm, i) < old:
            rep[lcm] = (gm, i)
    for lcm in pm.minimal(sorted(rep)):
        # coprime-lead criterion, sound only for ideals: if any member of
        # an equal-lcm class has lcm == product, the whole class reduces
        # to zero. That member's lead g = lcm - hm agrees with lcm off
        # hm's support, so it divides every member's lead: it is the
        # class's smallest member, which the neighbours always include.
        if rank == 1 and rep[lcm][0] == lcm - hm:
            continue
        i = rep[lcm][1]
        P[(i, t)] = lcm
        heappush(heap, (pm.degree(lcm) + twists[hc], i, t))
    # chain criterion against existing pairs
    dead = []
    for ij, lij in P.items():
        if ((lij | guard) - hm) & guard != guard:
            continue
        i, j = ij
        if (
            j != t
            and G[i][1] == hc
            and lcm_of(hm, G[i][2]) != lij
            and lcm_of(hm, G[j][2]) != lij
        ):
            dead.append(ij)
    for ij in dead:
        del P[ij]


def _engine(
    vec_terms: list, ctx: _Ctx, budget: GbBudget | None, relations: list | tuple = ()
) -> tuple:
    """Run Buchberger to completion; return a minimal basis, ascending,
    and the row layout its tails are packed in (None for term tuples).

    vec_terms are the generators' terms and relations the relation
    columns', which follow them as inputs. The run reduces in _Rows
    over two variables with no eliminated block, in _RelationRows where
    that layout serves (its relation is then installed before any
    input), and in the heap reducer elsewhere.

    One heap orders the work by module degree: each nonzero input is
    (degree, -1, k), k its place in vec_terms, so it is reduced at its
    own degree before that degree's S-pairs, and the inputs of a degree
    in input order. Every record installed is final. Its lead is
    irreducible by every earlier lead, and no later lead divides it:
    a later lead has no smaller module degree, while a divisor in the
    same component has no larger one, and at equal degree it would be
    the lead itself. So the records are a minimal basis as installed.
    They are monic: _reduce returns heap remainders monic, and row
    records keep their scale. Each tail was reduced against the basis
    as it stood when its record was installed, so a later element may
    still divide a tail term; _interreduce makes the basis reduced.
    """
    p = ctx.p
    pm = ctx.pm
    twists, rank = ctx.twists, ctx.rank
    max_degree = budget.max_degree if budget else None
    max_pairs = budget.max_pairs if budget else None
    index = _DivisorIndex(ctx)
    G = index.records
    P: dict = {}
    heap: list = []
    rows = _Rows(ctx) if ctx.rows else _RelationRows.serving(ctx, vec_terms, relations)
    if isinstance(rows, _RelationRows):
        index.add(rows.power)
    else:
        vec_terms = [*vec_terms, *relations]
    for k, terms in enumerate(vec_terms):
        if terms:
            cp, mon = ctx.split(terms[0][0])
            heappush(heap, (pm.degree(mon) + twists[cp], -1, k))

    pairs_done = 0
    while heap:
        deg, i, j = heappop(heap)
        if i < 0:
            terms = vec_terms[j]
            seeds = [(rows.pack(terms) if rows else terms, 1, 0)]
        else:
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
            if rows:
                seeds = [rows.seed(gi, tau, gi[4]), rows.seed(gj, tau, p - gj[4])]
            else:
                ktau = ctx.term_key(gi[1], tau)
                seeds = [(gi[3], 1, ktau - gi[0]), (gj[3], p - 1, ktau - gj[0])]
        if rows:
            red = _reduce_rows(seeds, index, rows, deg)
            rec = rows.record(red, deg) if red else None
        else:
            index.climb(deg)
            red = _reduce(seeds, index, p, monic=True)
            rec = _monic_record(ctx, red) if red else None
        if rec:
            _update_pairs(index, P, heap, rec[1], rec[2], twists, rank, pm)
            index.add(rec)
            if rows:
                rows.add_lead(rec)

    return sorted(G, key=lambda rec: rec[0]), rows


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

    __slots__ = ("ring", "rank", "twists", "_vectors", "_records", "_divisors", "_ctx", "_rows")

    def __init__(self, ctx: _Ctx, records: list, rows: _Fields | None = None):
        self.ring = ctx.ring
        self.rank = ctx.rank
        self.twists = ctx.twists
        self._ctx = ctx
        self._records = records
        self._rows = rows
        self._divisors = None
        self._vectors = None

    @property
    def _index(self) -> _DivisorIndex:
        """The divisor index, built on the first query; from then on
        _records is its list, with row-int tails unpacked to terms."""
        if self._divisors is None:
            if self._rows is not None:
                # monic records, their tails unpacked to terms
                self._records = [self._rows.unpack(rec) for rec in self._records]
                self._rows = None
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
        """(component, exponent tuple) of each element's lead, ascending
        order, the exponents in the ring's variable order whatever the
        basis's `last`. They are the minimal generators of the lead
        module: no lead of a minimal basis divides another."""
        unpack = self._ctx.pm.unpack
        return tuple((rec[1], unpack(rec[2])) for rec in self._records)

    def normal_form(self, v) -> ModVector:
        """The unique reduced remainder of v modulo the submodule."""
        v = as_vector(v, self.ring, self.rank, "a vector")
        terms = self._ctx.vec_to_terms(v)
        red = _reduce([(terms, 1, 0)], self._index, self.ring.p)
        return self._ctx.terms_to_vec(red)

    def contains(self, v) -> bool:
        v = as_vector(v, self.ring, self.rank, "a vector")
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
    R and is what bracket-power style operations transform. Relations
    pass as_relations, generators as_vector and then a homogeneity check,
    and _check_ambient (check_same_ring, rank, twists) refuses a
    submodule of another ambient module.
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

        self.relations = as_relations(relations, ring)
        vecs = []
        for g in gens:
            v = as_vector(g, ring, rank, "a generator")
            if v.is_zero():
                continue
            if not v.is_homogeneous(self.twists):
                raise HomogeneityError(
                    f"generator {v} is not homogeneous for twists {self.twists}"
                )
            vecs.append(v)
        self.gens = tuple(vecs)
        self._gb: dict = {}  # last variable -> basis

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
            gb = _basis(
                self.ring, self.twists, self.gens, budget, last, relations=self.relation_columns()
            )
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
        check_same_ring(self, other, "submodules")
        if other.rank != self.rank or other.twists != self.twists:
            raise RingMismatchError("submodules live in different ambient modules")

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
    relations: Iterable = (),
) -> GroebnerBasis:
    """Basis of the span of vectors and the relation columns in
    F = sum_j R(-twists[j]), in "top" grevlex with variable `last`
    compared last and the first `eliminate` components as a block above
    the rest."""
    ctx = _Ctx(ring, twists, last, eliminate)
    to_terms = ctx.vec_to_terms
    return GroebnerBasis(
        ctx,
        *_engine([to_terms(v) for v in vectors], ctx, budget, [to_terms(v) for v in relations]),
    )


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

