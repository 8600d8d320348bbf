"""Groebner engine tests: hand-checked bases, oracle cross-checks, budgets."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghk.groebner as groebner
from ghk.arith import EXP_BITS, EXP_CAP, PolyRing
from ghk.errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisError,
    HomogeneityError,
    RingMismatchError,
)
from ghk.frobmod import bracket_power, ghk_value, hk_value, presentation_of_quotient
from ghk.groebner import (
    GbBudget,
    GroebnerBasis,
    ModVector,
    Submodule,
    buchberger,
    _basis,
    _update_pairs,
)
from ghk.idealops import (
    RingSpec,
    _lead_series,
    certify_saturation,
    colength_difference,
    colon,
    hilbert_series,
    intersect,
)

from naive_modules import naive_member
from naive_poly import monomials_of_degree, ref_order_tuple


def to_dict(v: ModVector) -> dict:
    return {(j, m): c for j, f in enumerate(v.components) for m, c in f.terms()}


def spanning_dicts(U: Submodule) -> list:
    return [to_dict(v) for v in U.spanning()]


def random_homog_poly(ring, rng, deg, maxterms=4):
    mons = monomials_of_degree(ring.nvars, deg)
    pairs = [(rng.choice(mons), rng.randrange(1, ring.p)) for _ in range(rng.randrange(1, maxterms + 1))]
    return ring.from_pairs(pairs)


# ---------------------------------------------------------------------------
# hand-checked bases


def test_hand_ideal_basis():
    # (x^2 + y^2, x*y) over F_7: the S-pair gives y^3, then everything
    # reduces. Reduced basis {x*y, x^2 + y^2, y^3}, ascending leads.
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2 + y^2"), ring.parse("x*y")])
    gb = buchberger(U)
    assert [str(v[0]) for v in gb.vectors] == ["x*y", "x^2 + y^2", "y^3"]


def test_hand_quotient_ring_ideal():
    # ideal (x) in F_5[x,y]/(x^2 + y^2): relation column turns into y^2
    ring = PolyRing(5, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x")], relations=[ring.parse("x^2 + y^2")])
    gb = buchberger(U)
    assert [str(v[0]) for v in gb.vectors] == ["x", "y^2"]
    assert U.contains(ring.parse("y^2"))
    assert not U.contains(ring.parse("y"))


def test_hand_module_top_vs_elimination():
    ring = PolyRing(3, ["x", "y"])
    x, y = ring.gens()
    gens = [ModVector((x, y)), ModVector((y, x))]
    # TOP: leads live in different components, no pairs at all
    top = Submodule(ring, 2, gens)
    gbt = buchberger(top)
    assert len(gbt) == 2
    # ascending key order: component 1 sorts below component 0 for the
    # same ring monomial under TOP
    assert gbt.lead_terms() == ((1, (1, 0)), (0, (1, 0)))
    # component 0 eliminated (private to intersect and colon): both
    # leads in component 0, S-pair leaves (0, x^2 - y^2)
    gbe = _basis(ring, (0, 0), gens, None, eliminate=1)
    strs = [str(v) for v in gbe.vectors]
    assert "(0, x^2 + 2*y^2)" in strs  # x^2 - y^2 over F_3
    assert len(gbe) == 3


def test_unit_ideal_and_full_module():
    ring = PolyRing(7, ["x", "y"])
    assert buchberger(Submodule.ideal(ring, [ring.one])).is_full_module()
    assert not buchberger(Submodule.ideal(ring, [ring.parse("x")])).is_full_module()
    e0 = ModVector((ring.one, ring.zero))
    e1 = ModVector((ring.zero, ring.one))
    assert buchberger(Submodule(ring, 2, [e0, e1])).is_full_module()
    assert not buchberger(Submodule(ring, 2, [e0])).is_full_module()


def test_zero_submodule():
    ring = PolyRing(7, ["x"])
    U = Submodule.ideal(ring, [])
    gb = buchberger(U)
    assert len(gb) == 0
    assert gb.contains(ring.zero)
    assert not gb.contains(ring.one)
    assert gb.normal_form(ring.parse("x")) == ModVector((ring.parse("x"),))


# ---------------------------------------------------------------------------
# oracle cross-checks


@pytest.mark.parametrize("p,nvars", [(2, 2), (3, 2), (5, 3)])
def test_gb_elements_in_span_and_conversely(p, nvars):
    rng = random.Random(1000 * p + nvars)
    ring = PolyRing(p, [f"v{i}" for i in range(nvars)])
    for trial in range(8):
        gens = [random_homog_poly(ring, rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        U = Submodule.ideal(ring, gens)
        gb = buchberger(U)
        span = spanning_dicts(U)
        twists = (0,)
        # each basis vector lies in the original span
        for v in gb.vectors:
            assert naive_member(to_dict(v), span, twists, nvars, p)
        # each original generator reduces to zero
        for g in U.gens:
            assert gb.contains(g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_matches_oracle_on_random_vectors(p):
    rng = random.Random(31 * p)
    nvars = 2
    ring = PolyRing(p, ["x", "y"])
    for trial in range(6):
        gens = [random_homog_poly(ring, rng, rng.randrange(1, 4)) for _ in range(2)]
        rels = [random_homog_poly(ring, rng, 2)] if trial % 2 else []
        U = Submodule.ideal(ring, gens, relations=rels)
        gb = buchberger(U)
        span = spanning_dicts(U)
        for deg in range(1, 6):
            for _ in range(6):
                f = random_homog_poly(ring, rng, deg)
                got = gb.contains(f)
                want = naive_member(to_dict(ModVector((f,))), span, (0,), nvars, p)
                assert got == want, (p, trial, deg, str(f))


def test_module_membership_matches_oracle():
    rng = random.Random(777)
    p = 3
    ring = PolyRing(p, ["x", "y"])
    twists = (0, 1)
    for trial in range(6):
        gens = []
        for _ in range(2):
            d = rng.randrange(2, 4)
            f0 = random_homog_poly(ring, rng, d - twists[0])
            f1 = random_homog_poly(ring, rng, d - twists[1])
            gens.append(ModVector((f0, f1)))
        rels = [random_homog_poly(ring, rng, 2)] if trial % 2 else []
        U = Submodule(ring, 2, gens, twists=twists, relations=rels)
        gb = buchberger(U)
        span = spanning_dicts(U)
        for d in range(2, 6):
            for _ in range(5):
                v = ModVector(
                    (random_homog_poly(ring, rng, d), random_homog_poly(ring, rng, d - 1))
                )
                got = gb.contains(v)
                want = naive_member(to_dict(v), span, twists, 2, p)
                assert got == want


def test_spairs_of_basis_reduce_to_zero():
    # internal consistency: the Buchberger criterion holds for the output
    rng = random.Random(5)
    ring = PolyRing(5, ["x", "y", "z"])
    gens = [random_homog_poly(ring, rng, d) for d in (2, 2, 3)]
    gb = buchberger(Submodule.ideal(ring, gens))
    vecs = gb.vectors
    for i in range(len(vecs)):
        for j in range(i):
            fi, fj = vecs[i][0], vecs[j][0]
            mi, mj = fi.lm(), fj.lm()
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            si = fi.mul_monomial(tuple(a - b for a, b in zip(lcm, mi)))
            sj = fj.mul_monomial(tuple(a - b for a, b in zip(lcm, mj)))
            assert gb.contains(si - sj)


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_properties():
    rng = random.Random(99)
    ring = PolyRing(7, ["x", "y"])
    gens = [ring.parse("x^2 + 3*y^2"), ring.parse("x*y")]
    U = Submodule.ideal(ring, gens)
    gb = buchberger(U)
    span = spanning_dicts(U)
    for deg in range(2, 7):
        for _ in range(8):
            f = random_homog_poly(ring, rng, deg)
            nf = gb.normal_form(f)[0]
            # f - nf lies in the module
            assert naive_member(to_dict(ModVector((f - nf,))), span, (0,), 2, 7)
            # idempotent
            assert gb.normal_form(nf)[0] == nf
            # no term of nf is divisible by a lead monomial
            for m, _ in nf.terms():
                assert not any(
                    all(a <= b for a, b in zip(lead, m)) for _, lead in gb.lead_terms()
                )
    assert gb.normal_form(gens[0] * ring.parse("x + y"))[0].is_zero()


def test_normal_form_respects_input_when_reduced():
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2")])
    f = ring.parse("y^3 + x*y")
    assert U.groebner().normal_form(f)[0] == f


# ---------------------------------------------------------------------------
# determinism, canonicality


def test_reduced_basis_independent_of_generator_order():
    rng = random.Random(2024)
    ring = PolyRing(5, ["x", "y", "z"])
    gens = [random_homog_poly(ring, rng, d) for d in (2, 3, 3, 4)]
    base = buchberger(Submodule.ideal(ring, gens)).vectors
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(Submodule.ideal(ring, shuffled)).vectors == base


def test_basis_cached_on_submodule():
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2 + y^2")])
    assert U.groebner() is U.groebner()
    # one basis per last variable; the default is the ring's last one
    assert U.groebner() is U.groebner(last=1)
    assert U.groebner(last=0) is U.groebner(last=0)
    assert U.groebner(last=0) is not U.groebner()
    with pytest.raises(GhkError):
        U.groebner(last=2)
    # True is not read as 1, so it cannot fetch the cached basis
    with pytest.raises(GhkHypothesisError, match="must be an int"):
        U.groebner(last=True)


def _installed_basis(ring, twists, gens):
    """The engine's basis of gens and the number of records it installed
    in the divisor index (the lazy GroebnerBasis._index is not built)."""
    ctx = groebner._Ctx(ring, tuple(twists))
    added = []
    real = groebner._DivisorIndex.add

    def counting(index, rec):
        added.append(rec)
        real(index, rec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner._DivisorIndex, "add", counting)
        records, rows = groebner._engine([ctx.vec_to_terms(v) for v in gens], ctx, None)
    return GroebnerBasis(ctx, records, rows), len(added)


@pytest.mark.parametrize("variables", [["x", "y"], ["x", "y", "z"]])
def test_engine_installs_only_final_records(variables):
    # x^2 comes first but x divides it: reduced at its own degree, x is
    # installed before x^2 is reached, and x^2 reduces to zero
    ring = PolyRing(7, variables)
    gens = [ModVector((ring.parse("x^2"),)), ModVector((ring.parse("x"),))]
    gb, installed = _installed_basis(ring, (0,), gens)
    assert installed == len(gb) == 1
    assert gb.lead_terms() == ((0, (1,) + (0,) * (len(variables) - 1)),)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 7]),
    nvars=st.integers(2, 3),
    twists=st.lists(st.integers(-1, 2), min_size=1, max_size=2, unique=True).map(tuple),
)
def test_every_installed_record_is_final(data, p, nvars, twists):
    # generators of shuffled degrees: a later input of lower degree must
    # never divide a lead installed before it
    ring = PolyRing(p, ["x", "y", "z"][:nvars])
    top = max(twists)
    gens = [
        data.draw(module_vectors(ring, twists, data.draw(st.integers(top, top + 3))))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    gens = data.draw(st.permutations([v for v in gens if not v.is_zero()]))
    gb, installed = _installed_basis(ring, twists, gens)
    assert installed == len(gb)
    # a minimal basis: no lead divides another of its component
    leads = gb.lead_terms()
    for j, a in leads:
        assert not any(
            (j, a) != (k, b) and j == k and all(bi <= ai for ai, bi in zip(a, b))
            for k, b in leads
        )


# ---------------------------------------------------------------------------
# lazy tail interreduction


@pytest.fixture
def interreduce_calls(monkeypatch):
    calls = []
    real = groebner._interreduce

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(groebner, "_interreduce", counting)
    return calls


def test_interreduction_runs_once_on_first_read_of_vectors(interreduce_calls):
    # xy + y^2 is installed before y^2, so its tail is reducible until
    # the basis vectors are read
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x*y + y^2"), ring.parse("y^2")])
    gb = buchberger(U)
    assert gb.lead_terms() == ((0, (0, 2)), (0, (1, 1)))
    assert gb.contains(ring.parse("x*y"))
    assert gb.normal_form(ring.parse("x^2 + x*y")) == ModVector((ring.parse("x^2"),))
    assert gb.is_full_module() is False
    assert len(gb._records[1][3]) == 1  # x*y still carries the tail y^2
    assert interreduce_calls == []
    assert [str(v[0]) for v in gb.vectors] == ["y^2", "x*y"]
    assert interreduce_calls == [2]
    assert [str(v[0]) for v in gb] == ["y^2", "x*y"]
    assert gb.vectors is gb.vectors
    assert interreduce_calls == [2]


def test_elimination_interreduces_only_its_result_on_first_read(interreduce_calls):
    # intersect and colon install the kept block unreduced; reading the
    # result's vectors reduces just those records, once
    ring = PolyRing(7, ["x", "y", "z"])
    x, y, z = ring.gens()
    rel = ring.parse("x^3 + y^3 + z^3")
    zero = ring.zero

    def module(*gens):
        return Submodule(ring, 2, [ModVector(g) for g in gens], twists=(0, 1), relations=[rel])

    A = module((x * y, z), (y * y, zero), (zero, x * z))
    B = module((x * x, y + z), (z * z, x))
    for W in (intersect(A, B), colon(A, x + y), colon(A, [x + y, z])):
        assert interreduce_calls == []
        gb = W.groebner()
        assert len(gb) > 1
        gb.vectors
        gb.vectors
        assert interreduce_calls == [len(gb)]
        interreduce_calls.clear()


def test_leads_only_callers_never_interreduce(interreduce_calls):
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    I = R.ideal(["z", "3*x - y"])
    assert hilbert_series(I).pole_order() == 1
    assert I.contains(R.parse("z*x"))
    assert not I.contains(R.parse("x"))
    point = R.ideal(["z^7", "3*x^7 - y^7"])
    cert = certify_saturation(point)
    assert cert is not None and cert.length > 0
    assert hk_value(R.ideal(["x", "y", "z"]), 1) == 109
    assert interreduce_calls == []


# ---------------------------------------------------------------------------
# reduction counts


def _count_reductions(patch, calls: list) -> list:
    """Append (number of seeds, remainder is zero) to calls for every
    call of either reducer, _reduce (term tuples) or _reduce_rows (row
    ints): an S-pair reduction has two seeds, an input or a tail one."""
    for name in ("_reduce", "_reduce_rows"):

        def counting(seeds, *args, _real=getattr(groebner, name), **kwargs):
            seeds = list(seeds)
            out = _real(seeds, *args, **kwargs)
            calls.append((len(seeds), not out))
            return out

        patch.setattr(groebner, name, counting)
    return calls


@pytest.fixture
def reduce_calls(monkeypatch):
    return _count_reductions(monkeypatch, [])


@pytest.mark.parametrize(
    "route, pairs, zeros",
    [
        # (x, y, z) of the Fermat cubic over F_19 at q = 361, over S
        ("hk", 353, 178),
        # the Fermat point (z, x + y) over F_7 at q = 343, over A
        ("point", 242, 3),
    ],
)
def test_pair_update_reduces_no_more_s_pairs(reduce_calls, route, pairs, zeros):
    # the counts are ceilings: a sharper pair filter may reduce fewer
    # S-pairs, a pair filter that misses a criterion reduces more
    if route == "hk":
        R = RingSpec(19, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
        assert hk_value(R.ideal(["x", "y", "z"]), 2) == (9 * 361**2 - 5) // 4
    else:
        R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
        P = presentation_of_quotient(R.ideal(["z", "x + y"]), R)
        assert ghk_value(P, 3) == 4 * (343**2 - 1) // 3
    s_pairs = [zero for n, zero in reduce_calls if n == 2]
    # the point's bases over A reduce in row ints: a ceiling met with
    # nothing counted would check nothing
    assert 0 < len(s_pairs) <= pairs
    assert sum(s_pairs) <= zeros


# ---------------------------------------------------------------------------
# row ints against the heap reducer


def _counted_basis(ctx, vecs):
    """The basis the engine builds on ctx, and (seeds, zero remainder)
    for each reduction it made, through either reducer."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_reductions(patch, [])
        records, rows = groebner._engine([ctx.vec_to_terms(v) for v in vecs], ctx, None)
    return GroebnerBasis(ctx, records, rows), calls


def _rows_against_heap(ring, twists, last, gens):
    """The row-int basis of gens, checked against the heap reducer's on
    the same context: reductions, zero remainders, leads, records as
    installed (the same divisor at every step gives the same tails) and
    the reduced basis."""
    rows = groebner._Ctx(ring, twists, last)
    heap = groebner._Ctx(ring, twists, last)
    heap.rows = False
    assert rows.rows
    gb, counts = _counted_basis(rows, gens)
    ref, ref_counts = _counted_basis(heap, gens)
    assert counts == ref_counts
    assert gb.lead_terms() == ref.lead_terms()
    assert gb._index.records == ref._index.records
    assert gb.vectors == ref.vectors
    return gb


@pytest.mark.parametrize("p", [2, 7, 31])
def test_row_ints_on_reductions_longer_than_a_pass(p):
    # g = x^d + (p - 1)(x^(d-1)y + ... + y^d) reduces x^(d+60) in 61
    # steps, and each field below the top takes up to d of them before
    # it is reduced itself: far more than a pass allows (_Rows.steps).
    # It is also the mask's longest climb in this file: from degree 60,
    # where g is installed, to 120 in one call of _Rows.reducible
    ring = PolyRing(p, ["x", "y"])
    d = 60
    g = ring.from_pairs([((d, 0), 1)] + [((d - k, k), p - 1) for k in range(1, d + 1)])
    gens = [ModVector((g,)), ModVector((ring.monomial((d + 60, 0)),))]
    for last in (0, 1):
        gb = _rows_against_heap(ring, (0,), last, gens)
        assert len(gb) >= 2


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 7, 31, 32771]),
    twists=st.lists(st.integers(-1, 2), min_size=1, max_size=3).map(tuple),
    last=st.integers(0, 1),
)
def test_row_ints_reduce_as_the_heap_reducer_does(data, p, twists, last):
    # generators of mixed degrees, so that the engine's degree order
    # interleaves inputs with S-pairs and the mask climbs several
    # degrees between two reductions; twists unequal as drawn
    ring = PolyRing(p, ["x", "y"])
    top = max(twists)
    gens = []
    for _ in range(data.draw(st.integers(1, 5))):
        deg = data.draw(st.integers(top, top + 5))
        gens.append(data.draw(module_vectors(ring, twists, deg)))
    gens = [v for v in gens if not v.is_zero()]
    gb = _rows_against_heap(ring, twists, last, gens)
    if len(twists) * (top + 6) <= 30:
        span = [to_dict(v) for v in gens]
        assert all(naive_member(to_dict(v), span, twists, 2, p) for v in gb.vectors)
        probes = [data.draw(module_vectors(ring, twists, top + 2)) for _ in range(2)]
        for v in probes:
            assert gb.contains(v) == naive_member(to_dict(v), span, twists, 2, p)


@pytest.mark.parametrize("p", [2, 3, 7, 31, 47, 32771])
def test_row_pass_is_exact_up_to_its_bound(p):
    # every field at the largest value a reduction can leave between
    # two passes, and at random values below it
    ring = PolyRing(p, ["x", "y"])
    rows = groebner._Rows(groebner._Ctx(ring, (0, 1)))
    bound = (rows.steps + 2) * (p - 1) ** 2
    rng = random.Random(p)
    for fields in ([bound] * 40, [rng.randrange(bound + 1) for _ in range(200)]):
        row = sum(v << (i * rows.width) for i, v in enumerate(fields))
        out = rows.normal(row)
        assert [(out >> (i * rows.width)) & rows.field for i in range(len(fields))] == [
            v % p for v in fields
        ]
        assert out >> (len(fields) * rows.width) == 0


@pytest.mark.parametrize("least", [8, 12])
@pytest.mark.parametrize("p", [2, 3, 19, (1 << 61) - 1])
def test_packed_pass_is_exact_at_its_bound(p, least):
    # fields at the bound, one below it, at p - 1 and at 0, next to each
    # other in every order: each comes out as its value mod p, nothing
    # carried into the field above it or past the top one
    fields = groebner._Fields(p, least)
    assert fields.steps >= least
    assert fields.bound == (fields.steps + 2) * (p - 1) ** 2
    for order in itertools.permutations([fields.bound, fields.bound - 1, p - 1, 0]):
        values = list(order) * 10
        row = sum(v << i * fields.width for i, v in enumerate(values))
        out = fields.normal(row)
        expect = [(i, v % p) for i, v in enumerate(values) if v % p]
        assert fields.row_fields(out) == expect[::-1]
        assert out >> len(values) * fields.width == 0


def _relation_rows(ring, f):
    ctx = groebner._Ctx(ring, (0,))
    return ctx, groebner._RelationRows(ctx, ctx.vec_to_terms(ModVector((f,))))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [2, 3, 19, (1 << 61) - 1])
def test_times_x_reduces_its_widest_product_exactly(p, d):
    # f = x^d plus every other monomial of degree d, so x^d = -(the
    # rest) adds p - 1 times the top slice for each of them, and g has
    # p - 1 in every field: each field of x*g gets the most it can,
    # (d + 2)(p - 1)^2 at worst, before the pass
    ring = PolyRing(p, ["x", "y", "z"])
    mons = monomials_of_degree(3, d)
    f = ring.from_pairs([(m, 1) for m in mons])
    g = ring.from_pairs([(m, p - 1) for m in monomials_of_degree(3, d + 2) if m[0] < d])
    ctx, rows = _relation_rows(ring, f)
    assert rows.steps >= d and (d + 2) * (p - 1) ** 2 <= rows.bound
    x = ring.gens()[0]
    nf = Submodule.ideal(ring, [f]).groebner().normal_form(x * g)
    assert not nf.is_zero()
    row = rows.pack(ctx.vec_to_terms(ModVector((g,))))
    assert rows.times_x(row, 0) == rows.pack(ctx.vec_to_terms(nf))
    # into a frame 1 or 2 blocks higher: the same product, its lowest
    # blocks dropped, though f's substitution moves the top slice down
    for drop in (1, 2):
        assert rows.times_x(row, drop) == rows.times_x(row, 0) >> drop * rows.dw


def _relation_rows_against_heap(ring, gens, f, last=None, twist=0):
    """The basis of gens over the relation f, which _RelationRows must
    build, checked against the heap's basis of f and gens with no
    relation: S-pair reductions, zero remainders, leads, records as
    installed and the reduced basis. f goes first, as _RelationRows
    installs it, so that the two runs meet the same inputs in the same
    order."""
    U = Submodule(ring, 1, gens, twists=(twist,), relations=[f])
    ref = Submodule(ring, 1, [f, *gens], twists=(twist,))
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_reductions(patch, [])
        gb = U.groebner(last=last)
        assert isinstance(gb._rows, groebner._RelationRows)
        pairs = [zero for n, zero in calls if n == 2]
        calls.clear()
        heap = ref.groebner(last=last)
        assert heap._rows is None
        assert [zero for n, zero in calls if n == 2] == pairs
    assert gb.lead_terms() == heap.lead_terms()
    assert gb._index.records == heap._index.records
    assert gb.vectors == heap.vectors
    return gb, heap, pairs


def test_relation_rows_build_the_fermat_hk_basis():
    # I^[361] + (x^3 + y^3 + z^3) over F_19, hk_value's basis at q = 361
    R = RingSpec(19, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    B = bracket_power(R.ideal(["x", "y", "z"]), 361)
    gb, _, pairs = _relation_rows_against_heap(R.ring, B.gens, R.relations[0])
    assert len(gb) == 178
    assert (len(pairs), sum(pairs)) == (352, 178)
    # the row mask leaves the index 284 of the heap's 517 queries, each
    # finding a divisor: no term reaches x^3, which the heap reduces
    # without one, and the 233 others ask only about terms that z^361
    # divides, which the rows' frame drops
    with pytest.MonkeyPatch.context() as patch:
        counts = _counted_queries(patch, [0, 0])
        B.groebner()
    assert counts == [284, 0]


@pytest.mark.parametrize(
    "p, q, relation",
    [
        (11, 11, "x^3 + 2*y^3 + 3*z^3 + x*y*z + 5*x^2*y"),
        (7, 7, "3*x^2 + y*z + 2*y^2 + x*z"),
        (3, 9, "x^4 + x*y^3 + 2*y^2*z^2 + z^4 + x^2*y*z"),
        (2, 8, "x^5 + x^2*y^2*z + y^4*z + x*z^4 + y*z^4 + x^3*y^2"),
    ],
)
def test_relation_rows_on_dense_relations(p, q, relation):
    # x^q, y^q and z^q as they are: x^q is no R-normal form, so it is
    # reduced by f before it is packed
    ring = PolyRing(p, ["x", "y", "z"])
    gens = [ring.parse(f"{v}^{q}") for v in ("x", "y", "z")]
    gb, heap, pairs = _relation_rows_against_heap(ring, gens, ring.parse(relation))
    assert len(pairs) > 10
    probes = [ring.parse(f"x^{q + 1} + y^{q}*z"), ring.parse(f"x^{q - 1}*y*z")]
    for v in probes:
        assert gb.normal_form(v) == heap.normal_form(v)
        assert gb.contains(v) == heap.contains(v)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    last=st.integers(0, 2),
    twist=st.integers(-1, 2),
)
def test_relation_rows_build_the_heap_basis(data, p, last, twist):
    # a random f of degree d whose outer variable's power x_o^d (x unless
    # `last` is x, so f(1, 0, 0) != 0 for last = y, z) has a nonzero
    # coefficient, and generators of degree d or more, some with a term
    # at or past x_o^d, so not in R-normal form; the module's twist moves
    # every degree
    ring = PolyRing(p, ["x", "y", "z"])
    o = min({0, 1} - {last})
    d = data.draw(st.integers(2, 5))
    mons = monomials_of_degree(3, d)
    coeffs = st.integers(1, p - 1)
    power = tuple(d if i == o else 0 for i in range(3))
    f = ring.from_pairs(
        [(power, data.draw(coeffs))]
        + data.draw(st.lists(st.tuples(st.sampled_from(mons), coeffs), max_size=8))
    )
    if power not in dict(f.terms()):
        f = f + ring.monomial(power)  # the drawn terms cancelled it
    gens = []
    for _ in range(data.draw(st.integers(0, 4))):
        deg = data.draw(st.integers(d, d + 3))
        g = data.draw(homogeneous_polys(ring, deg))
        if data.draw(st.booleans()):
            g = g + ring.monomial(tuple(deg if i == o else 0 for i in range(3)), data.draw(coeffs))
        gens.append(g)
    gb, heap, _ = _relation_rows_against_heap(ring, gens, f, last, twist)
    probes = [data.draw(homogeneous_polys(ring, data.draw(st.integers(d - 1, d + 4))))]
    probes += [g * data.draw(homogeneous_polys(ring, 1)) for g in gens[:2]]
    for v in probes:
        assert gb.normal_form(v) == heap.normal_form(v)
        assert gb.contains(v) == heap.contains(v)


def _framed_against_heap(ring, gens, f, twist=0):
    """_relation_rows_against_heap with `last` = z, and where the rows'
    frame came from: None when no record is a pure power z^Q, else the
    module degree of the first one and the number of records installed
    after it at that degree."""
    installs = []
    real = groebner._RelationRows.add_lead

    def add_lead(rows, rec):
        installs.append((rows.deg, rec[2]))
        real(rows, rec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner._RelationRows, "add_lead", add_lead)
        _relation_rows_against_heap(ring, gens, f, twist=twist)
    below_z = (1 << 2 * EXP_BITS) - 1  # the x and y fields of a monomial
    for k, (deg, mon) in enumerate(installs):
        if not mon & below_z:
            return deg, sum(other == deg for other, _ in installs[k + 1 :])
    return None


@settings(max_examples=45, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    twist=st.integers(0, 1),
    case=st.sampled_from(["input", "pair", "never"]),
)
def test_framed_rows_build_the_heap_basis(data, p, twist, case):
    # a random f with the pure-power lead x^d, and bracket powers whose
    # z^Q, past which the rows drop every term, is an input (the
    # monomial brackets), may come from an S-pair (brackets of linear
    # forms and a monomial) or never comes (brackets of forms in x and y
    # over an f with no z^d: the point (0:0:1) lies on every generator)
    ring = PolyRing(p, ["x", "y", "z"])
    q = p ** data.draw(st.integers(1, 2 if p < 5 else 1))
    d = data.draw(st.integers(2, min(4, q)))
    coeffs = st.integers(1, p - 1)
    mons = [m for m in monomials_of_degree(3, d) if m[0] < d and m[2] < d]
    f = ring.from_pairs(
        [((d, 0, 0), data.draw(coeffs))]
        + data.draw(st.lists(st.tuples(st.sampled_from(mons), coeffs), max_size=6))
        + ([((0, 0, d), data.draw(coeffs))] if case != "never" and data.draw(st.booleans()) else [])
    )
    if case == "input":
        forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        top = p - 1 if case == "pair" else 0
        form = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(0, top))
        forms = data.draw(st.lists(form, min_size=1, max_size=3))
    gens = [ring.from_pairs([((q, 0, 0), a), ((0, q, 0), b), ((0, 0, q), c)]) for a, b, c in forms]
    if case == "pair" and data.draw(st.booleans()):
        gens.append(ring.monomial((data.draw(st.integers(d - 1, q)), 1, 0)))
    found = _framed_against_heap(ring, gens, f, twist)
    if case == "input":
        assert found is not None and found[0] == q + twist
    elif case == "never":
        assert found is None


@pytest.mark.parametrize("twist", [0, 1])
@pytest.mark.parametrize(
    "p, f, gens, start",
    [
        # z^Q comes from an S-pair at a degree where no input lives, and
        # records follow it there: the rows built at that degree keep no
        # frame, and the next degree's drop two blocks at once
        pytest.param(
            3, "x^3 + 2*z^3 + y^2*z + 2*y^3 + 2*x*z^2 + x^2*y", ["x^3", "(2*y + z)^3"], (6, 1),
            id="pair-3",
        ),
        pytest.param(
            5, "2*x^2 + 3*y*z + 4*y^2 + 4*x*z", ["(3*x + 3*z)^5", "(x + y + 2*z)^5", "x^2*y"], (6, 1),
            id="pair-5",
        ),
        pytest.param(
            7, "4*x^2 + 4*z^2 + 3*y*z + 2*x*z", ["(6*x + 6*y + 6*z)^7", "(x + 2*y + 5*z)^7", "x^2*y"],
            (8, 2), id="pair-7",
        ),
        # (0:0:1) lies on f, x^q and y^q, so no power of z is in the
        # ideal, and the rows keep every term
        pytest.param(7, "x^3 + y^3 + x*y*z", ["x^49", "y^49"], None, id="never-7"),
        pytest.param(5, "2*x^3 + x*y*z + y^2*z + 3*x^2*y", ["x^25", "y^25"], None, id="never-5"),
    ],
)
def test_where_the_frame_starts(p, f, gens, start, twist):
    ring = PolyRing(p, ["x", "y", "z"])
    gens = [ring.parse(g) for g in gens]
    found = _framed_against_heap(ring, gens, ring.parse(f), twist)
    if start is None:
        assert found is None
    else:
        assert all(g.degree() < start[0] for g in gens)
        assert found == (start[0] + twist, start[1])


def test_every_other_basis_keeps_the_heap():
    # no pure-power lead (Klein, or a lead y^2*z with x compared last),
    # rank 2, two relations, a generator of degree below the relation's:
    # each basis is built by the heap reducer
    ring = PolyRing(7, ["x", "y", "z"])
    x, y, z = ring.gens()
    fermat, klein = ring.parse("x^3 + y^3 + z^3"), ring.parse("x^2*y + y^2*z + z^2*x")
    cone = [ring.parse("x^2 + y^2 - z^2"), ring.parse("x*y + z^2")]
    cases = [
        (Submodule.ideal(ring, [x**7, y**7, z**7], relations=[klein]), None),
        (Submodule.ideal(ring, [x**7, y**7], relations=[ring.parse("x^3 + y^2*z")]), 0),
        (Submodule(ring, 2, [ModVector((x**4, y**4))], relations=[fermat]), None),
        (Submodule.ideal(ring, [x**7, y**7, z**7], relations=cone), None),
        (Submodule.ideal(ring, [x, y**7], relations=[fermat]), None),
    ]
    for U, last in cases:
        assert U.groebner(last=last)._rows is None, U
    assert isinstance(
        Submodule.ideal(ring, [x**7, y**7], relations=[fermat]).groebner()._rows,
        groebner._RelationRows,
    )


@pytest.fixture
def unpacked(monkeypatch):
    """The row-int records unpacked to terms, one entry each."""
    calls = []
    real = groebner._Rows.unpack

    def counting(rows, rec):
        calls.append(rec)
        return real(rows, rec)

    monkeypatch.setattr(groebner._Rows, "unpack", counting)
    return calls


def test_leads_only_callers_never_unpack_row_ints(unpacked):
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    P = presentation_of_quotient(R.ideal(["z", "x + y"]), R)
    assert ghk_value(P, 2) == 4 * (49**2 - 1) // 3  # over A = F_7[x, y]
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^3 + y^3"), ring.parse("x^2*y")])
    assert hilbert_series(U).pole_order() == 0
    assert unpacked == []
    for read in ("contains", "normal_form", "vectors"):
        V = Submodule.ideal(ring, [ring.parse("x^3 + y^3"), ring.parse("x^2*y")])
        gb = V.groebner()
        for _ in range(2):
            if read == "vectors":
                gb.vectors
            else:
                getattr(gb, read)(ring.parse("x^4 + x*y^3"))
        assert len(unpacked) == len(gb), read
        unpacked.clear()


# ---------------------------------------------------------------------------
# reducibility masks against runs without them


def _built_indexes(patch, indexes):
    """Append every divisor index built to indexes."""
    real = groebner._DivisorIndex.__init__

    def init(self, *args):
        real(self, *args)
        indexes.append(self)

    patch.setattr(groebner._DivisorIndex, "__init__", init)
    return indexes


def _unmasked(patch):
    """The reference: climb a no-op, so that no index ever builds masks
    (every normal form outside the engine runs so)."""
    patch.setattr(groebner._DivisorIndex, "climb", lambda self, deg: None)


def _masks_against_index(ring, twists, last, gens):
    """The masked basis of gens, checked against the one built on the
    same context without masks: reductions, zero remainders and the
    records as installed (the mask only skips queries that find no
    divisor, so every tail is the same)."""
    ctx = groebner._Ctx(ring, twists, last)
    with pytest.MonkeyPatch.context() as patch:
        indexes = _built_indexes(patch, [])
        gb, counts = _counted_basis(ctx, gens)
    with pytest.MonkeyPatch.context() as patch:
        _unmasked(patch)
        ref, ref_counts = _counted_basis(ctx, gens)
    assert counts == ref_counts
    assert gb._records == ref._records
    # the engine's index climbed, and every component has masks
    assert indexes[0].deg is not None
    assert all(entry[4] is not None for entry in indexes[0].comps.values())
    return gb


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 7, 31]),
    twists=st.sampled_from([(0,), (0, 1), (2, 0)]),
    last=st.integers(0, 2),
    d=st.integers(2, 4),
)
def test_masks_skip_only_queries_that_find_no_divisor(data, p, twists, last, d):
    # a relation monic in the outer variable puts the pure power x_o^d
    # into every component; generators of lower degree come first, so
    # the pure power is often installed after other leads (the replay)
    ring = PolyRing(p, ["x", "y", "z"])
    # x_o, in the index's outer field (field 0), is the first variable
    # other than `last`; x_o^d is the largest monomial of degree d
    o = min({0, 1} - {last})
    power = ring.monomial(tuple(d if i == o else 0 for i in range(3)))
    rest = data.draw(homogeneous_polys(ring, d))
    rest = ring.from_pairs([(m, c) for m, c in rest.terms() if m != power.lm()])
    top = max(twists)
    gens = [
        data.draw(module_vectors(ring, twists, data.draw(st.integers(top, top + d + 1))))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    U = Submodule(ring, len(twists), gens, twists=twists, relations=[power + rest])
    gb = _masks_against_index(ring, twists, last, U.spanning())
    # some power of x_o divides x_o^d: a pure-power lead in every component
    assert {j for j, m in gb.lead_terms() if sum(m) == m[o]} == set(range(len(twists)))


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([3, 7, 31]),
    twists=st.sampled_from([(0,), (1, 0)]),
    last=st.integers(0, 2),
)
def test_heap_records_are_monic_members_of_the_span(data, p, twists, last):
    # every input and the relation scaled by c != 1, so that remainders
    # have leads whose coefficient is not 1: each record as installed,
    # read as its monic vector, must lie in the span (the brute-force
    # oracle); a lead made monic with its tail left unscaled does not
    ring = PolyRing(p, ["x", "y", "z"])
    o = min({0, 1} - {last})
    power = ring.monomial(tuple(2 if i == o else 0 for i in range(3)))
    rest = data.draw(homogeneous_polys(ring, 2))
    rest = ring.from_pairs([(m, c) for m, c in rest.terms() if m != power.lm()])
    scale = data.draw(st.integers(2, p - 1))
    gens = [
        data.draw(module_vectors(ring, twists, data.draw(st.integers(1, 3)))).poly_mul(
            ring.monomial((0, 0, 0), scale)
        )
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    U = Submodule(ring, len(twists), gens, twists=twists, relations=[(power + rest).scale(scale)])
    ctx = groebner._Ctx(ring, twists, last)
    records, _ = groebner._engine([ctx.vec_to_terms(v) for v in U.spanning()], ctx, None)
    span = spanning_dicts(U)
    for rec in records:
        v = ctx.terms_to_vec(groebner._record_terms(rec))
        assert naive_member(to_dict(v), span, twists, 3, p), str(v)


def test_masks_in_an_elimination_run():
    # colon's elimination basis has the relation's pure power in every
    # block: the same records with and without the masks
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + 2*z^3"])
    gens = [[R.ring.parse(f) for f in v] for v in (["x^2", "y"], ["z^2", "x"])]

    def colon_run(patch):
        calls = _count_reductions(patch, [])
        queries = _counted_queries(patch, [0, 0])
        U = Submodule(R.ring, 2, gens, twists=(0, 1), relations=R.relations)
        V = colon(U, R.ideal(["x", "y - z"]))
        return V.groebner()._records, calls, queries

    with pytest.MonkeyPatch.context() as patch:
        *masked, queries = colon_run(patch)
    with pytest.MonkeyPatch.context() as patch:
        _unmasked(patch)
        *ref, ref_queries = colon_run(patch)
    assert masked == ref
    assert len(masked[1]) > 10
    # the masks skip only queries that find nothing
    assert queries[0] == ref_queries[0]
    assert queries[1] < ref_queries[1]


def _counted_queries(patch, counts):
    """Count every divisor-index query and the ones that find nothing."""
    real = groebner._DivisorIndex.__init__

    def init(self, *args):
        real(self, *args)
        query = self.divisor

        def counted(k):
            found = query(k)
            counts[found is None] += 1
            return found

        self.divisor = counted

    patch.setattr(groebner._DivisorIndex, "__init__", init)
    return counts


def test_masked_hk_basis_asks_the_index_only_for_reducible_terms():
    # I^[361] + (x^3 + y^3 + z^3) over F_19, the basis of hk_value at
    # q = 361, with the relation as a generator so that the heap reducer
    # builds it: 6,898 queries, 4,422 of them finding nothing, with
    # neither the masks nor the pure-power rule. With both, every query
    # finds a divisor: a term of a component with no lead yet (the
    # relation's own) asks nothing
    R = RingSpec(19, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    B = bracket_power(R.ideal(["x", "y", "z"]), 361)
    with pytest.MonkeyPatch.context() as patch:
        counts = _counted_queries(patch, [0, 0])
        gb = Submodule.ideal(R.ring, [*B.gens, *R.relations]).groebner()
    assert gb._rows is None
    assert len(gb) == 178
    assert counts == [517, 0]


@pytest.mark.parametrize("p, q, queries", [(19, 361, 60), (7, 2401, 128)])
def test_bracket_power_asks_the_index_only_below_the_pure_power(p, q, queries):
    # the normal forms of x^q, y^q and z^q modulo the Fermat cubic have
    # no masks, but every term at or past x^3 is reduced by it without a
    # query, and the relation's own basis asks nothing: the queries left
    # are the terms that no lead divides. Each call builds its own
    # relation basis, so a second call asks as many
    R = RingSpec(p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    for _ in range(2):
        with pytest.MonkeyPatch.context() as patch:
            counts = _counted_queries(patch, [0, 0])
            B = bracket_power(R.ideal(["x", "y", "z"]), q)
        assert len(B.gens) == 3
        assert counts == [0, queries]


def test_four_variable_index_keeps_its_bucket_walk():
    # with two outer variables a lead in them only is no pure power: the
    # leads x^2 and x*y of CONE's relations divide no power of y
    ring = PolyRing(7, ["x", "y", "z", "w"])
    ctx = groebner._Ctx(ring, (0,))
    pm = ctx.pm
    leads = [(2, 0, 0, 0), (1, 1, 0, 0)]
    index = groebner._DivisorIndex(ctx, [(i, 0, pm.pack(m), ()) for i, m in enumerate(leads)])
    for term, divisor in [
        ((0, 2, 0, 0), None),
        ((0, 3, 1, 2), None),
        ((1, 0, 4, 0), None),
        ((3, 0, 0, 1), 0),
        ((1, 2, 0, 0), 1),
    ]:
        found = index.divisor(ctx.term_key(0, pm.pack(term)))
        assert (found[0] if found else None) == divisor, term


def test_normal_form_reduces_past_the_pure_power_by_it():
    # records x*y - z^2 and x^2, no Groebner basis, so a remainder
    # shows which record reduced a term: x^2*y is 0 by the pure power
    # x^2, and x*z^2 by x*y - z^2, which the bucket walk reaches first
    ring = PolyRing(7, ["x", "y", "z"])
    ctx = groebner._Ctx(ring, (0,))
    pm = ctx.pm

    def key(m):
        return ctx.term_key(0, pm.pack(m))

    records = [
        (key((1, 1, 0)), 0, pm.pack((1, 1, 0)), ((key((0, 0, 2)), 6),)),
        (key((2, 0, 0)), 0, pm.pack((2, 0, 0)), ()),
    ]
    gb = GroebnerBasis(ctx, records)
    assert gb._index.divisor(key((2, 1, 0)))[0] == records[0][0]
    assert gb.normal_form(ring.parse("x^2*y")).is_zero()
    # the bucket walk alone would take x^2*y to x*z^2 and find it a member
    assert not gb.contains(ring.parse("x^2*y - x*z^2"))
    assert gb.normal_form(ring.parse("x*y*z + x^3")) == ModVector((ring.parse("z^3"),))


@st.composite
def homogeneous_polys(draw, ring, deg):
    if deg < 0:
        return ring.zero
    mons = monomials_of_degree(ring.nvars, deg)
    coeffs = st.integers(1, ring.p - 1)
    return ring.from_pairs(draw(st.lists(st.tuples(st.sampled_from(mons), coeffs), max_size=4)))


@st.composite
def module_vectors(draw, ring, twists, deg):
    return ModVector(tuple(draw(homogeneous_polys(ring, deg - e)) for e in twists))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), twists=st.sampled_from([(0,), (0, 1)]))
def test_normal_forms_do_not_depend_on_the_lazy_pass(data, p, twists):
    ring = PolyRing(p, ["x", "y"])

    def draw_vec(deg):
        return data.draw(module_vectors(ring, twists, deg))

    gens = [draw_vec(data.draw(st.integers(1, 3))) for _ in range(data.draw(st.integers(1, 3)))]
    rels = [data.draw(homogeneous_polys(ring, 2))] if data.draw(st.booleans()) else []
    U = Submodule(ring, len(twists), gens, twists=twists, relations=rels)
    gb = buchberger(U)
    probes = [draw_vec(data.draw(st.integers(2, 5))) for _ in range(4)] + list(U.gens)
    before = [(gb.normal_form(v), gb.contains(v)) for v in probes]
    gb.vectors
    after = [(gb.normal_form(v), gb.contains(v)) for v in probes]
    assert before == after
    span = spanning_dicts(U)
    for v, (nf, member) in zip(probes, after):
        assert member == nf.is_zero()
        assert member == naive_member(to_dict(v), span, twists, 2, p)
        assert naive_member(to_dict(v - nf), span, twists, 2, p)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5]),
    twists=st.sampled_from([(0,), (0, 1)]),
    relation=st.booleans(),
)
def test_every_last_variable_gives_a_basis_in_its_order(data, p, twists, relation):
    ring = PolyRing(p, ["x", "y", "z"])

    def draw_vec(deg):
        return data.draw(module_vectors(ring, twists, deg))

    gens = [draw_vec(data.draw(st.integers(1, 3))) for _ in range(data.draw(st.integers(1, 3)))]
    rels = [data.draw(homogeneous_polys(ring, 2))] if relation else []
    U = Submodule(ring, len(twists), gens, twists=twists, relations=rels)
    span = spanning_dicts(U)
    probes = [draw_vec(data.draw(st.integers(1, 4))) for _ in range(3)] + list(U.gens)
    members = [naive_member(to_dict(v), span, twists, 3, p) for v in probes]
    series = hilbert_series(U)
    for last in range(3):
        seq = tuple(i for i in range(3) if i != last) + (last,)

        def order(term):
            # module degree, then grevlex with `last` last, then component 0 first
            j, m = term
            return (sum(m) + twists[j],) + ref_order_tuple("grevlex", seq, m)[1:] + (-j,)

        gb = U.groebner(last=last)
        for vec, lead in zip(gb.vectors, gb.lead_terms()):
            terms = [(j, m) for j, f in enumerate(vec.components) for m, _ in f.terms()]
            assert max(terms, key=order) == lead, (last, str(vec))
        assert _lead_series(gb.lead_terms(), twists, 3) == series, last
        assert [gb.contains(v) for v in probes] == members, last


# ---------------------------------------------------------------------------
# budgets


@pytest.mark.parametrize(
    "limits", [{"max_pairs": 2.5}, {"max_pairs": True}, {"max_degree": -1}]
)
def test_budget_refuses_a_limit_that_is_not_a_count(limits):
    with pytest.raises(GhkError, match="budget limit"):
        GbBudget(**limits)


def test_budget_is_a_frozen_record_that_pickles():
    budget = GbBudget(max_pairs=0)
    assert budget == GbBudget(None, 0) and budget.max_degree is None
    assert hash(budget) == hash(GbBudget(max_degree=None, max_pairs=0))
    assert pickle.loads(pickle.dumps(budget)) == budget
    with pytest.raises(AttributeError):
        budget.max_pairs = 5
    with pytest.raises(TypeError):
        GbBudget(max_steps=5)


def test_budget_pairs():
    ring = PolyRing(7, ["x", "y"])
    gens = [ring.parse("x^2 + y^2"), ring.parse("x*y")]
    with pytest.raises(BudgetExceededError) as ei:
        buchberger(Submodule.ideal(ring, gens), GbBudget(max_pairs=0))
    assert ei.value.kind == "pairs"


def test_budget_degree():
    ring = PolyRing(7, ["x", "y"])
    gens = [ring.parse("x^2 + y^2"), ring.parse("x*y")]
    with pytest.raises(BudgetExceededError) as ei:
        buchberger(Submodule.ideal(ring, gens), GbBudget(max_degree=2))
    assert ei.value.kind == "degree"
    assert ei.value.limit == 2


def test_budget_generous_matches_unbudgeted():
    ring = PolyRing(7, ["x", "y"])
    gens = [ring.parse("x^2 + y^2"), ring.parse("x*y")]
    free = buchberger(Submodule.ideal(ring, gens))
    capped = buchberger(Submodule.ideal(ring, gens), GbBudget(max_degree=50, max_pairs=1000))
    assert free.vectors == capped.vectors


def test_budget_failure_does_not_poison_cache():
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2 + y^2"), ring.parse("x*y")])
    with pytest.raises(BudgetExceededError):
        buchberger(U, GbBudget(max_pairs=0))
    assert [str(v[0]) for v in buchberger(U).vectors] == ["x*y", "x^2 + y^2", "y^3"]


def test_budgeted_run_reuses_cached_basis():
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2 + y^2"), ring.parse("x*y")])
    gb = U.groebner()
    assert buchberger(U, GbBudget(max_pairs=10**6)) is gb
    # a cached basis needs no pairs, so even a zero budget is met
    assert buchberger(U, GbBudget(max_pairs=0)) is gb


def test_budgeted_run_seeds_cache():
    ring = PolyRing(7, ["x", "y"])
    U = Submodule.ideal(ring, [ring.parse("x^2 + y^2"), ring.parse("x*y")])
    gb = buchberger(U, GbBudget(max_pairs=10**6))
    assert U.groebner() is gb


# ---------------------------------------------------------------------------
# packed-monomial guard


def test_exponent_above_cap_is_refused():
    ring = PolyRing(7, ["x", "y"])
    x, y = ring.gens()
    big = ring.monomial((EXP_CAP, 0)) * x  # multiplication does not check the cap
    assert big.lm() == (EXP_CAP + 1, 0)
    with pytest.raises(GhkError):
        buchberger(Submodule.ideal(ring, [big, y]))
    with pytest.raises(GhkError):
        buchberger(Submodule.ideal(ring, [y])).contains(big)


def test_degree_that_could_reach_a_guard_bit_is_refused():
    # exponents within the cap, but an S-pair lcm of degree 8*EXP_CAP =
    # 2^23 would carry into the guard bits
    ring = PolyRing(7, [f"v{i}" for i in range(9)])
    C = EXP_CAP
    a = ring.monomial((C, C, C, C, 0, 0, 0, 0, 0))
    b = ring.monomial((0, 0, 0, 1, C, C, C, C, 0))
    with pytest.raises(GhkError):
        buchberger(Submodule.ideal(ring, [a, b]))
    # an input vector of that degree is refused before it is reduced
    with pytest.raises(GhkError):
        buchberger(Submodule.ideal(ring, [ring.monomial((C,) * 8 + (0,))]))
    # just below the bound everything works
    assert len(buchberger(Submodule.ideal(ring, [ring.monomial((C,) * 7 + (C - 1, 0))]))) == 1


def _reference_update_pairs(leads, P, t, rank):
    """The quadratic Gebauer-Moller filter on (component, exponent tuple) leads."""

    def divides(b, a):
        return all(x <= y for x, y in zip(b, a))

    hc, hm = leads[t]
    cand = [i for i in range(t) if leads[i][0] == hc]
    lcms = {i: tuple(max(x, y) for x, y in zip(leads[i][1], hm)) for i in cand}
    # an equal-lcm class keeps its member with the smallest lead in the
    # packed order (the last variable's exponent first, then the others
    # from the last down), then the smallest i
    keep = [
        i
        for i in cand
        if not any(
            (lcms[j] != lcms[i] and divides(lcms[j], lcms[i]))
            or (lcms[j] == lcms[i] and (leads[j][1][::-1], j) < (leads[i][1][::-1], i))
            for j in cand
            if j != i
        )
    ]
    if rank == 1:
        coprime = {
            lcms[j] for j in cand if lcms[j] == tuple(x + y for x, y in zip(leads[j][1], hm))
        }
        keep = [i for i in keep if lcms[i] not in coprime]
    for i in keep:
        P[(i, t)] = lcms[i]
    for (i, j), lij in list(P.items()):
        if j != t and leads[i][0] == hc and divides(hm, lij):
            if lcms.get(i) != lij and lcms.get(j) != lij:
                del P[(i, j)]


@pytest.mark.parametrize("rank", [1, 2])
def test_linear_pass_pair_filter_matches_quadratic_definition(rank):
    # the production path: leads go through the divisor index and the
    # pair update sees only the index's neighbours
    rng = random.Random(20 + rank)
    twists = tuple(range(rank))
    ctx = groebner._Ctx(PolyRing(7, ["x", "y", "z"]), twists)
    pm = ctx.pm
    for trial in range(30):
        leads = [
            (rng.randrange(rank), tuple(rng.randrange(5) for _ in range(3)))
            for _ in range(rng.randrange(2, 30))
        ]
        index = groebner._DivisorIndex(ctx)
        P, heap, ref = {}, [], {}
        for t, (comp, mon) in enumerate(leads):
            hm = pm.pack(mon)
            before = set(P)
            _update_pairs(index, P, heap, comp, hm, twists, rank, pm)
            index.add((t, comp, hm, ()))
            _reference_update_pairs(leads, ref, t, rank)
            assert {ij: pm.unpack(lcm) for ij, lcm in P.items()} == ref, (trial, t)
            new = {(i, j): d for d, i, j in heap if (i, j) not in before and (i, j) in P}
            assert new == {
                (i, j): sum(lcm) + twists[comp] for (i, j), lcm in ref.items() if j == t
            }


@st.composite
def index_runs(draw):
    """A ring shape, leads added one at a time (an equal lead may go into
    several components), and the queries made after each add: each near
    some lead added so far (a multiple, the lead itself or a near miss)."""
    nvars = draw(st.integers(1, 4))
    last = draw(st.integers(0, nvars - 1))
    rank = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    comps = st.integers(0, rank - 1)
    queries = st.lists(
        st.tuples(comps, st.integers(0, 15), st.tuples(*[st.integers(-1, 2)] * nvars)),
        max_size=4,
    )
    steps = st.tuples(exps, st.sets(comps, min_size=1), queries)
    return nvars, last, rank, draw(st.lists(steps, min_size=1, max_size=16))


@settings(max_examples=150, deadline=None)
@given(index_runs())
def test_divisor_index_finds_a_divisor_exactly_when_the_scan_does(run):
    nvars, last, rank, steps = run
    ring = PolyRing(7, [f"v{i}" for i in range(nvars)])
    # unequal twists and an eliminated block put offsets into the keys
    ctx = groebner._Ctx(ring, tuple(range(rank)), last, eliminate=1)
    pm = ctx.pm
    index = groebner._DivisorIndex(ctx)
    added = []  # (component, exponent tuple), in the order added
    for mon, comps, queries in steps:
        for cp in sorted(comps):
            index.add((len(added), cp, pm.pack(mon), ()))
            added.append((cp, mon))
        for cp, k, offset in queries:
            base = added[k % len(added)][1]
            term = tuple(max(0, e + d) for e, d in zip(base, offset))
            scan = [
                r for r, (c, m) in enumerate(added)
                if c == cp and all(a <= b for a, b in zip(m, term))
            ]
            k = ctx.term_key(cp, pm.pack(term))
            assert ctx.split(k) == (cp, pm.pack(term))
            found = index.divisor(k)
            if not scan:
                assert found is None
            else:
                assert found is not None and found[0] in scan
                assert found is index.records[found[0]]
                assert index.divisor(k) is found


@settings(max_examples=150, deadline=None)
@given(index_runs())
def test_neighbours_give_every_minimal_lcm_and_the_coprime_verdict(run):
    # leads may be superseded by later ones, repeat inside a component
    # and repeat across components
    nvars, last, rank, steps = run
    ring = PolyRing(7, [f"v{i}" for i in range(nvars)])
    ctx = groebner._Ctx(ring, tuple(range(rank)), last, eliminate=1)
    pm = ctx.pm
    index = groebner._DivisorIndex(ctx)
    for mon, comps, _ in steps:
        hm = pm.pack(mon)
        for cp in sorted(comps):
            peers = [(r[2], i) for i, r in enumerate(index.records) if r[1] == cp]
            minimal = pm.minimal(sorted({pm.lcm(hm, g) for g, _ in peers}))
            near = index.neighbours(cp, hm)
            assert all(index.records[i][1] == cp for i in near)
            assert pm.minimal(sorted({pm.lcm(hm, index.records[i][2]) for i in near})) == minimal
            for L in minimal:
                members = [(g, i) for g, i in peers if pm.lcm(hm, g) == L]
                # the class's smallest member is a neighbour, and it is
                # the representative the pair update reads the product
                # criterion from
                assert min(members)[1] in near
                rep = min((index.records[i][2], i) for i in near if pm.lcm(hm, index.records[i][2]) == L)
                assert rep == min(members)
                coprime = any(g + hm == L for g, _ in members)
                assert (rep[0] == L - hm) == coprime
            index.add((len(index.records), cp, hm, ()))


# ---------------------------------------------------------------------------
# validation


def test_homogeneity_enforced():
    ring = PolyRing(7, ["x", "y"])
    with pytest.raises(HomogeneityError):
        Submodule.ideal(ring, [ring.parse("x^2 + y")])
    with pytest.raises(HomogeneityError):
        Submodule.ideal(ring, [ring.parse("x")], relations=[ring.parse("x^2 + y")])
    # twists can make mixed component degrees homogeneous
    x, y = ring.gens()
    v = ModVector((x * x, y))
    with pytest.raises(HomogeneityError):
        Submodule(ring, 2, [v])
    Submodule(ring, 2, [v], twists=(0, 1))  # deg 2 both ways
    # a twist that is not an int is refused, not truncated by int()
    for twists in [(0, 0.9), (0, 1.0), (False, 1)]:
        with pytest.raises(GhkError, match="twist must be an int"):
            Submodule(ring, 2, [v], twists=twists)
    # and so is a rank that is not an int
    for rank in (1.0, True):
        with pytest.raises(GhkHypothesisError, match="rank must be an int"):
            Submodule(ring, rank, [x], twists=(0,))


def test_top_order_compares_module_degree_first():
    # (y^3, x) with twists (0, 2): both terms have module degree 3, and
    # grevlex then prefers x (no y) to y^3, so y divides no lead of a
    # vector it does not divide; ring degree first would pick y^3
    ring = PolyRing(7, ["x", "y"])
    x, y = ring.gens()
    v = ModVector((y**3, x))
    gb = buchberger(Submodule(ring, 2, [v], twists=(0, 2)))
    assert gb.lead_terms() == ((1, (1, 0)),)
    assert gb.vectors == (v,)
    # (0, xy + y^2) - y*v = (-y^4, y^2), whose lead (1, y^2) is irreducible
    w = ModVector((ring.zero, x * y + y * y))
    assert gb.normal_form(w) == ModVector((-(y**4), y * y))


def test_ambient_mismatch_rejected():
    r1 = PolyRing(7, ["x", "y"])
    r2 = PolyRing(5, ["x", "y"])
    with pytest.raises(RingMismatchError):
        Submodule.ideal(r1, [r2.parse("x")])
    U1 = Submodule.ideal(r1, [r1.parse("x")])
    with pytest.raises(RingMismatchError):
        U1.contains_submodule(Submodule.ideal(r2, [r2.parse("x")]))
    with pytest.raises(RingMismatchError):
        U1.contains(r2.parse("x"))


def test_submodules_over_different_quotient_rings_differ():
    # (f) in S and the zero ideal of S/(f) have the same spanning set
    # but live over different rings
    r = PolyRing(7, ["x", "y", "z"])
    f = r.parse("x^3 + y^3 + z^3")
    A = Submodule.ideal(r, [f])
    B = Submodule.ideal(r, [], relations=[f])
    assert A != B and B != A
    with pytest.raises(RingMismatchError):
        A.contains_submodule(B)
    with pytest.raises(RingMismatchError):
        B.contains_submodule(A)
    with pytest.raises(RingMismatchError):
        colength_difference(A, B)
    with pytest.raises(RingMismatchError):
        intersect(A, B)


def test_semantic_equality():
    ring = PolyRing(7, ["x", "y"])
    a = Submodule.ideal(ring, [ring.parse("x"), ring.parse("y")])
    b = Submodule.ideal(ring, [ring.parse("x + y"), ring.parse("y")])
    c = Submodule.ideal(ring, [ring.parse("x")])
    assert a == b
    assert a != c


def test_bare_poly_gen_rank_guard():
    ring = PolyRing(7, ["x", "y"])
    with pytest.raises(GhkError):
        Submodule(ring, 2, [ring.parse("x")])
