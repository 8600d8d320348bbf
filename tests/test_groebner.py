"""Groebner engine tests: hand-checked bases, oracle cross-checks, budgets."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghk.groebner as groebner
from ghk.arith import EXP_CAP, PackedMonomials, PolyRing
from ghk.errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisError,
    HomogeneityError,
    RingMismatchError,
)
from ghk.frobmod import hk_value
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
    pm = PackedMonomials(3)
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
        assert _lead_series(gb.packed_leads(), twists, 3, {}, pm) == series, last
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
    keep = [
        i
        for i in cand
        if not any(
            (lcms[j] != lcms[i] and divides(lcms[j], lcms[i])) or (lcms[j] == lcms[i] and j < i)
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
    rng = random.Random(20 + rank)
    pm = PackedMonomials(3)
    twists = tuple(range(rank))
    for trial in range(12):
        leads = [
            (rng.randrange(rank), tuple(rng.randrange(5) for _ in range(3)))
            for _ in range(rng.randrange(2, 30))
        ]
        G, P, heap, ref = [], {}, [], {}
        for t, (comp, mon) in enumerate(leads):
            G.append((0, comp, pm.pack(mon), (), 0))
            before = set(P)
            peers = [i for i in range(t) if leads[i][0] == comp]
            _update_pairs(G, P, heap, t, peers, twists, rank, pm)
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
    assert index.members == {
        cp: [r for r, (c, _) in enumerate(added) if c == cp] for cp in {c for c, _ in added}
    }


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
