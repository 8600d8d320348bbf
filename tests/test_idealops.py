"""Ideal-operation tests: Hilbert series vs degreewise linear algebra,
colon/intersect/saturate against hand values and brute force, ring
validation, sheaf degrees."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.arith import PolyRing, frobenius_power
from ghk.errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisError,
    RingMismatchError,
)
from ghk.groebner import GbBudget, ModVector, Submodule, _Ctx, buchberger
from ghk.idealops import (
    HilbertSeries,
    RingSpec,
    _monomial_numerator,
    _poly_matrix_det,
    bracket_power,
    certify_saturation,
    colength_difference,
    colon,
    hilbert_series,
    intersect,
    reflexive_hull,
    saturate,
    saturate_by_colon,
    sheaf_degree,
    smoothness_check,
)

from naive_modules import (
    free_module_dimension,
    naive_graded_dimension,
    naive_member,
    series_leading,
    staircase_dimension,
    taylor_numerator,
    times_one_minus_t,
)
from naive_poly import monomials_of_degree


def to_dict(v: ModVector) -> dict:
    return {(j, m): c for j, f in enumerate(v.components) for m, c in f.terms()}


def spanning_dicts(U: Submodule) -> list:
    return [to_dict(v) for v in U.spanning()]


def random_homog_poly(ring, rng, deg, maxterms=4):
    mons = monomials_of_degree(ring.nvars, deg)
    pairs = [(rng.choice(mons), rng.randrange(1, ring.p)) for _ in range(rng.randrange(1, maxterms + 1))]
    return ring.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Hilbert series


def test_series_of_free_ring():
    ring = PolyRing(7, ["x", "y"])
    hs = hilbert_series(Submodule.ideal(ring, []))
    assert hs.as_dict() == {0: 1}
    for d in range(6):
        assert hs.coefficient(d) == d + 1  # dim of degree-d forms in 2 vars
    assert hs.pole_order() == 2


def test_series_square_ideal():
    # S/(x^2, x*y, y^2): numerator 1 - 3t^2 + 2t^3, colength 3
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse(s) for s in ("x^2", "x*y", "y^2")])
    hs = hilbert_series(I)
    assert hs.as_dict() == {0: 1, 2: -3, 3: 2}
    assert hs.leading() == (0, 3)
    unit = Submodule.ideal(ring, [ring.one])
    assert colength_difference(I, unit) == 3


def test_series_unit_and_zero():
    ring = PolyRing(5, ["x", "y", "z"])
    assert hilbert_series(Submodule.ideal(ring, [ring.one])).is_zero()
    zero_hs = hilbert_series(Submodule.ideal(ring, []))
    assert zero_hs.pole_order() == 3


@settings(max_examples=200, deadline=None)
@given(
    q=st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6),
    m=st.integers(0, 6),
    shift=st.integers(-40, 40),
    n=st.integers(0, 4),
)
def test_leading_matches_stepwise_division(q, m, shift, n):
    # Q with Q(1) != 0, times (1-t)^m, shifted by t^shift, over (1-t)^n:
    # m > n leaves a numerator divisible past the denominator
    q = {e: c for e, c in q.items() if c}
    if sum(q.values()) == 0:
        q[0] = q.get(0, 0) + 1
    numer = {e + shift: c for e, c in times_one_minus_t(q, m).items()}
    hs = HilbertSeries.from_dict(numer, n)
    expected = (n - m, sum(q.values())) if m <= n else (0, 0)
    assert hs.leading() == series_leading(numer, n) == expected
    assert hs.pole_order() == expected[0]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_leading_of_the_zero_series(n):
    assert HilbertSeries((), n).leading() == series_leading({}, n) == (0, 0)


@pytest.mark.parametrize("lo", [0, -(10**9) // 2])
def test_leading_reads_a_billion_degree_span_at_once(lo):
    # (t^lo - t^(lo+N))^2 / (1-t)^3 = t^(2lo) (1 + ... + t^(N-1))^2 / (1-t):
    # stepwise division would walk all 2N degrees twice
    N = 10**9
    numer = {2 * lo: 1, 2 * lo + N: -2, 2 * lo + 2 * N: 1}
    assert HilbertSeries.from_dict(numer, 3).leading() == (1, N * N)
    assert HilbertSeries.from_dict(numer, 1).leading() == (0, 0)


def test_series_twisted_module():
    # F = S(-1) + S(-2) over 2 variables: dims d + (d-1) in degree d
    ring = PolyRing(3, ["x", "y"])
    U = Submodule(ring, 2, [], twists=(1, 2))
    hs = hilbert_series(U)
    for d in range(1, 7):
        expect = free_module_dimension((1, 2), 2, d)
        assert hs.coefficient(d) == expect


@pytest.mark.parametrize("p,nvars", [(3, 2), (5, 3)])
def test_series_matches_bruteforce_dimensions(p, nvars):
    rng = random.Random(60 * p + nvars)
    ring = PolyRing(p, [f"v{i}" for i in range(nvars)])
    for trial in range(6):
        gens = [random_homog_poly(ring, rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        rels = [random_homog_poly(ring, rng, 2)] if trial % 2 else []
        U = Submodule.ideal(ring, gens, relations=rels)
        hs = hilbert_series(U)
        span = spanning_dicts(U)
        for d in range(0, 7):
            free = free_module_dimension((0,), nvars, d)
            used = naive_graded_dimension(span, (0,), nvars, p, d) if span else 0
            assert hs.coefficient(d) == free - used, (p, trial, d)


def test_series_bruteforce_module_case():
    rng = random.Random(11)
    p, nvars = 3, 2
    ring = PolyRing(p, ["x", "y"])
    twists = (0, 1)
    gens = []
    for _ in range(2):
        d = rng.randrange(2, 4)
        gens.append(
            ModVector((random_homog_poly(ring, rng, d), random_homog_poly(ring, rng, d - 1)))
        )
    U = Submodule(ring, 2, gens, twists=twists)
    hs = hilbert_series(U)
    span = spanning_dicts(U)
    for d in range(0, 8):
        free = free_module_dimension(twists, nvars, d)
        used = naive_graded_dimension(span, twists, nvars, p, d)
        assert hs.coefficient(d) == free - used


# exponents past 343 = 7^3; half of them small, so that generators share
# variables. Generating sets need not be minimal: the cut leads of
# certify_saturation reach the numerator as they are, so repeats and
# multiples of drawn generators join them.
_monomial_ideals = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 400))] * n),
        min_size=1,
        max_size=7,
    ).flatmap(
        lambda gens: st.lists(
            st.tuples(st.sampled_from(gens), st.tuples(*[st.integers(0, 3)] * n)),
            max_size=4,
        ).map(lambda extra: gens + [tuple(a + b for a, b in zip(g, m)) for g, m in extra])
    )
)


@settings(max_examples=100, deadline=None)
@given(_monomial_ideals)
def test_monomial_ideal_series_match_the_taylor_oracle(gens):
    nvars = len(gens[0])
    ring = PolyRing(7, [f"v{i}" for i in range(nvars)])
    hs = hilbert_series(Submodule.ideal(ring, [ring.monomial(m) for m in gens]))
    assert hs.denom_power == nvars
    assert hs.as_dict() == taylor_numerator(gens, nvars)
    assert _monomial_numerator(gens) == taylor_numerator(gens, nvars)


@settings(max_examples=100, deadline=None)
@given(_monomial_ideals.flatmap(lambda gens: st.tuples(st.just(gens), st.permutations(range(len(gens[0]))))))
def test_monomial_numerator_is_invariant_under_permuted_variables(case):
    # the slicer picks the variable with the fewest distinct exponents,
    # the lowest index on a tie, so a permutation moves its choice
    gens, perm = case
    permuted = [tuple(g[i] for i in perm) for g in gens]
    assert _monomial_numerator(permuted) == _monomial_numerator(gens)


def test_numerator_recursion_depth_does_not_grow_with_exponents():
    # Slicing recurses at most nvars - 2 deep, whatever the exponents.
    # A rule that stepped down one exponent per level recursed 1153 deep
    # on this ideal. Outside Hypothesis, which raises the recursion limit
    # while it runs a test, that is a RecursionError.
    gens = [(0, 297, 3, 400), (400, 5, 1, 1), (2, 1, 362, 1), (400, 51, 1, 0),
            (400, 1, 1, 2), (1, 2, 355, 0), (0, 332, 1, 2)]
    ring = PolyRing(7, ["a", "b", "c", "d"])
    hs = hilbert_series(Submodule.ideal(ring, [ring.monomial(m) for m in gens]))
    assert hs.as_dict() == taylor_numerator(gens, 4)


def _staircase_ideals(shape: str) -> list:
    """Monomial generating sets too large for the Taylor oracle: seeded
    random ones in three variables, the shape of the lead sets of
    hk_value on the Fermat cubic, where x^3 bounds the first exponent,
    those lead sets themselves, and those of hk_value on a 4-variable
    cone, two quadrics over F_7, which is worked over S in all four."""
    if "_q" in shape:
        name, q = shape.split("_q")
        if name == "hk":
            R = RingSpec(19, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
        else:
            R = RingSpec(7, ["x", "y", "z", "w"], ["x^2 + y^2 - z*w", "x*y + z^2 + 3*w^2"])
        gb = bracket_power(R.ideal(R.variables), int(q)).groebner()
        return [[lead for _, lead in gb.lead_terms()]]
    rng = random.Random(f"staircase-{shape}")
    out = []
    for k in range(6):
        gens = []
        for _ in range(rng.randint(20, 80)):
            # degrees 15..18: few generators divide another
            d = rng.randint(15, 18)
            x = rng.randint(0, 3) if shape == "hk" else rng.randint(0, d)
            y = rng.randint(0, d - x)
            gens.append((x, y, d - x - y))
        if shape == "hk":
            gens.append((3, 0, 0))
        if k % 2:  # finite colength
            gens += [(rng.randint(16, 24), 0, 0), (0, rng.randint(16, 24), 0), (0, 0, rng.randint(16, 24))]
        gens += [rng.choice(gens) for _ in range(5)]
        out.append(gens)
    return out


@pytest.mark.parametrize("shape", ["random", "hk", "hk_q19", "hk_q361", "quadrics_q7", "quadrics_q49"])
def test_numerators_of_large_lead_sets_match_the_staircase_oracle(shape):
    # every numerator has degree at most that of the lcm of all
    # generators (Taylor), so equal coefficients up to there make the
    # numerators equal; for a finite colength, such as the hk leads',
    # that runs past the socle degree
    for gens in _staircase_ideals(shape):
        n = len(gens[0])
        ring = PolyRing(19, ["x", "y", "z", "w"][:n])
        top = sum(max(g[i] for g in gens) for i in range(n))
        hs = hilbert_series(Submodule.ideal(ring, [ring.monomial(m) for m in gens]))
        assert hs.as_dict() == _monomial_numerator(gens)
        assert max(hs.as_dict(), default=0) <= top
        for d in range(top + 1):
            assert hs.coefficient(d) == staircase_dimension(gens, n, d), d


def test_colength_infinite_detected():
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2")])
    J = Submodule.ideal(ring, [ring.parse("x")])
    with pytest.raises(GhkHypothesisError):
        colength_difference(I, J)
    with pytest.raises(GhkHypothesisError):
        # containment violated
        colength_difference(J, I)


def test_colength_finite_quotient_pair():
    # (x^2, xy, y^3) <= (x, y^2): quotient has basis {y^2, xy^2?...}
    # lengths via independent counting below
    p = 5
    ring = PolyRing(p, ["x", "y"])
    small = Submodule.ideal(ring, [ring.parse(s) for s in ("x^2", "x*y", "y^3")])
    big = Submodule.ideal(ring, [ring.parse(s) for s in ("x", "y^2")])
    got = colength_difference(small, big)
    count = 0
    for d in range(0, 9):
        dim_small = naive_graded_dimension(spanning_dicts(small), (0,), 2, p, d)
        dim_big = naive_graded_dimension(spanning_dicts(big), (0,), 2, p, d)
        count += dim_big - dim_small
    assert got == count == 2


# ---------------------------------------------------------------------------
# bracket powers


def test_bracket_power_basic():
    ring = PolyRing(3, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x + y")])
    B = bracket_power(I, 3)
    assert [str(v[0]) for v in B.gens] == ["x^3 + y^3"]
    with pytest.raises(GhkHypothesisError):
        bracket_power(I, 2)


def test_bracket_power_keeps_relations():
    ring = PolyRing(5, ["x", "y"])
    rel = ring.parse("x^2 + y^2")
    I = Submodule.ideal(ring, [ring.parse("x")], relations=[rel])
    B = bracket_power(I, 5)
    assert B.relations == (rel,)
    # x^5 in normal form: x^2 = -y^2 modulo the relation
    assert [str(v[0]) for v in B.gens] == ["x*y^4"]
    assert B.contains(ring.parse("x^5"))
    assert B == Submodule.ideal(ring, [ring.parse("x^5")], relations=[rel])
    assert B.contains(rel)  # relations still present in the span
    assert not B.contains(ring.parse("x^2"))


def test_relation_basis_is_built_once_per_call(monkeypatch):
    # each bracket power builds the relations' basis (the relation alone
    # as its span) and reduces every p-th power step by it; a RingSpec
    # builds its own once for its Hilbert series. No call reads a basis
    # an earlier call left behind
    from ghk import groebner

    spans = []
    real = groebner._basis

    def counting(ring, twists, vectors, *args, relations=(), **kwargs):
        vectors, relations = list(vectors), list(relations)
        spans.append(len(vectors) + len(relations))
        return real(ring, twists, vectors, *args, relations=relations, **kwargs)

    monkeypatch.setattr(groebner, "_basis", counting)
    R = RingSpec(5, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    I = R.ideal(["x", "y", "z"])
    for q in (5, 25):
        assert bracket_power(I, q).contains(R.parse(f"x^{q}"))
    for _ in range(2):
        assert R.hilbert_series().pole_order() == 2
    # the relations, then each bracket ideal; then the ring's series
    assert spans == [1, 4, 1, 4, 1]


# (variables, relations, primes): a hypersurface in every characteristic
# drawn, and a cone cut out by two quadrics, whose relation basis has
# several elements
BRACKET_RINGS = [
    (["x", "y", "z"], ["x^3 + y^3 + z^3"], [2, 3, 5, 7]),
    (["x", "y", "z", "w"], ["x^2 + y^2 - z*w", "x*y + z^2 + 3*w^2"], [7]),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.sampled_from(BRACKET_RINGS), e=st.sampled_from([1, 2, 3]))
def test_bracket_power_generators_are_normal_forms_of_the_literal_powers(data, shape, e):
    variables, relations, primes = shape
    n, p = len(variables), data.draw(st.sampled_from(primes))
    R = RingSpec(p, variables, relations)
    ring, q = R.ring, p**e
    mons = monomials_of_degree(n, data.draw(st.sampled_from([1, 2])))
    terms = data.draw(st.lists(st.sampled_from(mons), min_size=1, max_size=3, unique=True))
    g = ring.from_pairs((m, data.draw(st.integers(1, p - 1))) for m in terms)
    B = bracket_power(R.ideal([g]), q)
    assert B.relations == R.relations
    # a q-th power that lies in the relation ideal has normal form 0,
    # and the zero generator is dropped
    w = B.gens[0][0] if B.gens else ring.zero
    leads = [lead for _, lead in Submodule.ideal(ring, R.relations).groebner().lead_terms()]
    for m, _ in w.terms():
        assert not any(all(a <= b for a, b in zip(lead, m)) for lead in leads), (w, m)
    # the oracle's linear algebra, in degrees with few monomials
    literal = frobenius_power(g, q)
    if math.comb(literal.degree() + n - 1, n - 1) <= 160:
        rel_dicts = [to_dict(ModVector((r,))) for r in R.relations]
        assert naive_member(to_dict(ModVector((w - literal,))), rel_dicts, (0,), n, p)


def test_bracket_power_generator_independence():
    # the bracket power is an ideal invariant: different generating sets
    # of the same ideal give the same bracket power (additivity of q-th
    # powers in characteristic p)
    ring = PolyRing(3, ["x", "y"])
    I1 = Submodule.ideal(ring, [ring.parse("x"), ring.parse("y")])
    I2 = Submodule.ideal(ring, [ring.parse("x + y"), ring.parse("y"), ring.parse("x + 2*y")])
    assert bracket_power(I1, 9) == bracket_power(I2, 9)


def test_bracket_power_rank_guard():
    ring = PolyRing(3, ["x", "y"])
    U = Submodule(ring, 2, [])
    with pytest.raises(GhkError):
        bracket_power(U, 3)


# ---------------------------------------------------------------------------
# intersect


def test_intersect_principal():
    ring = PolyRing(7, ["x", "y"])
    X = Submodule.ideal(ring, [ring.parse("x")])
    Y = Submodule.ideal(ring, [ring.parse("y")])
    assert intersect(X, Y) == Submodule.ideal(ring, [ring.parse("x*y")])


def test_intersect_hand_case():
    ring = PolyRing(7, ["x", "y"])
    A = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("y")])
    B = Submodule.ideal(ring, [ring.parse("x")])
    expect = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])
    assert intersect(A, B) == expect


@pytest.mark.parametrize("p", [2, 3, 5])
def test_intersect_membership_semantics(p):
    rng = random.Random(17 * p)
    ring = PolyRing(p, ["x", "y"])
    for trial in range(5):
        A = Submodule.ideal(ring, [random_homog_poly(ring, rng, rng.randrange(1, 3)) for _ in range(2)])
        B = Submodule.ideal(ring, [random_homog_poly(ring, rng, rng.randrange(1, 3)) for _ in range(2)])
        W = intersect(A, B)
        gba, gbb, gbw = buchberger(A), buchberger(B), buchberger(W)
        for d in range(1, 6):
            for _ in range(5):
                f = random_homog_poly(ring, rng, d)
                assert gbw.contains(f) == (gba.contains(f) and gbb.contains(f))


def test_intersect_modules_with_relations():
    # inside R = F_5[x,y]/(x^2+y^2), rank 2
    ring = PolyRing(5, ["x", "y"])
    rel = ring.parse("x^2 + y^2")
    x, y = ring.gens()
    zero = ring.zero
    A = Submodule(ring, 2, [ModVector((x, zero)), ModVector((zero, y))], relations=[rel])
    B = Submodule(ring, 2, [ModVector((y, zero)), ModVector((zero, y))], relations=[rel])
    W = intersect(A, B)
    gbw = buchberger(W)
    gba, gbb = buchberger(A), buchberger(B)
    rng = random.Random(3)
    for d in range(1, 5):
        for _ in range(8):
            v = ModVector((random_homog_poly(ring, rng, d), random_homog_poly(ring, rng, d)))
            assert gbw.contains(v) == (gba.contains(v) and gbb.contains(v))


def test_intersect_ambient_guards():
    r1 = PolyRing(7, ["x", "y"])
    r2 = PolyRing(5, ["x", "y"])
    with pytest.raises(RingMismatchError):
        intersect(Submodule.ideal(r1, [r1.parse("x")]), Submodule.ideal(r2, [r2.parse("x")]))
    A = Submodule.ideal(r1, [r1.parse("x")], relations=[r1.parse("x^2 + y^2")])
    B = Submodule.ideal(r1, [r1.parse("x")])
    with pytest.raises(RingMismatchError):
        intersect(A, B)


# ---------------------------------------------------------------------------
# colon


def test_colon_hand_value_cross_checked():
    # ((x^2, x*y) : (x, y)) = (x); cross-checked against brute force
    # membership below before freezing the expected value.
    p = 7
    ring = PolyRing(p, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])
    J = Submodule.ideal(ring, [ring.parse("x"), ring.parse("y")])
    C = colon(I, J)
    assert C == Submodule.ideal(ring, [ring.parse("x")])
    # brute force: v in (I : J) iff v*x in I and v*y in I
    gbi, gbc = buchberger(I), buchberger(C)
    x, y = ring.gens()
    for d in range(0, 5):
        for m in monomials_of_degree(2, d):
            v = ring.monomial(m)
            want = gbi.contains(v * x) and gbi.contains(v * y)
            assert gbc.contains(v) == want


def test_colon_by_element_over_quotient_ring():
    # R = F_7[x,y]/(x*y): ((x) : y) contains x trivially but also
    # everything killed into (x) by y; y*1 = y not in (x), y*x = 0 in R.
    ring = PolyRing(7, ["x", "y"])
    rel = ring.parse("x*y")
    I = Submodule.ideal(ring, [ring.parse("x")], relations=[rel])
    C = colon(I, ring.parse("y"))
    gbc = buchberger(C)
    assert gbc.contains(ring.parse("x"))
    assert not gbc.contains(ring.one)
    # v = x works: y*x = 0 in R lies in (x). v = y fails: y^2 not in (x) mod x*y
    assert not gbc.contains(ring.parse("y"))


@pytest.mark.parametrize("p", [3, 5])
def test_colon_random_vs_bruteforce(p):
    rng = random.Random(23 * p)
    ring = PolyRing(p, ["x", "y"])
    for trial in range(5):
        I = Submodule.ideal(ring, [random_homog_poly(ring, rng, rng.randrange(2, 4)) for _ in range(2)])
        g = random_homog_poly(ring, rng, rng.randrange(1, 3))
        if g.is_zero():
            continue
        C = colon(I, g)
        gbi, gbc = buchberger(I), buchberger(C)
        for d in range(0, 5):
            for _ in range(6):
                v = random_homog_poly(ring, rng, d) if d else ring.one
                assert gbc.contains(v) == gbi.contains(v * g)
        # J of two generators of degrees 1 and 2: one elimination with
        # the blocks twisted apart
        J = [random_homog_poly(ring, rng, 1), random_homog_poly(ring, rng, 2)]
        gbc = buchberger(colon(I, J))
        for d in range(0, 5):
            for _ in range(6):
                v = random_homog_poly(ring, rng, d) if d else ring.one
                assert gbc.contains(v) == all(gbi.contains(v * g) for g in J)
    # a rank-2 module with twists (0, 1) and the same J
    ring3 = PolyRing(p, ["x", "y", "z"])
    for trial in range(3):
        U = random_rank2_module(ring3, rng, [])
        J = [random_homog_poly(ring3, rng, 1), random_homog_poly(ring3, rng, 2)]
        gbu, gbc = buchberger(U), buchberger(colon(U, J))
        for d in range(1, 5):
            for _ in range(6):
                v = ModVector((random_homog_poly(ring3, rng, d), random_homog_poly(ring3, rng, d - 1)))
                assert gbc.contains(v) == all(gbu.contains(v.poly_mul(g)) for g in J)


def test_intersect_and_colon_are_one_elimination(monkeypatch):
    # a colon by (x, y, z) and an intersection each build exactly one
    # Groebner basis: the elimination whose last block is the result
    import ghk.groebner as groebner

    ring = PolyRing(7, ["x", "y", "z"])
    rels = [ring.parse("x^3 + y^3 + z^3")]
    point = Submodule.ideal(ring, [ring.parse("z"), ring.parse("x + y")], relations=rels)
    A = Submodule.ideal(ring, [ring.parse("x"), ring.parse("y^2")], relations=rels)
    B = Submodule.ideal(ring, [ring.parse("y"), ring.parse("z^2")], relations=rels)
    calls = []
    basis = groebner._basis

    def counted(*args, **kwargs):
        calls.append(args[1])
        return basis(*args, **kwargs)

    monkeypatch.setattr(groebner, "_basis", counted)
    colon(point, ring.gens())
    assert len(calls) == 1
    intersect(A, B)
    assert len(calls) == 2


def test_colon_module_case():
    # (U : g) for a rank-2 module with twists
    ring = PolyRing(5, ["x", "y"])
    x, y = ring.gens()
    zero = ring.zero
    U = Submodule(ring, 2, [ModVector((x * x, zero)), ModVector((zero, x * y))])
    C = colon(U, x)
    gbc, gbu = buchberger(C), buchberger(U)
    rng = random.Random(8)
    for d in range(1, 5):
        for _ in range(6):
            v = ModVector((random_homog_poly(ring, rng, d), random_homog_poly(ring, rng, d)))
            assert gbc.contains(v) == gbu.contains(v.poly_mul(x))


def test_colon_zero_divisor_rejected():
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x")])
    with pytest.raises(GhkHypothesisError):
        colon(I, ring.zero)
    with pytest.raises(GhkHypothesisError):
        colon(I, [])


def random_rank2_module(ring, rng, rels):
    """1-3 homogeneous generators of module degree 1-3 in S ⊕ S(-1)."""
    twists = (0, 1)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        deg = rng.randrange(1, 4)
        gens.append(
            ModVector(
                tuple(
                    random_homog_poly(ring, rng, deg - e) if rng.random() < 0.7 else ring.zero
                    for e in twists
                )
            )
        )
    return Submodule(ring, 2, gens, twists=twists, relations=rels)


def _packed_record(ctx, v):
    """The engine's record of v made monic: (lead key, component, lead
    monomial, tail terms)."""
    terms = ctx.vec_to_terms(v)
    inv = pow(terms[0][1], -1, ctx.p)
    k = terms[0][0]
    return (k, *ctx.split(k), tuple((tk, tc * inv % ctx.p) for tk, tc in terms[1:]))


@pytest.mark.parametrize("relations", [(), ("x^3 + y^3 + z^3",)])
def test_elimination_installs_the_reduced_basis(relations):
    # intersect and colon install the kept block of the elimination
    # basis as the result's basis, re-keyed for the result's order; it
    # must equal the records packed afresh from the result's generators,
    # and be the basis the engine computes from them, for ideals and for
    # rank 2 with unequal twists
    rng = random.Random(31 + len(relations))
    ring = PolyRing(7, ["x", "y", "z"])
    rels = [ring.parse(r) for r in relations]

    def ideal():
        gens = [random_homog_poly(ring, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        return Submodule.ideal(ring, gens, relations=rels)

    for make in (ideal, lambda: random_rank2_module(ring, rng, rels)):
        for _ in range(4):
            A, B = make(), make()
            g, h = random_homog_poly(ring, rng, 1), random_homog_poly(ring, rng, 2)
            for W in (intersect(A, B), colon(A, g), colon(A, [g, h])):
                ctx = _Ctx(ring, W.twists)
                packed = [_packed_record(ctx, v) for v in W.gens]
                assert W.groebner()._records == packed
                fresh = Submodule(ring, W.rank, W.gens, twists=W.twists, relations=rels)
                assert W.groebner().vectors == fresh.groebner().vectors


@pytest.mark.parametrize("relations", [(), ("x^3 + y^3 + z^3",)])
def test_rank2_intersect_and_colon_match_dimension_counts(relations):
    # dim (A cap B)_d = dim A_d + dim B_d - dim (A + B)_d and
    # dim (A : g)_d = dim F_d - dim (A + gF)_{d+1} + dim A_{d+1}, over S
    # with the relation columns inside A and B; right-hand sides by
    # degreewise linear algebra
    rng = random.Random(57 + len(relations))
    ring = PolyRing(7, ["x", "y", "z"])
    rels = [ring.parse(r) for r in relations]
    twists = (0, 1)

    def dim(gens, d):
        return naive_graded_dimension(gens, twists, 3, 7, d)

    for _ in range(20):
        A, B = random_rank2_module(ring, rng, rels), random_rank2_module(ring, rng, rels)
        g = random_homog_poly(ring, rng, 1)
        span_a, span_b = spanning_dicts(A), spanning_dicts(B)
        g_free = [{(j, m): c for m, c in g.terms()} for j in range(2)]
        meet = hilbert_series(intersect(A, B))
        quo = hilbert_series(colon(A, g))
        for d in range(5):
            free = free_module_dimension(twists, 3, d)
            assert free - meet.coefficient(d) == (
                dim(span_a, d) + dim(span_b, d) - dim(span_a + span_b, d)
            )
            assert free - quo.coefficient(d) == (
                free - dim(span_a + g_free, d + 1) + dim(span_a, d + 1)
            )


# ---------------------------------------------------------------------------
# saturation


def test_saturate_strips_irrelevant_component():
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])  # x*(x,y)
    expect = Submodule.ideal(ring, [ring.parse("x")])
    assert saturate_by_colon(I) == expect
    assert saturate(I) == expect


def test_saturate_mprimary_gives_unit():
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y"), ring.parse("y^3")])
    for route in (saturate_by_colon, saturate):
        S = route(I)
        assert buchberger(S).is_full_module()


def test_saturate_already_saturated():
    ring = PolyRing(7, ["x", "y", "z"])
    I = Submodule.ideal(ring, [ring.parse("x"), ring.parse("y")])
    assert saturate_by_colon(I) == I
    assert saturate(I) == I


@pytest.mark.parametrize("p", [3, 5, 7])
def test_saturate_methods_agree_random(p):
    rng = random.Random(101 * p)
    ring = PolyRing(p, ["x", "y"])
    for trial in range(6):
        gens = [random_homog_poly(ring, rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 3))]
        rels = [random_homog_poly(ring, rng, 3)] if trial % 3 == 0 else []
        I = Submodule.ideal(ring, gens, relations=rels)
        assert saturate_by_colon(I) == saturate(I)
    # generators times a product of two variables: torsion, or a
    # saturation no variable reaches alone, on the coordinate lines, so
    # most certificates meet several variable saturations
    multi = torsion = 0
    for trial in range(20):
        ring = PolyRing(p, ["x", "y", "z"][: 2 + trial % 2])
        rank = 1 + trial // 2 % 2
        twists = (0,) * rank if trial % 8 < 4 else (0, 1)[:rank]
        xs = ring.gens()
        gens = []
        for _ in range(rank + rng.randrange(1, 3)):
            d = rng.randrange(3)
            w = rng.choice(xs) * rng.choice(xs)
            v = [random_homog_poly(ring, rng, d + max(twists) - t) if rng.random() < 0.8 else ring.zero for t in twists]
            gens.append(ModVector(tuple(f * w for f in v)))
        rels = [random_homog_poly(ring, rng, 3)] if trial % 4 == 3 else []
        U = Submodule(ring, rank, gens, twists=twists, relations=rels)
        ref = saturate_by_colon(U)
        assert saturate(U) == ref
        cert = certify_saturation(U)
        assert cert.length == colength_difference(U, ref)
        multi += len(cert.variables) > 1
        torsion += len(cert.variables) > 1 and cert.length > 0
    assert multi >= 8 and torsion >= 5


def test_saturate_methods_agree_on_quotient_ring():
    ring = PolyRing(7, ["x", "y", "z"])
    rel = ring.parse("x^3 + y^3 + z^3")
    I = Submodule.ideal(ring, [ring.parse("z^7"), ring.parse("x^7 + 6*y^7")], relations=[rel])
    a = saturate_by_colon(I)
    b = saturate(I)
    assert a == b


def test_saturate_module_equal_twists_both_methods():
    ring = PolyRing(5, ["x", "y"])
    x, y = ring.gens()
    zero = ring.zero
    gens = [
        ModVector((x, zero)),
        ModVector((y, zero)),
        ModVector((zero, x)),
        ModVector((zero, y)),
    ]
    U = Submodule(ring, 2, gens, twists=(1, 1))
    a = saturate_by_colon(U)
    b = saturate(U)
    assert a == b
    assert buchberger(a).is_full_module()


@pytest.mark.parametrize(
    "twists, gens",
    [
        ((0, 1), [("x^2", "y")]),
        ((0, 1), [("x^3", "x*y"), ("x^2*y", "y^2")]),
        ((0, 2), [("3*y^3", "4*y"), ("2*x*y^2", "5*x")]),
        # non-split: the certificate needs the module-degree "top" order
        # (without it the first certifies a length of 9, the second 16)
        ((0, 2), [("4*x*y^3", "3*x^2 + 5*y^2"), ("4*x^3*y + 3*x*y^3 + 6*y^4", "6*x^2 + y^2")]),
        ((0, 2), [("x^4 + y^4", "x^2"), ("x^3*y", "x*y + y^2")]),
    ],
)
def test_saturate_divide_equals_colon_unequal_twists(twists, gens):
    ring = PolyRing(7, ["x", "y"])
    vecs = [ModVector((ring.parse(a), ring.parse(b))) for a, b in gens]
    U = Submodule(ring, 2, vecs, twists=twists)
    ref = saturate_by_colon(U)
    assert saturate(U) == ref
    cert = certify_saturation(U)
    assert len(cert.variables) == 1
    assert cert.length == colength_difference(U, ref)


def test_certificate_reads_its_torsion_once(monkeypatch):
    # the pole order and the length come from one leading() of each
    # series tried; reading the length afterwards computes nothing
    ring = PolyRing(7, ["x", "y", "z"])
    m = ["x", "y", "z"]
    I = Submodule.ideal(ring, [ring.parse(f"{a}*{b}*{c}") for a in m for b in m for c in m[1:]])
    calls = []
    real = HilbertSeries.leading

    def counting(series):
        calls.append(series)
        return real(series)

    monkeypatch.setattr(HilbertSeries, "leading", counting)
    cert = certify_saturation(I)
    tried = len(calls)
    assert cert.torsion in calls
    assert [cert.length for _ in range(3)] == [cert.length] * 3
    assert len(calls) == tried
    assert cert.length == colength_difference(I, saturate_by_colon(I))


def test_certified_saturation_intersects_on_coordinate_triangle():
    # sat = (xy, yz, xz): every variable vanishes on one of its three
    # points, so no variable certifies alone, and sat(I) is the
    # intersection of all three variable saturations
    ring = PolyRing(7, ["x", "y", "z"])
    m = ["x", "y", "z"]
    triangle = ["x*y", "y*z", "x*z"]
    I = Submodule.ideal(ring, [ring.parse(f"{a}*{b}") for a in m for b in triangle])
    assert certify_saturation(I).variables == (2, 0, 1)
    expect = Submodule.ideal(ring, [ring.parse(f) for f in triangle])
    assert saturate_by_colon(I) == expect
    S = saturate(I)
    assert S == expect
    assert colength_difference(I, S) == 3


def test_saturate_scaled_variables_are_the_irrelevant_ideal():
    # (2x, y, 3z) is the irrelevant ideal: saturate's certified route
    # agrees with the colon route given those generators
    ring = PolyRing(7, ["x", "y", "z"])
    rel = ring.parse("x^3 + y^3 + z^3")
    I = Submodule.ideal(ring, [ring.parse("z^7"), ring.parse("x^7 + 6*y^7")], relations=[rel])
    J = [ring.parse("2*x"), ring.parse("y"), ring.parse("3*z")]
    assert saturate(I) == saturate_by_colon(I, J=J)


def test_saturate_custom_ideal():
    # sat((x^2*y), (x)) = (y): divide out all x-power torsion
    ring = PolyRing(7, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2*y")])
    J = [ring.parse("x")]
    S = saturate_by_colon(I, J=J)
    assert S == Submodule.ideal(ring, [ring.parse("y")])


# ---------------------------------------------------------------------------
# reflexive hull


def test_reflexive_hull_hand_case():
    ring = PolyRing(5, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])
    hull = reflexive_hull(I)
    assert hull == Submodule.ideal(ring, [ring.parse("x")])


def test_reflexive_hull_witness_independent():
    ring = PolyRing(5, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])
    h1 = reflexive_hull(I, witness=ring.parse("x^2"))
    h2 = reflexive_hull(I, witness=ring.parse("x*y"))
    h3 = reflexive_hull(I, witness=ring.parse("x^2 + 2*x*y"))
    assert h1 == h2 == h3


def test_reflexive_hull_validation():
    ring = PolyRing(5, ["x", "y"])
    I = Submodule.ideal(ring, [ring.parse("x^2")])
    with pytest.raises(GhkHypothesisError):
        reflexive_hull(Submodule.ideal(ring, []))
    with pytest.raises(GhkHypothesisError):
        reflexive_hull(I, witness=ring.parse("y"))
    with pytest.raises(GhkHypothesisError):
        reflexive_hull(I, witness=ring.zero)


def test_reflexive_hull_on_curve_is_saturated():
    ring = PolyRing(7, ["x", "y", "z"])
    rel = ring.parse("x^3 + y^3 + z^3")
    I = Submodule.ideal(
        ring, [ring.parse("x*z + 6*y^2"), ring.parse("x^2 + 3*y*z")], relations=[rel]
    )
    hull = reflexive_hull(I)
    sat = saturate(hull)
    assert colength_difference(hull, sat) == 0


# ---------------------------------------------------------------------------
# ring validation, degrees, smoothness


def test_ringspec_free_plane():
    R = RingSpec(7, ["x", "y"])
    assert R.krull_dimension() == 2
    assert R.proj_degree() == 1
    rep = R.validate()
    assert rep.ok and rep.smooth and rep.degree == 1 and rep.dimension == 2


def test_ringspec_fermat_cubic():
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    assert R.krull_dimension() == 2
    assert R.proj_degree() == 3
    rep = R.validate()
    assert rep.ok and rep.smooth and rep.hypersurface
    assert rep.degree == 3 and not rep.warnings


def test_ringspec_fermat_cubic_char3_singular():
    R = RingSpec(3, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    rep = R.validate()
    assert not rep.smooth and not rep.ok


def test_ringspec_cuspidal_cubic_singular():
    R = RingSpec(7, ["x", "y", "z"], ["x^2*z - y^3"])
    rep = R.validate()
    assert rep.dimension == 2 and rep.degree == 3
    assert not rep.smooth and not rep.ok


def test_ringspec_conic():
    R = RingSpec(7, ["x", "y", "z"], ["x*y - z^2"])
    assert R.proj_degree() == 2
    assert R.validate().ok


def test_ringspec_wrong_dimension():
    R3 = RingSpec(7, ["x", "y", "z"])
    assert R3.krull_dimension() == 3
    with pytest.raises(GhkHypothesisError):
        R3.proj_degree()
    with pytest.raises(GhkHypothesisError):
        R3.require_dim2()
    rep = R3.validate()
    assert not rep.ok and rep.degree is None


def test_ringspec_non_hypersurface_warns():
    # twisted cubic-ish: two quadrics in 4 variables cut a dim-2 cone
    R = RingSpec(
        7,
        ["x", "y", "z", "w"],
        ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
    )
    rep = R.validate()
    assert rep.dimension == 2
    assert not rep.hypersurface
    assert any("hypersurface" in w for w in rep.warnings)


def test_ringspec_rejects_inhomogeneous_relation():
    with pytest.raises(GhkError):
        RingSpec(7, ["x", "y"], ["x^2 + y"])


# ---------------------------------------------------------------------------
# sheaf degree


def test_sheaf_degree_principal():
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    # a principal ideal generated in degree a has sheaf degree -a*degY
    assert sheaf_degree(R, R.ideal(["x"])) == -3
    assert sheaf_degree(R, R.ideal(["x + y"])) == -3
    assert sheaf_degree(R, R.ideal(["x*z + y^2"])) == -6


def test_sheaf_degree_point():
    # (z, 3x - y) cuts the single rational point [1:3:0] on the Fermat
    # cubic over F_7 (1 + 27 = 28 = 0 mod 7), so the degree is -1
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    I = R.ideal(["z", "3*x - y"])
    assert sheaf_degree(R, I) == -1


def test_sheaf_degree_unit_and_zero():
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    # an irrelevant-primary ideal saturates to the unit ideal: degree 0
    assert sheaf_degree(R, R.ideal(["x", "y", "z"])) == 0
    with pytest.raises(GhkHypothesisError):
        sheaf_degree(R, R.ideal([]))
    R3 = RingSpec(7, ["x", "y", "z"])
    R3plane = RingSpec(7, ["x", "y"])
    with pytest.raises(GhkHypothesisError):
        sheaf_degree(R3, R3.ideal(["x"]))
    assert sheaf_degree(R3plane, R3plane.ideal(["x"])) == -1


def test_sheaf_degree_saturation_invariance():
    # x*(x, y) and (x) have the same saturation, hence the same degree
    R = RingSpec(7, ["x", "y"])
    assert sheaf_degree(R, R.ideal(["x^2", "x*y"])) == sheaf_degree(R, R.ideal(["x"]))


# ---------------------------------------------------------------------------
# budgets thread through


def test_budget_threads_through_saturate():
    ring = PolyRing(7, ["x", "y"])
    # irrelevant-primary, then one that no single variable certifies
    for gens in (["x^2", "x*y", "y^3"], ["x^3*y", "x*y^3", "x^2*y^2"]):
        I = Submodule.ideal(ring, [ring.parse(g) for g in gens])
        for route in (saturate, saturate_by_colon):
            with pytest.raises(BudgetExceededError):
                route(I, budget=GbBudget(max_pairs=1))


def test_poly_matrix_det_expands_by_cofactors_past_two_rows():
    # smoothness_check takes minors of size n - 2, so 3 x 3 and up only
    # for curves in P^4 and beyond: checked against the hand expansion
    ring = PolyRing(7, ["x", "y", "z"])
    a, b, c, d, e, f, g, h, i = (
        ring.parse(t)
        for t in ("x^2", "y + z", "3", "x*y", "z^2 - x", "2*y", "x + y", "y^2", "z")
    )
    hand = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert _poly_matrix_det([[a, b, c], [d, e, f], [g, h, i]]) == hand


def test_smoothness_report_shape():
    R = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    rep = smoothness_check(R)
    assert rep.smooth
    d = rep.to_json_dict()
    assert set(d) == {"smooth", "singular_locus_dimension", "details"}
