"""Field, order-key, polynomial, parser, and Frobenius tests.

Expected values come from the naive dense oracle in naive_poly.py or
from hand calculations noted inline.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.arith import (
    EXP_BITS,
    EXP_CAP,
    PackedMonomials,
    Poly,
    PolyRing,
    Record,
    frobenius_power,
    is_prime,
    parse_poly,
)
from ghk.errors import GhkError, GhkHypothesisError, HomogeneityError, ParseError
from ghk.groebner import Submodule, buchberger

from naive_poly import NaivePoly, all_monomials_up_to, ref_order_tuple


# ---------------------------------------------------------------------------
# prime field


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 3)
    assert not is_prime(1)


@pytest.mark.parametrize("p", [2, 3, 7, 13, 101, 10007])
def test_inverse_table_exhaustive(p):
    # the basis of (a*x + y) is monic: x + a^(p-2)*y, every a (a sample
    # of a for the large prime)
    ring = PolyRing(p, ["x", "y"])
    x, y = ring.gens()
    alphas = range(1, p) if p < 1000 else (1, 2, 5000, p - 1)
    for a in alphas:
        (v,) = buchberger(Submodule.ideal(ring, [x * a + y])).vectors
        assert v[0] == x + y * pow(a, p - 2, p)


def test_field_rejects_bad_characteristic():
    for bad in (0, 1, 4, 9, 15, -7, True, 7.0):
        with pytest.raises(GhkHypothesisError):
            PolyRing(bad, ["x"])


# ---------------------------------------------------------------------------
# monomial helpers


def test_mon_helpers():
    pm = PackedMonomials(2)
    assert pm.divides(pm.pack((1, 0)), pm.pack((4, 2)))
    assert not pm.divides(pm.pack((1, 3)), pm.pack((4, 2)))
    assert pm.unpack(pm.lcm(pm.pack((1, 3)), pm.pack((4, 2)))) == (4, 3)


_exponent = st.one_of(st.integers(0, 9), st.integers(EXP_CAP - 3, EXP_CAP))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[st.tuples(_exponent, _exponent)] * n)))
def test_packed_monomials_match_tuples(cols):
    # cols[i] = (a_i, b_i); the tuple definitions are the reference
    a = tuple(x for x, _ in cols)
    b = tuple(y for _, y in cols)
    pm = PackedMonomials(len(a))
    pa, pb = pm.pack(a), pm.pack(b)
    assert pm.unpack(pa) == a
    assert pm.divides(pb, pa) == all(y <= x for x, y in zip(a, b))
    assert pm.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert pm.unpack(pa + pb) == tuple(x + y for x, y in zip(a, b))
    if pm.divides(pb, pa):
        assert pm.unpack(pa - pb) == tuple(x - y for x, y in zip(a, b))
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    assert pm.unpack(pm.lcm(pa, pb)) == lcm
    assert pm.degree(pm.lcm(pa, pb)) == sum(lcm)
    gcd = tuple(min(x, y) for x, y in zip(a, b))
    assert pm.unpack(pm.gcd(pa, pb)) == gcd
    assert (pm.gcd(pa, pb) == 0) == all(not (x and y) for x, y in zip(a, b))
    # minimal generators: the distinct monomials no other one strictly divides
    c = tuple(x if i % 2 else y for i, (x, y) in enumerate(cols))
    d = tuple(y if i % 2 else x for i, (x, y) in enumerate(cols))
    mons = [(a, pa), (b, pb), (c, pm.pack(c)), (d, pm.pack(d)), (lcm, pm.lcm(pa, pb))]
    mons.append((tuple(x + y for x, y in zip(a, b)), pa + pb))
    expected = sorted(
        {
            pk
            for m, pk in mons
            if not any(n != m and all(y <= x for x, y in zip(m, n)) for n, _ in mons)
        }
    )
    assert pm.minimal(sorted(pk for _, pk in mons)) == expected


def test_packing_enforces_the_exponent_cap():
    pm = PackedMonomials(3)
    assert pm.unpack(pm.pack((EXP_CAP, 0, EXP_CAP))) == (EXP_CAP, 0, EXP_CAP)
    with pytest.raises(GhkError):
        pm.pack((0, EXP_CAP + 1, 0))


# ---------------------------------------------------------------------------
# packed order keys vs reference tuples


@pytest.mark.parametrize("kind", ["grevlex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_keys_match_reference(kind, nvars):
    rng = random.Random(12345)
    mons = all_monomials_up_to(nvars, 4 if nvars <= 3 else 3)
    for last in range(nvars):
        pm = PackedMonomials(nvars, last)
        seq = tuple(i for i in range(nvars) if i != last) + (last,)
        sample = rng.sample(mons, min(60, len(mons)))
        for a in sample:
            for b in sample:
                ref = ref_order_tuple(kind, seq, a) > ref_order_tuple(kind, seq, b)
                assert (pm.key(pm.pack(a)) > pm.key(pm.pack(b))) == ref, (last, a, b)
    # the default is the last variable, the order every Poly is sorted in
    ring = PolyRing(7, [f"v{i}" for i in range(nvars)])
    assert all(ring.exponents(ring.key(m)) == m for m in mons)
    pm = PackedMonomials(nvars, nvars - 1)
    assert all(ring.key(m) == pm.key(pm.pack(m)) for m in mons)


@pytest.mark.parametrize("kind", ["grevlex"])
def test_key_shift_constant(kind):
    rng = random.Random(7)
    for last in range(3):
        pm = PackedMonomials(3, last)

        def key(m):
            return pm.key(pm.pack(m))

        for _ in range(200):
            a = tuple(rng.randrange(9) for _ in range(3))
            b = tuple(rng.randrange(9) for _ in range(3))
            ab = tuple(x + y for x, y in zip(a, b))
            assert key(ab) == key(a) + key(b) - pm.low, (kind, last, a, b)


def test_bad_order_inputs():
    for last in (-1, 3, 7):
        with pytest.raises(GhkError):
            PackedMonomials(3, last)
    for last in (True, 1.0):
        with pytest.raises(GhkHypothesisError, match="must be an int"):
            PackedMonomials(3, last)


# ---------------------------------------------------------------------------
# ring construction


def test_ring_validation():
    with pytest.raises(GhkError):
        PolyRing(7, [])
    with pytest.raises(GhkError):
        PolyRing(7, ["x", "x"])
    with pytest.raises(GhkError):
        PolyRing(7, ["x", "2bad"])
    with pytest.raises(GhkHypothesisError):
        PolyRing(6, ["x"])
    # a key of the wrong length or a negative exponent would stand for
    # another monomial
    ring = PolyRing(7, ["x", "y"])
    for bad in ((1,), (0, 0, 5), (-1, 0), (0, EXP_CAP + 1)):
        with pytest.raises(GhkError):
            ring.key(bad)
        with pytest.raises(GhkError):
            ring.variable(0).mul_monomial(bad)
    # a bool or a float where an int belongs is refused, never truncated
    # or read as 0 or 1
    ring = PolyRing(7, ["x", "y", "z"])
    x = ring.variable(0)
    probes = [
        lambda: ring.monomial((1.5, 0, 0)),
        lambda: ring.from_pairs([((1.5, 0, 0), 1)]),
        lambda: ring.from_pairs([((1, 0, 0), 3.7)]),
        lambda: ring.monomial((1, 0, 0), 2.5),
        lambda: x.scale(1.5),
        lambda: ring.key((1.0, 0, 0)),
        lambda: x**True,
        lambda: frobenius_power(x, True),
        lambda: ring.variable(True),
        lambda: is_prime(7.0),
    ]
    for probe in probes:
        with pytest.raises(GhkHypothesisError, match="must be an int"):
            probe()
    with pytest.raises(GhkError, match="not in range"):
        ring.variable(3)  # would be the monomial 1


def test_ring_value_equality():
    r1 = PolyRing(7, ["x", "y"])
    r2 = PolyRing(7, ("x", "y"))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1 != PolyRing(5, ["x", "y"])


# ---------------------------------------------------------------------------
# polynomial arithmetic vs the naive oracle


def _random_pair(rng, p, nvars, maxdeg=3, maxterms=5):
    mons = all_monomials_up_to(nvars, maxdeg)
    data = {}
    for _ in range(rng.randrange(maxterms + 1)):
        data[rng.choice(mons)] = rng.randrange(1, p)
    return data


def _to_ghk(ring, data):
    return ring.from_pairs(list(data.items()))


def _to_naive(p, nvars, data):
    return NaivePoly(p, nvars, data)


def _same(f: Poly, g: NaivePoly) -> bool:
    return {m: c for m, c in f.terms()} == g.d


@pytest.mark.parametrize("p,nvars", [(2, 2), (3, 3), (7, 2), (13, 3)])
def test_arith_matches_oracle(p, nvars):
    rng = random.Random(p * 100 + nvars)
    ring = PolyRing(p, [f"v{i}" for i in range(nvars)])
    for _ in range(120):
        da = _random_pair(rng, p, nvars)
        db = _random_pair(rng, p, nvars)
        fa, fb = _to_ghk(ring, da), _to_ghk(ring, db)
        na, nb = _to_naive(p, nvars, da), _to_naive(p, nvars, db)
        assert _same(fa + fb, na.add(nb))
        assert _same(fa - fb, na.sub(nb))
        assert _same(fa * fb, na.mul(nb))
        assert _same(-fa, na.neg())
        k = rng.randrange(4)
        assert _same(fa**k, na.pow(k))
        c = rng.randrange(p)
        assert _same(fa.scale(c), na.scale(c))
        m = rng.choice(all_monomials_up_to(nvars, 3))
        assert _same(fa.mul_monomial(m, c), na.mul(NaivePoly(p, nvars, {m: c})))
        i = rng.randrange(nvars)
        assert _same(fa.derivative(i), na.derivative(i))
        a = rng.randrange(4)
        xa = tuple(a if j == i else 0 for j in range(nvars))
        assert _same(fa.mul_monomial(xa).divide_by_variable_power(i, a), na)
        # lm, degree and homogeneity, also of the top-degree part
        seq = tuple(range(nvars))
        assert fa.degree() == max((sum(m) for m in na.d), default=-1)
        top = {m: c for m, c in da.items() if sum(m) == fa.degree()}
        for f, d in ((fa, na.d), (_to_ghk(ring, top), top)):
            assert f.is_homogeneous() == (len({sum(m) for m in d}) <= 1)
        if na.d:
            assert fa.lm() == max(na.d, key=lambda m: ref_order_tuple("grevlex", seq, m))
            with pytest.raises(GhkError):  # x_i^short misses a term
                fa.divide_by_variable_power(i, 1 + min(m[i] for m in na.d))


def test_terms_sorted_and_canonical():
    ring = PolyRing(7, ["x", "y", "z"])
    f = ring.parse("z^3 + x*y + 2*x^2 + 5 + 5*z^3")
    keys = [k for k, _ in f._t]
    assert keys == sorted(keys, reverse=True)
    assert all(1 <= c < 7 for _, c in f._t)
    # 5*z^3 + z^3 = 6*z^3, still present; recombine check
    assert f.coeff((0, 0, 3)) == 6


def test_int_mixing():
    ring = PolyRing(7, ["x"])
    x = ring.variable(0)
    assert x + 3 - 3 == x
    assert 2 * x == x + x
    assert (x - x).is_zero()
    assert (1 - x) + (x - 1) == ring.zero


def test_lead_term_and_degree():
    ring = PolyRing(7, ["x", "y", "z"])
    f = ring.parse("x*y + z^3 + x^2")
    # grevlex at degree 2: x^2 > x*y; degree 3 term z^3 beats both
    assert f.lm() == (0, 0, 3)
    assert f.degree() == 3
    assert not f.is_homogeneous()
    with pytest.raises(HomogeneityError):
        f.homogeneous_degree()
    g = ring.parse("x^2 + y*z")
    assert g.homogeneous_degree() == 2
    assert ring.zero.degree() == -1
    with pytest.raises(GhkError):
        ring.zero.lt()


def test_variable_power_division():
    ring = PolyRing(7, ["x", "y"])
    f = ring.parse("x^3*y + 2*x^2*y^2")
    g = f.divide_by_variable_power(0, 2)
    assert g == ring.parse("x*y + 2*y^2")
    with pytest.raises(GhkError):
        f.divide_by_variable_power(0, 3)
    for i, a in ((2, 1), (-1, 1), (0, -1)):
        with pytest.raises(GhkError):
            f.divide_by_variable_power(i, a)


def test_derivative():
    ring = PolyRing(7, ["x", "y", "z"])
    f = ring.parse("x^3 + y^3 + z^3")
    assert f.derivative(0) == ring.parse("3*x^2")
    ring3 = PolyRing(3, ["x", "y"])
    assert ring3.parse("x^3 + y").derivative(0).is_zero()
    with pytest.raises(GhkError):
        f.derivative(3)
    # product rule spot check
    g, h = ring.parse("x*y + z^2"), ring.parse("x + 2*y")
    lhs = (g * h).derivative(1)
    rhs = g.derivative(1) * h + g * h.derivative(1)
    assert lhs == rhs


def test_cross_ring_rejected():
    r1 = PolyRing(7, ["x"])
    r2 = PolyRing(5, ["x"])
    with pytest.raises(GhkError):
        r1.variable(0) + r2.variable(0)


# ---------------------------------------------------------------------------
# parser


def test_parse_precedence_and_unary():
    ring = PolyRing(7, ["x", "y", "z"])
    assert ring.parse("x + y*z^2") == ring.variable(0) + ring.variable(1) * ring.variable(2) ** 2
    assert ring.parse("-x^2") == -(ring.variable(0) ** 2)
    assert ring.parse("(x + y)^2") == (ring.variable(0) + ring.variable(1)) ** 2
    assert ring.parse("2 - 3") == ring.parse("6")
    assert ring.parse("x - - y") == ring.parse("x + y")
    assert ring.parse("7*x").is_zero()


def test_parse_freshman_dream():
    ring = PolyRing(3, ["x", "y"])
    assert ring.parse("(x + y)^3") == ring.parse("x^3 + y^3")


@pytest.mark.parametrize(
    "text",
    ["x +", "3x", "x^y", "x^", "(x + y", "x ** 2", "w + x", "", "x^2^3", "x/y"],
)
def test_parse_errors(text):
    ring = PolyRing(7, ["x", "y", "z"])
    with pytest.raises(ParseError):
        ring.parse(text)


def test_parse_error_position():
    ring = PolyRing(7, ["x", "y"])
    with pytest.raises(ParseError) as ei:
        ring.parse("x + q*y")
    assert ei.value.pos == 4


def test_str_parse_roundtrip():
    rng = random.Random(4242)
    ring = PolyRing(13, ["x", "y", "z"])
    for _ in range(60):
        f = _to_ghk(ring, _random_pair(rng, 13, 3, maxdeg=4, maxterms=6))
        assert ring.parse(str(f)) == f
    assert str(ring.zero) == "0"
    assert str(ring.one) == "1"
    assert str(ring.parse("y + 6*x")) == "6*x + y"


# ---------------------------------------------------------------------------
# Frobenius powers


def test_frobenius_matches_naive_pow():
    # q-th power of 3*x - y over F_7, computed two independent ways
    ring = PolyRing(7, ["x", "y"])
    f = ring.parse("3*x - y")
    frob = frobenius_power(f, 7)
    naive = NaivePoly(7, 2, {(1, 0): 3, (0, 1): -1}).pow(7)
    assert {m: c for m, c in frob.terms()} == naive.d
    assert str(frob) == "3*x^7 + 6*y^7"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_is_pth_power(p):
    rng = random.Random(p)
    ring = PolyRing(p, ["x", "y"])
    for _ in range(25):
        d = _random_pair(rng, p, 2)
        f = _to_ghk(ring, d)
        assert frobenius_power(f, p) == f**p
        assert frobenius_power(f, p * p) == (f**p) ** p


def test_frobenius_exponent_cap_both_sides():
    ring = PolyRing(2, ["x", "y"])
    r = 1 << 10  # r * r == EXP_CAP
    assert r * r == EXP_CAP
    # every exponent times q reaches the cap exactly, the degree passes it
    f = ring.monomial((r, r)) + ring.monomial((1, 0))
    assert frobenius_power(f, r).lm() == (EXP_CAP, EXP_CAP)
    with pytest.raises(GhkError):
        frobenius_power(ring.monomial((2 * r, 0)), r)
    ring17 = PolyRing(17, ["x", "y"])
    assert (EXP_CAP + 1) % 17 == 0
    with pytest.raises(GhkError):
        frobenius_power(ring17.monomial((0, (EXP_CAP + 1) // 17)), 17)


def test_product_degree_limit_both_sides():
    # the key is the only record of a monomial, so a product whose degree
    # reaches 2^EXP_BITS, where an exponent could carry into the next
    # field, is refused rather than stored corrupt
    ring = PolyRing(7, ["x", "y"])
    x, y = ring.gens()
    top = (1 << EXP_BITS) - 1
    big = ring.monomial((EXP_CAP - 1, 0)) ** 16  # degree top - 15
    f = big * (x + y) ** 15
    assert f.degree() == top and f.lm() == (top, 0)
    assert dict(f.terms())[(top - 15, 15)] == 1
    assert big.mul_monomial((14, 1)) == big * x**14 * y
    for g in (f, big.mul_monomial((0, 15))):
        with pytest.raises(GhkError):
            g * y
        with pytest.raises(GhkError):
            g.mul_monomial((1, 0))


def test_frobenius_validation():
    ring = PolyRing(7, ["x"])
    f = ring.parse("x + 1")
    assert frobenius_power(f, 1) == f
    for bad in (0, -7, 14, 10, 48):
        with pytest.raises(GhkHypothesisError):
            frobenius_power(f, bad)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2).flatmap(
        lambda i: st.tuples(
            st.just([2, 3, 7][i]),
            st.lists(
                st.tuples(
                    st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    st.integers(1, [2, 3, 7][i] - 1),
                ),
                max_size=5,
            ),
            st.lists(
                st.tuples(
                    st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    st.integers(1, [2, 3, 7][i] - 1),
                ),
                max_size=5,
            ),
        )
    )
)
def test_frobenius_additive_multiplicative(args):
    p, da, db = args
    ring = PolyRing(p, ["x", "y"])
    f = ring.from_pairs(da)
    g = ring.from_pairs(db)
    q = p * p
    assert frobenius_power(f + g, q) == frobenius_power(f, q) + frobenius_power(g, q)
    assert frobenius_power(f * g, q) == frobenius_power(f, q) * frobenius_power(g, q)
    assert frobenius_power(frobenius_power(f, p), p) == frobenius_power(f, q)


# ---------------------------------------------------------------------------
# frozen records


class Pair(Record):
    a: int
    b: int = 0


class OtherPair(Record):
    a: int
    b: int = 0


def test_record_builds_like_a_dataclass():
    assert Pair(1) == Pair(1, 0) == Pair(a=1) == Pair(b=0, a=1)
    assert hash(Pair(1)) == hash(Pair(a=1, b=0)) == hash((1, 0))
    assert Pair(1) != Pair(1, 2)
    assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"
    assert Pair._fields == ("a", "b") and Pair._defaults == {"b": 0}


def test_records_of_different_classes_differ():
    assert Pair(1) != OtherPair(1)
    assert not Pair(1) == OtherPair(1)
    assert Pair(1) != (1, 0)
    assert len({Pair(1), OtherPair(1), Pair(1, 0)}) == 2


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing arguments 'a'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
        ((1,), {"c": 2}, "unexpected argument 'c'"),
        ((1,), {"a": 2}, "multiple values for argument 'a'"),
    ],
)
def test_record_refuses_bad_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_record_is_frozen():
    r = Pair(1, 2)
    with pytest.raises(AttributeError):
        r.a = 3
    with pytest.raises(AttributeError):
        r.c = 3
    with pytest.raises(AttributeError):
        del r.b
    assert r == Pair(1, 2) and vars(r) == {"a": 1, "b": 2}
