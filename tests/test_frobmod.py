"""Presentation/pullback mechanics and the two length routes, pinned to
linear-algebra oracle values on small Frobenius powers."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.errors import GhkError, GhkHypothesisError, HomogeneityError, RingMismatchError
from ghk.frobmod import (
    GHKRow,
    GHKTable,
    Presentation,
    SkippedRow,
    direct_sum,
    frobenius_pullback,
    ghk_table,
    ghk_value,
    hk_value,
    presentation_of_quotient,
    pullback_image,
)
from ghk.groebner import GbBudget, ModVector, Submodule
from ghk.idealops import (
    RingSpec,
    certify_saturation,
    colength_difference,
    hilbert_series,
    saturate_by_colon,
)

from naive_curve import (
    CurveRing,
    cubic_point_torsion_length,
    finite_colength,
    regular_torsion_length,
)
from naive_modules import free_module_dimension, naive_graded_dimension
from naive_poly import NaivePoly, monomials_of_degree


@pytest.fixture(scope="module")
def fermat7():
    return RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])


@pytest.fixture(scope="module")
def plane7():
    return RingSpec(7, ["x", "y"])


def point_presentation(R):
    return presentation_of_quotient(R.ideal(["z", "3*x - y"]), R)


def colon_route_length(P, e):
    """Length of sat(U)/U by the reference route, U the pulled-back image."""
    U = frobenius_pullback(P, e).image_submodule()
    return colength_difference(U, saturate_by_colon(U))


def s_route_length(P, e):
    """ghk_value's length read over S with relation columns: the route a
    ring without a Noether normalization takes."""
    U = frobenius_pullback(P, e).image_submodule()
    cert = certify_saturation(U)
    if cert is not None:
        return cert.length
    return colength_difference(U, saturate_by_colon(U))


# ---------------------------------------------------------------------------
# presentations


def test_quotient_presentation_shapes(fermat7):
    P = point_presentation(fermat7)
    assert (P.num_rows, P.num_cols) == (1, 2)
    assert P.row_twists == (0,)
    assert P.col_twists == (1, 1)
    assert str(P.entry(0, 0)) == "z"

    h = presentation_of_quotient(fermat7.ideal(["x*z + y^2"]), fermat7)
    assert h.col_twists == (2,)

    irr = presentation_of_quotient(fermat7.ideal(["x", "y", "z"]), fermat7)
    assert irr.num_cols == 3 and irr.col_twists == (1, 1, 1)


def test_presentation_validation(fermat7):
    ring = fermat7.ring
    x, y, z = ring.gens()
    with pytest.raises(HomogeneityError):
        Presentation(fermat7, (0,), (1,), [ModVector((x + y * z,))])
    with pytest.raises(HomogeneityError):
        # homogeneous but of the wrong declared degree
        Presentation(fermat7, (0,), (2,), [ModVector((x,))])
    with pytest.raises(GhkError):
        Presentation(fermat7, (0,), (1, 1), [ModVector((x,))])
    with pytest.raises(GhkError):
        Presentation(fermat7, (0,), (1,), [ModVector((x, y))])
    # a twist that is not an int is refused, not truncated by int()
    for rows, cols in [([0.7], [1.5]), ([0], [1.0]), ([True], [1]), ([0], [True])]:
        with pytest.raises(GhkError, match="twist must be an int"):
            Presentation(fermat7, rows, cols, [ModVector((x,))])
    # zero columns carry their declared twist
    P = Presentation(fermat7, (0,), (5,), [ModVector((ring.zero,))])
    assert P.col_twists == (5,)


def test_presentation_needs_matching_ring(fermat7):
    other = RingSpec(7, ["x", "y", "z"])
    I = other.ideal(["x"])
    with pytest.raises(RingMismatchError):
        presentation_of_quotient(I, fermat7)
    with pytest.raises(GhkError):
        presentation_of_quotient(fermat7.submodule(2, []), fermat7)


def test_presentation_infers_ringspec(fermat7):
    I = fermat7.ideal(["z", "3*x - y"])
    P = presentation_of_quotient(I)
    assert P.rspec.ring == fermat7.ring
    assert P.rspec.relations == fermat7.relations
    assert P == point_presentation(fermat7)


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_identity_and_scaling(fermat7):
    P = point_presentation(fermat7)
    assert frobenius_pullback(P, 0) == P
    P1 = frobenius_pullback(P, 1)
    assert P1.row_twists == (0,)
    assert P1.col_twists == (7, 7)
    assert [str(P1.entry(0, i)) for i in range(2)] == ["z^7", "3*x^7 + 6*y^7"]
    P2 = frobenius_pullback(P, 2)
    assert P2.col_twists == (49, 49)
    assert str(P2.entry(0, 0)) == "z^49"


def test_pullback_koszul(plane7):
    P = presentation_of_quotient(plane7.ideal(["x", "y"]), plane7)
    P1 = frobenius_pullback(P, 1)
    assert [str(P1.entry(0, i)) for i in range(2)] == ["x^7", "y^7"]


def test_pullback_iterates(fermat7):
    P = point_presentation(fermat7)
    assert frobenius_pullback(frobenius_pullback(P, 1), 1) == frobenius_pullback(P, 2)
    # True is refused like -1, not read as e = 1
    for e in (-1, True):
        with pytest.raises(GhkHypothesisError):
            frobenius_pullback(P, e)
        with pytest.raises(GhkHypothesisError):
            ghk_value(P, e)


# ---------------------------------------------------------------------------
# ghk_value against the oracle


def test_point_ideal_small_values(fermat7):
    P = point_presentation(fermat7)
    assert ghk_value(P, 1) == 64
    assert ghk_value(P, 2) == 3200


def test_point_ideal_matches_linear_algebra_oracle():
    # same numbers, independent route: ideal-piece dimensions by naive
    # row reduction and section counts from the genus-1 degree formula
    p = 7
    curve = CurveRing(p, 3, reducer=(2, 3, NaivePoly(p, 3, {(3, 0, 0): 6, (0, 3, 0): 6})))
    g1 = NaivePoly(p, 3, {(0, 0, 7): 1})
    g2 = NaivePoly(p, 3, {(7, 0, 0): 3, (0, 7, 0): 6})
    assert cubic_point_torsion_length(curve, [g1, g2], 7) == 64


def test_principal_ideal_vanishes(fermat7):
    P = presentation_of_quotient(fermat7.ideal(["x"]), fermat7)
    assert ghk_value(P, 1) == 0
    assert ghk_value(P, 2) == 0
    Q = presentation_of_quotient(fermat7.ideal(["x*z + y^2"]), fermat7)
    assert ghk_value(Q, 1) == 0


def test_irrelevant_ideal_on_plane_is_q_squared(plane7):
    P = presentation_of_quotient(plane7.ideal(["x", "y"]), plane7)
    assert ghk_value(P, 1) == 49
    assert ghk_value(P, 2) == 49**2


def test_ghk_requires_dimension_two():
    R3 = RingSpec(7, ["x", "y", "z"])
    P = presentation_of_quotient(R3.ideal(["x"]), R3)
    with pytest.raises(GhkHypothesisError):
        ghk_value(P, 1)


def test_sweep_curve_values():
    R = RingSpec(5, ["x", "y", "z"], ["x^3 + y^3 - 2*z^3"])
    P = presentation_of_quotient(R.ideal(["x - y", "y - z"]), R)
    assert ghk_value(P, 1) == 32
    assert ghk_value(P, 2) == 832
    # oracle recomputation of the q=5 row: z^3 -> 3(x^3 + y^3)
    curve = CurveRing(5, 3, reducer=(2, 3, NaivePoly(5, 3, {(3, 0, 0): 3, (0, 3, 0): 3})))
    g1 = NaivePoly(5, 3, {(5, 0, 0): 1, (0, 5, 0): 4})
    g2 = NaivePoly(5, 3, {(0, 5, 0): 1, (0, 0, 5): 4})
    assert cubic_point_torsion_length(curve, [g1, g2], 5) == 32


def test_certified_length_on_a_coordinate_line(fermat7):
    # the point [1:-1:0] lies on z = 0: the certificate rejects z (tried
    # first, as the ring's last variable) and certifies with x
    P = presentation_of_quotient(fermat7.ideal(["z", "x + y"]), fermat7)
    cert = certify_saturation(frobenius_pullback(P, 1).image_submodule())
    assert cert.var == 0
    p = 7
    curve = CurveRing(p, 3, reducer=(2, 3, NaivePoly(p, 3, {(3, 0, 0): 6, (0, 3, 0): 6})))
    g1 = NaivePoly(p, 3, {(0, 0, 7): 1})
    g2 = NaivePoly(p, 3, {(7, 0, 0): 1, (0, 7, 0): 1})
    oracle = cubic_point_torsion_length(curve, [g1, g2], 7)
    assert cert.length == oracle == ghk_value(P, 1) == colon_route_length(P, 1)


def test_certified_length_off_the_coordinate_lines():
    # the point [1:1:1] avoids z = 0, so the basis U already has certifies
    R = RingSpec(5, ["x", "y", "z"], ["x^3 + y^3 - 2*z^3"])
    P = presentation_of_quotient(R.ideal(["x - y", "y - z"]), R)
    U = frobenius_pullback(P, 1).image_submodule()
    cert = certify_saturation(U)
    assert cert.var == 2
    assert cert.gb is U.groebner()
    curve = CurveRing(5, 3, reducer=(2, 3, NaivePoly(5, 3, {(3, 0, 0): 3, (0, 3, 0): 3})))
    g1 = NaivePoly(5, 3, {(5, 0, 0): 1, (0, 5, 0): 4})
    g2 = NaivePoly(5, 3, {(0, 5, 0): 1, (0, 0, 5): 4})
    assert cert.length == cubic_point_torsion_length(curve, [g1, g2], 5) == 32
    assert colon_route_length(P, 1) == 32


def test_uncertified_length_falls_back_to_colon(plane7):
    # R/(x^2*y, x*y^2): its torsion sits at [1:0] and [0:1], one on each
    # coordinate line, so no variable certifies; sat(U)/U is
    # (xy)^q * k[x, y]/(x^q, y^q), of length q^2
    P = presentation_of_quotient(plane7.ideal(["x^2*y", "x*y^2"]), plane7)
    assert certify_saturation(frobenius_pullback(P, 1).image_submodule()) is None
    assert ghk_value(P, 1) == colon_route_length(P, 1) == 49


def test_unequal_row_twists_take_the_certified_route(fermat7):
    point = fermat7.ideal(["z", "x + y"])
    A = presentation_of_quotient(point, fermat7)
    B = Presentation(fermat7, (1,), (2, 2), [ModVector((g[0],)) for g in point.gens])
    P = direct_sum(A, B)
    assert certify_saturation(frobenius_pullback(P, 1).image_submodule()) is not None
    assert ghk_value(P, 1) == colon_route_length(P, 1) == 2 * ghk_value(A, 1)


def test_rank2_module_length_is_9q2():
    # coker of the rows (x, y, z) and (y, z, x), column twists (1, 1, 1),
    # on x^3 + y^3 + z^3: its 2x2 minors vanish only off the curve, so
    # the pulled-back cokernel has finite length and L = 9q^2. Oracle:
    # sum over n of dim F_n - dim U_n by degreewise linear algebra, with
    # the summand already 0 at n = 3q + 1 and 3q + 2
    p = q = 5
    R = RingSpec(p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    cols = [ModVector((R.parse(a), R.parse(b))) for a, b in (("x", "y"), ("y", "z"), ("z", "x"))]
    P = Presentation(R, (0, 0), (1, 1, 1), cols)
    U = frobenius_pullback(P, 1).image_submodule()
    span = [
        {(j, m): c for j, f in enumerate(v.components) for m, c in f.terms()}
        for v in U.spanning()
    ]

    def quotient_dim(n):
        return free_module_dimension((0, 0), 3, n) - naive_graded_dimension(span, (0, 0), 3, p, n)

    assert [quotient_dim(n) for n in (3 * q + 1, 3 * q + 2)] == [0, 0]
    assert sum(quotient_dim(n) for n in range(3 * q + 1)) == 9 * q * q
    assert ghk_value(P, 1) == colon_route_length(P, 1) == 9 * q * q


def _fermat_points(p):
    """(p, point) for every F_p-rational point of x^3 + y^3 + z^3,
    scaled so that its last nonzero coordinate is 1."""
    out = []
    for pt in itertools.product(range(p), repeat=3):
        nonzero = [c for c in pt if c]
        if nonzero and nonzero[-1] == 1 and sum(c**3 for c in pt) % p == 0:
            out.append((p, pt))
    return out


# 15 points; for each of x, y and z some lie on its zero line
FERMAT_POINTS = _fermat_points(5) + _fermat_points(7)


@settings(max_examples=2 * len(FERMAT_POINTS), deadline=None)
@given(case=st.sampled_from(FERMAT_POINTS))
def test_point_lengths_agree_with_the_oracle(case):
    # points on x = 0, y = 0 or z = 0 make the certificate reject a
    # variable; every route must still give 4(q^2 - 1)/3
    p, pt = case
    R = RingSpec(p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    k = max(i for i, c in enumerate(pt) if c)
    # the linear forms pt[k]*x_i - pt[i]*x_k, i != k, cut out the point
    forms = []
    for i in range(3):
        if i != k:
            form = [0, 0, 0]
            form[i], form[k] = pt[k], -pt[i] % p
            forms.append(form)
    P = presentation_of_quotient(
        R.ideal([" + ".join(f"{c}*{v}" for c, v in zip(f, "xyz") if c) for f in forms]), R
    )
    curve = CurveRing(p, 3, reducer=(2, 3, NaivePoly(p, 3, {(3, 0, 0): p - 1, (0, 3, 0): p - 1})))
    pulled = [
        NaivePoly(p, 3, {tuple(p * (i == j) for i in range(3)): c for j, c in enumerate(f) if c})
        for f in forms
    ]
    oracle = cubic_point_torsion_length(curve, pulled, p)
    assert ghk_value(P, 1) == oracle == colon_route_length(P, 1) == 4 * (p * p - 1) // 3


# ---------------------------------------------------------------------------
# ghk_value over a Noether normalization


CUSP = "x^2*z - y^3"  # f(0, 0, 1) = 0: the normalization substitutes y -> y + z
# vanishes at every (a : b : 1) over F_3: three lines through (1 : -1 : 0)
ALL_POINTS_F3 = "x^3 + y^3 - x*z^2 - y*z^2"


def test_noether_normalization_choice():
    assert RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"]).noether_normalization().shift == (0, 0)
    cusp = RingSpec(5, ["x", "y", "z"], [CUSP]).noether_normalization()
    assert cusp.shift == (0, 1) and cusp.degree == 3
    assert [str(c) for c in cusp.base.gens()] == ["x", "y"]
    for R in (
        RingSpec(3, ["x", "y", "z"], [ALL_POINTS_F3]),
        RingSpec(7, ["x", "y"]),
        RingSpec(7, ["x", "y", "z"]),
        RingSpec(7, ["w", "x", "y", "z"], ["x*z - y^2", "w*y - x^2"]),
    ):
        assert R.noether_normalization() is None


def _translation_cases():
    fermat = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    conic = RingSpec(5, ["x", "y", "z"], ["x*y - z^2"])
    cusp = RingSpec(5, ["x", "y", "z"], [CUSP])
    point = presentation_of_quotient(fermat.ideal(["z", "x + y"]), fermat)
    # the same point in a row of twist 1
    shifted = Presentation(fermat, (1,), (2, 2), [ModVector((g[0],)) for g in point.columns])
    cols = [
        ModVector((cusp.parse(a), cusp.parse(b))) for a, b in (("x^2", "y"), ("y*z^2", "x^2 + z^2"))
    ]
    return [
        point,
        direct_sum(point, shifted),
        presentation_of_quotient(conic.ideal(["x", "z"]), conic),
        presentation_of_quotient(cusp.ideal(["x + 2*y", "z^2"]), cusp),
        Presentation(cusp, (0, 1), (2, 3), cols),
    ]


@pytest.mark.parametrize("e", [0, 1, 2])
def test_pullback_over_the_normalization_is_the_same_graded_space(e):
    # A^(d*r)/U_A and F/U are one graded F_p-space: R^r = A^(d*r) with
    # z^k in row j of degree r_j + k
    for P in _translation_cases():
        U_A = pullback_image(P, e)
        U_S = frobenius_pullback(P, e).image_submodule()
        d = P.rspec.relations[0].degree()
        assert U_A.ring.nvars == 2 and U_A.relations == ()
        assert U_A.rank == d * P.num_rows
        assert hilbert_series(U_A).reduced() == hilbert_series(U_S).reduced()


def _random_form(draw, ring, deg):
    if deg < 0:
        return ring.zero
    mons = monomials_of_degree(ring.nvars, deg)
    term = st.tuples(st.sampled_from(mons), st.integers(1, ring.p - 1))
    pairs = draw(st.lists(term, min_size=1, max_size=3))
    return ring.from_pairs(pairs)


NORMALIZED_RINGS = {
    "fermat": (7, "x^3 + y^3 + z^3", (0, 0)),
    "conic": (5, "x*y - z^2", (0, 0)),
    "cusp": (3, CUSP, (0, 1)),
}


@st.composite
def _normalized_presentations(draw):
    """A ring of NORMALIZED_RINGS and a presentation with r = 1 or 2 rows
    and r + 1 or r + 2 columns of degree 1 or 2. On the conic the first
    two columns may be the ideal (x, z) of a ruling, whose class has
    order 2."""
    name = draw(st.sampled_from(sorted(NORMALIZED_RINGS)))
    p, relation, shift = NORMALIZED_RINGS[name]
    R = RingSpec(p, ["x", "y", "z"], [relation])
    rows = draw(st.sampled_from([(0,), (0, 0), (0, 1)]))
    cols, twists = [], []
    if name == "conic" and draw(st.booleans()):
        for g in ("x", "z"):
            cols.append(ModVector((R.parse(g),) + (R.ring.zero,) * (len(rows) - 1)))
            twists.append(1)
    for _ in range(draw(st.integers(len(rows) + 1 - len(cols) // 2, len(rows) + 2 - len(cols)))):
        c = draw(st.integers(1, 2))
        cols.append(ModVector(tuple(_random_form(draw, R.ring, c - r) for r in rows)))
        twists.append(c)
    return name, shift, Presentation(R, rows, twists, cols)


@settings(max_examples=30, deadline=None)
@given(case=_normalized_presentations(), e=st.sampled_from([1, 2]))
def test_normalization_route_matches_the_s_route_and_the_oracle(case, e):
    name, shift, P = case
    R = P.rspec
    assert R.noether_normalization().shift == shift
    assert ghk_value(P, e) == s_route_length(P, e)
    if e == 1:
        # the quotient over A against degreewise linear algebra over S,
        # in the degrees where the pulled-back columns start
        q = R.p
        U_S = frobenius_pullback(P, 1).image_submodule()
        span = [
            {(j, m): c for j, f in enumerate(v.components) for m, c in f.terms()}
            for v in U_S.spanning()
        ]
        hs = hilbert_series(pullback_image(P, 1))
        for n in range(q - 1, q + 3):
            assert hs.coefficient(n) == free_module_dimension(
                U_S.twists, 3, n
            ) - naive_graded_dimension(span, U_S.twists, 3, R.p, n)


def test_fallback_ring_keeps_the_s_route():
    # every (a : b : 1) lies on the curve, so no substitution makes the
    # relation monic in z; the lengths come from the S route and match
    # degreewise counts (z is a nonzerodivisor modulo the saturation:
    # the ideal's only point off the vertex is (0 : 0 : 1))
    p = 3
    R = RingSpec(p, ["x", "y", "z"], [ALL_POINTS_F3])
    assert R.noether_normalization() is None and R.krull_dimension() == 2
    P = presentation_of_quotient(R.ideal(["x", "y"]), R)
    assert pullback_image(P, 1) == frobenius_pullback(P, 1).image_submodule()
    # 1404 is the oracle's value at e = 3 too (dmax = 56, about 8 s)
    assert [ghk_value(P, e) for e in (1, 2, 3)] == [12, 144, 1404]
    # x^3 -> -y^3 + x*z^2 + y*z^2
    x_cubed = NaivePoly(p, 3, {(0, 3, 0): -1, (1, 0, 2): 1, (0, 1, 2): 1})
    curve = CurveRing(p, 3, reducer=(0, 3, x_cubed))
    for e, length in ((1, 12), (2, 144)):
        q = p**e
        gens = [NaivePoly(p, 3, {(q, 0, 0): 1}), NaivePoly(p, 3, {(0, q, 0): 1})]
        assert regular_torsion_length(curve, gens, 2, 2 * q + 2) == length


# ---------------------------------------------------------------------------
# hk_value and the two-route agreement


def test_hk_pinned_values(fermat7):
    I = fermat7.ideal(["x", "y", "z"])
    assert hk_value(I, 1) == 109
    assert hk_value(I, 2) == 5401
    # independent recomputation by degreewise counting
    p = 7
    curve = CurveRing(p, 3, reducer=(2, 3, NaivePoly(p, 3, {(3, 0, 0): 6, (0, 3, 0): 6})))
    gens = [
        NaivePoly(p, 3, {(7, 0, 0): 1}),
        NaivePoly(p, 3, {(0, 7, 0): 1}),
        NaivePoly(p, 3, {(0, 0, 7): 1}),
    ]
    assert finite_colength(curve, gens) == 109


def test_hk_monomial_box():
    R = RingSpec(3, ["x", "y"])
    assert hk_value(R.ideal(["x^2", "y"]), 1) == 18
    curve = CurveRing(3, 2)
    gens = [NaivePoly(3, 2, {(6, 0): 1}), NaivePoly(3, 2, {(0, 3): 1})]
    assert finite_colength(curve, gens, dmax=15) == 18


def test_hk_exponent_zero(plane7):
    I = plane7.ideal(["x^2", "x*y", "y^2"])
    assert hk_value(I, 0) == 3


def test_hk_rejects_non_primary(fermat7, plane7):
    with pytest.raises(GhkHypothesisError):
        hk_value(fermat7.ideal(["x"]), 1)
    with pytest.raises(GhkHypothesisError):
        hk_value(plane7.ideal(["x^2", "x*y"]), 1)


@pytest.mark.parametrize("e", [1, 2])
def test_routes_agree_on_primary(fermat7, plane7, e):
    for R in (plane7, fermat7):
        I = R.ideal(list(R.variables))
        P = presentation_of_quotient(I, R)
        assert ghk_value(P, e) == hk_value(I, e)


# ---------------------------------------------------------------------------
# invariance properties


def test_presentation_independence(fermat7):
    I = fermat7.ideal(["z", "3*x - y"])
    red = fermat7.ideal(["z", "3*x - y", "x*z + y*z", "3*x^2 - x*y"])
    a = presentation_of_quotient(I, fermat7)
    b = presentation_of_quotient(red, fermat7)
    assert ghk_value(a, 1) == ghk_value(b, 1) == 64


def test_multiplier_invariance(fermat7):
    # scaling an ideal by a nonzero homogeneous element leaves every
    # length unchanged
    I = fermat7.ideal(["z", "3*x - y"])
    xI = fermat7.ideal(["x*z", "3*x^2 - x*y"])
    a = presentation_of_quotient(I, fermat7)
    b = presentation_of_quotient(xI, fermat7)
    assert ghk_value(b, 1) == ghk_value(a, 1)


def test_direct_sum_additivity(fermat7):
    P = point_presentation(fermat7)
    D = direct_sum(P, P)
    assert (D.num_rows, D.num_cols) == (2, 4)
    assert ghk_value(D, 1) == 2 * 64
    Q = presentation_of_quotient(fermat7.ideal(["x"]), fermat7)
    M = direct_sum(P, Q)
    assert ghk_value(M, 1) == 64


def test_direct_sum_ring_guard(fermat7, plane7):
    with pytest.raises(RingMismatchError):
        direct_sum(point_presentation(fermat7), presentation_of_quotient(plane7.ideal(["x"]), plane7))


# ---------------------------------------------------------------------------
# tables


def test_table_layout(fermat7):
    P = point_presentation(fermat7)
    t = ghk_table(P, 2)
    assert t.p == 7
    assert [(r.e, r.q, r.length) for r in t.rows] == [(1, 7, 64), (2, 49, 3200)]
    assert t.skipped == ()
    assert t.to_csv() == "e,q,length\n1,7,64\n2,49,3200\n"
    d = t.to_json_dict()
    assert d["rows"][1] == {"e": 2, "q": 49, "length": 3200}
    # descriptors use the canonical printer, coefficients in [1, p)
    assert d["module"] == "R/(z, 3*x + 6*y)"


def test_table_budget_marks_rows_skipped(fermat7):
    P = point_presentation(fermat7)
    t = ghk_table(P, 2, budget=GbBudget(max_degree=30))
    assert [(r.e, r.length) for r in t.rows] == [(1, 64)]
    assert len(t.skipped) == 1 and t.skipped[0].e == 2
    assert "degree" in t.skipped[0].reason


def test_table_invariants():
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 7, 3), GHKRow(1, 7, 3)))
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 5, 3),))
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 7, -1),))


def test_table_records_are_frozen_values():
    row = GHKRow(1, 7, 64)
    assert row == GHKRow(e=1, q=7, length=64) and hash(row) == hash(GHKRow(1, 7, 64))
    assert row != GHKRow(1, 7, 65) and row != (1, 7, 64)
    assert repr(row) == "GHKRow(e=1, q=7, length=64)"
    table = GHKTable(7, "m")
    assert table.rows == () and table.skipped == ()
    assert table == GHKTable(p=7, module="m", rows=(), skipped=())
    with pytest.raises(AttributeError):
        row.length = 65
    with pytest.raises(AttributeError):
        del table.rows
    with pytest.raises(TypeError):
        GHKRow(1, 7)
    with pytest.raises(TypeError):
        SkippedRow(1, "budget", e=1)
    # the checks of __post_init__ run on keyword construction too
    with pytest.raises(GhkError):
        GHKTable(p=7, module="m", rows=(GHKRow(2, 7, 3),))


def test_table_records_pickle():
    full = GHKTable(7, "m", (GHKRow(1, 7, 64),), (SkippedRow(2, "budget"),))
    for record in (GHKRow(1, 7, 64), SkippedRow(2, "budget"), full):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        assert hash(copy) == hash(record)


def test_table_exponent_validation(fermat7):
    P = point_presentation(fermat7)
    with pytest.raises(GhkError):
        ghk_table(P, 0)
    for e_max in (True, 1.0):  # not read as one row
        with pytest.raises(GhkHypothesisError, match="e_max must be an int"):
            ghk_table(P, e_max)


def test_table_parallel_matches_serial(fermat7):
    P = point_presentation(fermat7)
    serial = ghk_table(P, 2)
    parallel = ghk_table(P, 2, jobs=2)
    assert serial == parallel


def test_presentation_pickles_with_its_order(fermat7):
    # the ring's key closure does not pickle; PolyRing.__reduce__ rebuilds it
    P = point_presentation(fermat7)
    Q = pickle.loads(pickle.dumps(P))
    assert Q == P
    assert ghk_value(Q, 1) == ghk_value(P, 1)
