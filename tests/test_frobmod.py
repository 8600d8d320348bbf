"""Presentation/pullback mechanics and the two length routes, pinned to
linear-algebra oracle values on small Frobenius powers."""

import functools
import itertools
import pickle
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghk import groebner, idealops
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
from ghk.arith import PolyRing
from ghk.groebner import GbBudget, ModVector, Submodule
from ghk.idealops import (
    NoetherNormalization,
    RingSpec,
    _divide_out,
    _lead_series,
    certify_saturation,
    colength_difference,
    hilbert_series,
    saturate,
    saturate_by_colon,
)

from naive_curve import (
    CurveRing,
    cubic_point_torsion_length,
    finite_colength,
    regular_torsion_length,
)
from naive_modules import free_module_dimension, naive_graded_dimension, times_one_minus_t
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
    return certify_saturation(frobenius_pullback(P, e).image_submodule()).length


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
    assert cert.variables == (0,)
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
    assert cert.variables == (2,)
    # the certificate read U's default basis and built no other
    assert list(U._gb) == [2]
    curve = CurveRing(5, 3, reducer=(2, 3, NaivePoly(5, 3, {(3, 0, 0): 3, (0, 3, 0): 3})))
    g1 = NaivePoly(5, 3, {(5, 0, 0): 1, (0, 5, 0): 4})
    g2 = NaivePoly(5, 3, {(0, 5, 0): 1, (0, 0, 5): 4})
    assert cert.length == cubic_point_torsion_length(curve, [g1, g2], 5) == 32
    assert colon_route_length(P, 1) == 32


def test_uncertified_length_intersects_variable_saturations(plane7):
    # R/(x^2*y, x*y^2): its torsion sits at [1:0] and [0:1], one on each
    # coordinate line, so no variable certifies alone and sat(U) is
    # U : y^inf cap U : x^inf; sat(U)/U is (xy)^q * k[x, y]/(x^q, y^q),
    # of length q^2
    P = presentation_of_quotient(plane7.ideal(["x^2*y", "x*y^2"]), plane7)
    cert = certify_saturation(frobenius_pullback(P, 1).image_submodule())
    assert cert.variables == (1, 0)
    assert cert.length == ghk_value(P, 1) == colon_route_length(P, 1) == 49


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


def _cubic_points(p, weights=(1, 1, 1)):
    """(p, point) for every F_p-rational point of the cubic with these
    weights on x^3, y^3 and z^3, scaled so that its last nonzero
    coordinate is 1."""
    out = []
    for pt in itertools.product(range(p), repeat=3):
        nonzero = [c for c in pt if c]
        if nonzero and nonzero[-1] == 1 and sum(w * c**3 for w, c in zip(weights, pt)) % p == 0:
            out.append((p, pt))
    return out


def _point_forms(p, pt):
    """The linear forms pt[k]*x_i - pt[i]*x_k, i != k, that cut out the
    point pt, k its last nonzero coordinate, as coefficient lists."""
    k = max(i for i, c in enumerate(pt) if c)
    forms = []
    for i in range(3):
        if i != k:
            form = [0, 0, 0]
            form[i], form[k] = pt[k], -pt[i] % p
            forms.append(form)
    return forms


def _form_str(form):
    return " + ".join(f"{c}*{v}" for c, v in zip(form, "xyz") if c)


# 15 points; for each of x, y and z some lie on its zero line
FERMAT_POINTS = _cubic_points(5) + _cubic_points(7)


@settings(max_examples=2 * len(FERMAT_POINTS), deadline=None)
@given(case=st.sampled_from(FERMAT_POINTS))
def test_point_lengths_agree_with_the_oracle(case):
    # points on x = 0, y = 0 or z = 0 make the certificate reject a
    # variable; every route must still give 4(q^2 - 1)/3
    p, pt = case
    R = RingSpec(p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    forms = _point_forms(p, pt)
    P = presentation_of_quotient(R.ideal([_form_str(f) for f in forms]), R)
    curve = CurveRing(p, 3, reducer=(2, 3, NaivePoly(p, 3, {(3, 0, 0): p - 1, (0, 3, 0): p - 1})))
    pulled = [
        NaivePoly(p, 3, {tuple(p * (i == j) for i in range(3)): c for j, c in enumerate(f) if c})
        for f in forms
    ]
    oracle = cubic_point_torsion_length(curve, pulled, p)
    assert ghk_value(P, 1) == oracle == colon_route_length(P, 1) == 4 * (p * p - 1) // 3


# ---------------------------------------------------------------------------
# ghk_value over a Noether normalization


CUSP = "x^2*z - y^3"  # through (0 : 0 : 1), so the centre x = y = 0 meets it: A = F_p[x, z]
# vanishes at every (a : b : 1) over F_3: three lines through (1 : -1 : 0)
ALL_POINTS_F3 = "x^3 + y^3 - x*z^2 - y*z^2"
# (x + y)(y + z)(z + x) over F_2: three lines through (1 : 1 : 1) that
# cover all seven points of the plane, so no F_2-rational centre misses it
NO_CENTRE_F2 = "x^2*y + x*y^2 + y^2*z + y*z^2 + z^2*x + z*x^2"
# through (1 : 0 : 0), (0 : 1 : 0) and (0 : 0 : 1): every coordinate
# centre meets it, so its centre is shifted
COORDINATE_POINTS = "x^2*y + y^2*z + z^2*x"
# the cone over an elliptic quartic and the cone over the twisted cubic
CONE = (7, ["x", "y", "z", "w"], ["x^2 + y^2 - z*w", "x*y + z^2 + 3*w^2"])
CUBIC_CONE = (7, ["x", "y", "z", "w"], ["x*z - y^2", "y*w - z^2", "x*w - y*z"])


def test_noether_normalization_choice():
    # every coordinate centre comes before any shifted one, and the
    # first one whose leads certify is taken
    fermat = RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"]).noether_normalization()
    assert fermat.shift == (("x", "y"), (0, 0)) and fermat.degree == 3
    cusp = RingSpec(5, ["x", "y", "z"], [CUSP]).noether_normalization()
    assert cusp.shift == (("x", "z"), (0, 0)) and cusp.degree == 3
    assert [str(c) for c in cusp.base.gens()] == ["x", "z"]
    assert RingSpec(3, ["x", "y", "z"], [ALL_POINTS_F3]).noether_normalization().shift == (
        ("x", "z"),
        (0, 0),
    )
    shifted = RingSpec(5, ["x", "y", "z"], [COORDINATE_POINTS])
    assert shifted.noether_normalization().shift == (("x", "y"), (0, 1))
    for gens in (["x", "y"], ["x - y", "y - z"]):
        P = presentation_of_quotient(shifted.ideal(gens), shifted)
        assert [ghk_value(P, e) for e in (1, 2)] == [s_route_length(P, e) for e in (1, 2)]
    assert RingSpec(*CONE).noether_normalization().shift == (("x", "y"), (0, 0, 0, 0))
    assert RingSpec(*CUBIC_CONE).noether_normalization().shift == (("x", "w"), (0, 0, 0, 0))
    # a complete intersection: the line x = y = 0 lies on it, so the
    # centres (w, x) and (w, y) meet it and (w, z) is the first to miss it
    ci = RingSpec(7, ["w", "x", "y", "z"], ["x*z - y^2", "w*y - x^2"])
    nn = ci.noether_normalization()
    assert nn.shift == (("w", "z"), (0, 0, 0, 0)) and nn.degree == 4
    P = presentation_of_quotient(ci.ideal(["x", "y", "w - z"]), ci)
    assert [ghk_value(P, e) for e in (1, 2)] == [s_route_length(P, e) for e in (1, 2)]
    for R in (
        RingSpec(2, ["x", "y", "z"], [NO_CENTRE_F2]),
        RingSpec(7, ["x", "y"]),
        RingSpec(7, ["x", "y", "z"]),
    ):
        assert R.noether_normalization() is None


@pytest.mark.parametrize(
    "p, relations, centres",
    [
        # two planes meeting in a point, (x, y) and (z, w): not
        # Cohen-Macaulay, so the first finite fibre ends the search
        (3, ["x*z", "x*w", "y*z", "y*w"], 73),
        (5, ["x*z", "x*w", "y*z", "y*w"], 181),
        # no centre has a finite fibre: every one of the 2^2 * 3 is tried
        (2, [NO_CENTRE_F2], 12),
    ],
)
def test_centre_search_stops_where_cohen_macaulay_fails(monkeypatch, p, relations, centres):
    variables = ["x", "y", "z", "w"][: 3 if len(relations) == 1 else 4]
    tried = []
    real = NoetherNormalization.__init__

    def counting(self, rspec, pair, shift):
        tried.append((pair, shift))
        real(self, rspec, pair, shift)

    monkeypatch.setattr(NoetherNormalization, "__init__", counting)
    assert RingSpec(p, variables, relations).noether_normalization() is None
    assert len(tried) == centres
    # the shifts are walked lazily, in itertools.product's order
    n = len(variables)
    order = [
        (pair, shift)
        for shift in itertools.product(range(p), repeat=2 * (n - 2))
        for pair in itertools.combinations(range(n), 2)
    ]
    assert tried == order[:centres]


def test_centre_search_refuses_a_characteristic_past_the_exponent_cap():
    # 1048583 is the least prime above EXP_CAP = 2^20: no Frobenius power
    # of a linear form packs, so there is nothing to search for
    for variables in (["x", "y"], ["x", "y", "z"]):
        R = RingSpec(1048583, variables, ["x^3 + y^3 + z^3"][: len(variables) - 2])
        with pytest.raises(GhkHypothesisError, match="cap 1048576"):
            NoetherNormalization.find(R)


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
        # K_A / (1-t)^2 == K_S / (1-t)^3, cross-multiplied
        hs_A, hs_S = hilbert_series(U_A), hilbert_series(U_S)
        assert (hs_A.denom_power, hs_S.denom_power) == (2, 3)
        assert times_one_minus_t(hs_A.as_dict(), 1) == hs_S.as_dict()


def _divisible_submodules(seed: int, count: int) -> list:
    """Seeded submodules of F over S in two or three variables: rank 1
    or 2, twists 0 or 1, with or without the Fermat relation, each
    generator a product of two variables times a random vector, so that
    dividing out a variable changes the module."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = PolyRing(rng.choice([3, 5, 7]), ["x", "y", "z"][: rng.choice([2, 3])])
        twists = tuple(rng.randrange(2) for _ in range(rng.choice([1, 2])))
        xs = ring.gens()
        gens = []
        for _ in range(len(twists) + rng.randrange(1, 3)):
            d = rng.randrange(3) + max(twists)
            w = rng.choice(xs) * rng.choice(xs)
            gens.append(ModVector(tuple(_random_poly(rng, ring, d - t) * w for t in twists)))
        rels = [sum((x**3 for x in xs), ring.zero)] if rng.random() < 0.5 else []
        out.append(Submodule(ring, len(twists), gens, twists=twists, relations=rels))
    return out


def _random_poly(rng, ring, deg):
    mons = monomials_of_degree(ring.nvars, deg)
    return ring.from_pairs([(rng.choice(mons), rng.randrange(1, ring.p)) for _ in range(rng.randrange(1, 4))])


def test_certificate_cut_is_the_series_of_the_divided_out_module():
    # Bayer-Stillman, which certify_saturation rests on: in grevlex with
    # x_i last, in(U : x_i^inf) is in(U) with the x_i-exponent set to 0
    images = [pullback_image(P, e) for P in _translation_cases() for e in range(3)]
    cases = 0
    for U in _divisible_submodules(23, 50) + images:
        for i in range(U.ring.nvars):
            leads = U.groebner(last=i).lead_terms()
            cut = [(j, m[:i] + (0,) + m[i + 1 :]) for j, m in leads]
            assert _lead_series(cut, U.twists, U.ring.nvars) == hilbert_series(_divide_out(U, i, None))
            cases += 1
    assert cases >= 140


def _random_form(draw, ring, deg):
    if deg < 0:
        return ring.zero
    mons = monomials_of_degree(ring.nvars, deg)
    term = st.tuples(st.sampled_from(mons), st.integers(1, ring.p - 1))
    pairs = draw(st.lists(term, min_size=1, max_size=3))
    return ring.from_pairs(pairs)


NORMALIZED_RINGS = {
    "fermat": (7, "x^3 + y^3 + z^3", (("x", "y"), (0, 0))),
    "conic": (5, "x*y - z^2", (("x", "y"), (0, 0))),
    "cusp": (5, CUSP, (("x", "z"), (0, 0))),
    "shifted": (5, COORDINATE_POINTS, (("x", "y"), (0, 1))),
}


@pytest.mark.parametrize("name", sorted(NORMALIZED_RINGS))
def test_centre_search_keeps_every_normalized_centre(name):
    p, relation, shift = NORMALIZED_RINGS[name]
    assert NoetherNormalization.find(RingSpec(p, ["x", "y", "z"], [relation])).shift == shift


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


def _conic_past_the_border():
    """The conic with the columns (z^3 + x^2*y) and (x + 2z): the fibre
    monomial z^3 lies past the border z^2, so _coordinates reaches it
    through z^2 (lengths 62 at e = 1 and 1562 at e = 2)."""
    name = "conic"
    p, relation, shift = NORMALIZED_RINGS[name]
    R = RingSpec(p, ["x", "y", "z"], [relation])
    cols = [ModVector((R.parse(f),)) for f in ("z^3 + x^2*y", "x + 2*z")]
    return name, shift, Presentation(R, (0,), (3, 1), cols)


@settings(max_examples=30, deadline=None)
@given(case=_normalized_presentations(), e=st.sampled_from([1, 2]))
@example(case=_conic_past_the_border(), e=1)
@example(case=_conic_past_the_border(), e=2)
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


def test_a_fibre_power_far_past_the_border_pulls_back(fermat7):
    # z^1200 lies 1200 degrees past the border z^3 of the Fermat fibre;
    # its coordinates once took one nested call per degree, past the
    # interpreter's recursion limit
    P = presentation_of_quotient(fermat7.ideal(["z^1200", "x + y"]), fermat7)
    assert ghk_value(P, 1) == s_route_length(P, 1) == 0


def test_a_fibre_power_that_is_zero_in_r_is_not_walked():
    # over the relation x^3 the border x^3 is 0 in R, and so is every
    # multiple of it: x^1000000 has zero coordinates with no walk up the
    # 10^6 degrees past the border, and no coordinates are kept for them
    R = RingSpec(7, ["x", "y", "z"], ["x^3"])
    nn = R.noether_normalization()
    known = dict(nn._known)
    P = presentation_of_quotient(R.ideal(["x^1000000", "y"]), R)
    start = time.perf_counter()
    assert ghk_value(P, 1) == 0
    assert time.perf_counter() - start < 0.5  # the walk took 3-4 s
    assert nn._known == known


def test_a_shifted_centre_pulls_back_high_powers():
    # the Klein cubic's centre sends y to y + z, so y^40 is a sum of 41
    # terms; expanding it factor by factor took 2^40 products
    R = RingSpec(7, ["x", "y", "z"], [COORDINATE_POINTS])
    assert R.noether_normalization().shift == (("x", "y"), (0, 1))
    P = presentation_of_quotient(R.ideal(["y^40", "x"]), R)
    assert ghk_value(P, 1) == s_route_length(P, 1) == 1926


@st.composite
def _cone_presentations(draw):
    """The cone or the twisted-cubic cone over F_7, free over A on four
    or three monomials; a presentation with r = 1 or 2 rows and r + 1
    or r + 2 columns of degree 1; and e = 1 or 2, except that a rank-2
    row on the cone takes e = 1 (its S route takes 1-2 s at q = 49)."""
    ring = draw(st.sampled_from([CONE, CUBIC_CONE]))
    R = RingSpec(*ring)
    rows = draw(st.sampled_from([(0,), (0, 0)]))
    cols = [
        ModVector(tuple(_random_form(draw, R.ring, 1) for _ in rows))
        for _ in range(draw(st.integers(len(rows) + 1, len(rows) + 2)))
    ]
    e = 1 if ring == CONE and len(rows) == 2 else draw(st.sampled_from([1, 2]))
    return Presentation(R, rows, [1] * len(cols), cols), e


@settings(max_examples=8, deadline=None)
@given(case=_cone_presentations())
def test_four_variable_normalizations_match_the_s_route_and_the_oracle(case):
    # two or three relations: the tables have a border in two fibre
    # variables, and the route over A must give the S route's lengths
    P, e = case
    assert P.rspec.noether_normalization().degree in (3, 4)
    assert ghk_value(P, e) == s_route_length(P, e)
    if e == 1:
        # the quotient over A against degreewise linear algebra over S
        # where the pulled-back columns start
        q = P.rspec.p
        U_S = frobenius_pullback(P, 1).image_submodule()
        span = [
            {(j, m): c for j, f in enumerate(v.components) for m, c in f.terms()}
            for v in U_S.spanning()
        ]
        hs = hilbert_series(pullback_image(P, 1))
        for n in (q - 1, q):
            assert hs.coefficient(n) == free_module_dimension(
                U_S.twists, 4, n
            ) - naive_graded_dimension(span, U_S.twists, 4, q, n)


def test_all_points_curve_over_its_normalization():
    # every (a : b : 1) lies on the curve, but (0 : 1 : 0) does not, so
    # A = F_3[x, z]; the lengths equal the S route and degreewise counts
    # (z is a nonzerodivisor modulo the saturation: the ideal's only
    # point off the vertex is (0 : 0 : 1))
    p = 3
    R = RingSpec(p, ["x", "y", "z"], [ALL_POINTS_F3])
    assert R.noether_normalization().shift == (("x", "z"), (0, 0))
    P = presentation_of_quotient(R.ideal(["x", "y"]), R)
    # 1404 is the oracle's value at e = 3 too (dmax = 56, about 8 s)
    assert [ghk_value(P, e) for e in (1, 2, 3)] == [12, 144, 1404]
    assert [s_route_length(P, e) for e in (1, 2)] == [12, 144]
    # x^3 -> -y^3 + x*z^2 + y*z^2
    x_cubed = NaivePoly(p, 3, {(0, 3, 0): -1, (1, 0, 2): 1, (0, 1, 2): 1})
    curve = CurveRing(p, 3, reducer=(0, 3, x_cubed))
    for e, length in ((1, 12), (2, 144)):
        q = p**e
        gens = [NaivePoly(p, 3, {(q, 0, 0): 1}), NaivePoly(p, 3, {(0, q, 0): 1})]
        assert regular_torsion_length(curve, gens, 2, 2 * q + 2) == length


def test_fallback_ring_keeps_the_s_route():
    # every F_2-rational centre meets the curve, so no normalization
    # certifies and the lengths come from the S route; they match
    # degreewise counts over S with the relation among the generators
    # (z is a nonzerodivisor modulo the saturation: the ideal's only
    # point off the vertex is (0 : 0 : 1))
    p = 2
    R = RingSpec(p, ["x", "y", "z"], [NO_CENTRE_F2])
    assert R.noether_normalization() is None and R.krull_dimension() == 2
    P = presentation_of_quotient(R.ideal(["x", "y"]), R)
    assert pullback_image(P, 1) == frobenius_pullback(P, 1).image_submodule()
    # 112 is the oracle's value at e = 3 too (about 1 s)
    assert [ghk_value(P, e) for e in (1, 2, 3)] == [4, 24, 112]
    relation = NaivePoly(p, 3, {m: 1 for m in itertools.permutations((2, 1, 0))})
    for e, length in ((1, 4), (2, 24)):
        q = p**e
        gens = [NaivePoly(p, 3, {(q, 0, 0): 1}), NaivePoly(p, 3, {(0, q, 0): 1}), relation]
        assert regular_torsion_length(CurveRing(p, 3), gens, 2, 2 * q + 2) == length


def cusp_row():
    """A rank-2 presentation on the cusp over F_5, read over A, that no
    single variable certifies."""
    cusp = RingSpec(5, ["x", "y", "z"], [CUSP])
    cols = [
        ModVector((cusp.parse(a), cusp.parse(b)))
        for a, b in (("z^2", "4*x*y + 3*x*z + 4*y*z"), ("4*x + z", "4*x"), ("x", "x"))
    ]
    return Presentation(cusp, (0, 0), (2, 1, 1), cols)


def test_uncertified_saturations_never_take_a_colon(monkeypatch, plane7):
    # the cases where no single variable certifies: R/(x^2*y, x*y^2) over
    # F_7[x, y], a rank-2 row on the cusp over F_5 (read over A) and the
    # coordinate triangle; their reference values come first, then no
    # colon may run. The certificate reads each meet's series from a sum
    # by the modular law: in two variables it eliminates nothing, and on
    # the triangle it intersects once, before the third variable;
    # saturate takes that meet over and intersects once more
    rows = [
        (presentation_of_quotient(plane7.ideal(["x^2*y", "x*y^2"]), plane7), 49),
        (cusp_row(), 132),
    ]
    refs = [colon_route_length(P, 1) for P, _ in rows]
    space = RingSpec(7, ["x", "y", "z"])
    pairs = ["x*y", "y*z", "x*z"]
    triangle = space.ideal(pairs)
    I = space.ideal([f"{a}*{b}" for a in "xyz" for b in pairs])
    assert saturate_by_colon(I) == triangle

    def refuse(*args, **kwargs):
        raise AssertionError("colon called")

    eliminations = []

    def counted(*args, **kwargs):
        eliminations.append(args)
        return preimage(*args, **kwargs)

    preimage = idealops._preimage
    monkeypatch.setattr(idealops, "colon", refuse)
    monkeypatch.setattr(idealops, "_preimage", counted)
    for (P, length), ref in zip(rows, refs):
        assert ghk_value(P, 1) == ref == length
        assert not eliminations
        assert len(certify_saturation(pullback_image(P, 1)).variables) > 1
    assert not eliminations
    assert len(certify_saturation(I).variables) > 1
    assert len(eliminations) == 1
    S = saturate(I)
    assert len(eliminations) == 1 + 2
    assert S == triangle
    assert colength_difference(I, S) == 3


def test_certificate_budget_reaches_every_basis(monkeypatch):
    # every basis the certificate builds, the sum of the variable
    # saturations included, runs under the caller's budget
    U = pullback_image(cusp_row(), 2)
    budget = GbBudget(max_pairs=10**9)
    seen = []

    def spy(ring, twists, vectors, budget, *args, **kwargs):
        seen.append(budget)
        return build(ring, twists, vectors, budget, *args, **kwargs)

    build = groebner._basis
    monkeypatch.setattr(groebner, "_basis", spy)
    cert = certify_saturation(U, budget)
    assert len(cert.variables) == 2
    # one basis per variable, then one of the sum
    assert len(seen) == 3 and all(b is budget for b in seen)


# ---------------------------------------------------------------------------
# the order in which the certificate tries the variables over A


def _twisted_sum(R, gens):
    """R/I (+) R(-1)/I for I = (gens): row twists [0, 1] and column
    twists [1, 1, 2, 2], the benchmark's twisted module."""
    zero = R.ring.zero
    cols = [ModVector((R.parse(g), zero)) for g in gens]
    cols += [ModVector((zero, R.parse(g))) for g in gens]
    return Presentation(R, (0, 1), (1, 1, 2, 2), cols)


def test_torsion_over_y_zero_certifies_with_x_alone():
    # the benchmark's twisted module at the point (1 : 0 : -1) over F_13:
    # its torsion lies over (1 : 0) of the centre's P^1, so the fibre
    # ranks send x first and no y basis is built
    R = RingSpec(13, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    U = pullback_image(_twisted_sum(R, ["y", "x + z"]), 1)
    cert = certify_saturation(U)
    assert cert.variables == (0,) and list(U._gb) == [0]
    assert cert.length == 2 * 4 * (13**2 - 1) // 3 == 448


def test_torsion_off_the_coordinate_points_keeps_y_first():
    # the sweep point (1 : 1 : 1) lies over (1 : 1): y certifies alone
    R = RingSpec(5, ["x", "y", "z"], ["x^3 + y^3 - 2*z^3"])
    U = pullback_image(presentation_of_quotient(R.ideal(["x - y", "y - z"]), R), 1)
    assert certify_saturation(U).length == 32
    assert list(U._gb) == [1]


# rational points (a : b : c) of two smooth cubics, whose centre is x, y
# unshifted: the torsion of a point module lies over (a : b) of P^1, on
# y = 0 exactly when b = 0 (never on x^3 + y^3 - 2z^3 over F_7, where
# 2 is not a cube)
CENTRE_POINTS = [
    (relation, case)
    for relation, cases in (
        ("x^3 + y^3 + z^3", _cubic_points(7) + _cubic_points(13)),
        ("x^3 + y^3 - 2*z^3", _cubic_points(7, (1, 1, -2))),
    )
    for case in cases
]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CENTRE_POINTS), kind=st.sampled_from(["point", "twisted", "free"]))
@example(case=("x^3 + y^3 + z^3", (13, (4, 0, 1))), kind="twisted")
@example(case=("x^3 + y^3 + z^3", (7, (3, 0, 1))), kind="free")
@example(case=("x^3 + y^3 - 2*z^3", (7, (1, 1, 1))), kind="free")
def test_certificate_tries_x_first_exactly_over_y_zero(case, kind):
    # R/I, R/I (+) R(-1)/I, and R/I (+) R, whose free summand makes F/U
    # drop rank at both coordinate points alike: there rank(1, 0) is
    # below U.rank at every point, and only rank(1, 0) < rank(0, 1)
    # tells the torsion over y = 0 apart
    relation, (p, pt) = case
    R = RingSpec(p, ["x", "y", "z"], [relation])
    assert R.noether_normalization().shift == (("x", "y"), (0, 0))
    gens = [_form_str(f) for f in _point_forms(p, pt)]
    if kind == "point":
        P = presentation_of_quotient(R.ideal(gens), R)
    elif kind == "twisted":
        P = _twisted_sum(R, gens)
    else:
        cols = [ModVector((R.parse(g), R.ring.zero)) for g in gens]
        P = Presentation(R, (0, 0), (1, 1), cols)
    U = pullback_image(P, 1)
    cert = certify_saturation(U)
    x_first = next(iter(U._gb)) == 0
    if x_first:
        # the reorder is sound: y's own basis has a pole-order difference
        # with a pole, so y could not have certified
        leads = U.groebner(last=1).lead_terms()
        cut = [(j, (m[0], 0)) for j, m in leads]
        torsion = _lead_series(leads, U.twists, 2).sub(_lead_series(cut, U.twists, 2))
        assert torsion.pole_order() > 0
    assert x_first == (pt[1] == 0)
    # (0 : 0 : 1) is on neither cubic, so the first variable certifies
    assert cert.variables == (0 if x_first else 1,)
    assert ghk_value(P, 1) == cert.length == colon_route_length(P, 1)


# ---------------------------------------------------------------------------
# hk_value and the two-route agreement


def test_hk_pinned_values(fermat7):
    I = fermat7.ideal(["x", "y", "z"])
    assert hk_value(I, 1) == 109
    assert hk_value(I, 2) == 5401
    # (9q^2 - 5)/4 on the Fermat cubic; three p-th-power steps of the
    # bracket power's normal form
    assert hk_value(I, 4) == (9 * 2401**2 - 5) // 4 == 12970801
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


GENERAL_CUBIC = "x^3 + 2*y^3 + 3*z^3 + x*y*z + 5*x^2*y"


@functools.cache
def _smooth_cubic(p: int, relation: str) -> RingSpec:
    R = RingSpec(p, ["x", "y", "z"], [relation])
    assert R.validate().ok
    return R


@settings(max_examples=16, deadline=None)
@given(
    p=st.sampled_from([5, 7]),
    relation=st.sampled_from([COORDINATE_POINTS, GENERAL_CUBIC]),
    forms=st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=3, max_size=3),
    powers=st.lists(st.sampled_from([1, 2]), min_size=3, max_size=3),
    e=st.sampled_from([1, 2]),
)
def test_routes_agree_on_non_diagonal_cubics(p, relation, forms, powers, e):
    # I = (l1^a, l2^b, l3^c) for independent linear forms l_i is
    # irrelevant-primary. The Klein cubic (COORDINATE_POINTS) and
    # GENERAL_CUBIC are not diagonal, so the Frobenius powers of their
    # rings are dense where the Fermat cubic's stay sparse
    det = sum(
        forms[0][k] * (forms[1][k - 2] * forms[2][k - 1] - forms[1][k - 1] * forms[2][k - 2])
        for k in range(3)
    )
    assume(det % p)
    R = _smooth_cubic(p, relation)
    gens = [
        f"({' + '.join(f'{k}*{v}' for k, v in zip(row, R.variables))})^{power}"
        for row, power in zip(forms, powers)
    ]
    I = R.ideal(gens)
    assert hk_value(I, e) == ghk_value(presentation_of_quotient(I, R), e)


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


def test_presentation_pickles_with_its_order(fermat7):
    # a ring holds no closures, so it pickles by its slots and the copy
    # packs and orders monomials as the original does
    P = point_presentation(fermat7)
    Q = pickle.loads(pickle.dumps(P))
    assert Q == P
    assert ghk_value(Q, 1) == ghk_value(P, 1)


def test_hk_value_builds_no_basis_of_the_ideal_itself(monkeypatch):
    # the bracket's own series decides whether I is irrelevant-primary, so
    # the two rows at q = 19 and 361 build the basis of the relation and of
    # each bracket ideal, and I's basis is never needed (it was a fifth)
    built = []
    basis = groebner._basis

    def counted(*args, **kwargs):
        built.append(1)
        return basis(*args, **kwargs)

    monkeypatch.setattr(groebner, "_basis", counted)
    R = RingSpec(19, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    I = R.ideal(["x", "y", "z"])
    # (9q^2 - 5)/4, the Fermat cubic's Hilbert-Kunz function off p = 2, 3
    assert [hk_value(I, e) for e in (1, 2)] == [(9 * q * q - 5) // 4 for q in (19, 361)]
    assert len(built) == 4
    # a non-primary ideal is still refused, by the bracket's pole order
    with pytest.raises(GhkHypothesisError, match="irrelevant-primary"):
        hk_value(R.ideal(["x"]), 1)
