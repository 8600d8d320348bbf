"""Presentation/pullback mechanics and the two length routes, pinned to
linear-algebra oracle values on small Frobenius powers."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.arith import MonomialOrder
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
)
from ghk.groebner import GbBudget, ModVector, Submodule
from ghk.idealops import RingSpec, certify_saturation, colength_difference, saturate_by_colon

from naive_curve import CurveRing, cubic_point_torsion_length, finite_colength
from naive_poly import NaivePoly


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
    with pytest.raises(GhkHypothesisError):
        frobenius_pullback(P, -1)


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
    # first, as the ring order's last variable) and certifies with x
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


def test_table_merge(fermat7):
    P = point_presentation(fermat7)
    t1 = ghk_table(P, 1)
    t2 = ghk_table(P, 2, exponents=[2])
    merged = t1.merged_with(t2)
    assert merged == ghk_table(P, 2)
    conflicting = GHKTable(7, t1.module, (GHKRow(1, 7, 65),))
    with pytest.raises(GhkError):
        t1.merged_with(conflicting)
    # a skipped row is forgotten once a merge supplies the value
    partial = GHKTable(7, t1.module, (), (SkippedRow(1, "budget"),))
    assert partial.merged_with(t1).skipped == ()


def test_table_invariants():
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 7, 3), GHKRow(1, 7, 3)))
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 5, 3),))
    with pytest.raises(GhkError):
        GHKTable(7, "m", (GHKRow(1, 7, -1),))


def test_table_exponent_validation(fermat7):
    P = point_presentation(fermat7)
    with pytest.raises(GhkError):
        ghk_table(P, 0)
    with pytest.raises(GhkError):
        ghk_table(P, 1, exponents=[0, 1])


def test_table_parallel_matches_serial(fermat7):
    P = point_presentation(fermat7)
    serial = ghk_table(P, 2)
    parallel = ghk_table(P, 2, jobs=2)
    assert serial == parallel


@pytest.fixture(scope="module")
def fermat7_reordered():
    return RingSpec(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"], order=MonomialOrder("grevlex", (2, 0, 1)))


def test_presentation_pickles_with_its_order(fermat7_reordered):
    P = point_presentation(fermat7_reordered)
    Q = pickle.loads(pickle.dumps(P))
    assert Q == P
    assert Q.rspec.ring.order == MonomialOrder("grevlex", (2, 0, 1))
    assert ghk_value(Q, 1) == ghk_value(P, 1)


def test_table_parallel_matches_serial_under_a_reordered_ring(fermat7_reordered):
    P = point_presentation(fermat7_reordered)
    assert ghk_table(P, 2, jobs=2) == ghk_table(P, 2)
