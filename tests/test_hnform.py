"""Closed-form slope arithmetic: pinned values and algebraic identities."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.arith import Rat
from ghk.errors import GhkHypothesisError, GhkHypothesisWarning
from ghk.hnform import (
    HNData,
    e_ghk_closed_form,
    e_ghk_point,
    e_ghk_two_generated,
    e_hk_closed_form,
    hk_slope,
    hn_rank1_syzygy,
    hn_sum_line_bundles,
)


def test_hndata_validation():
    H = HNData([(2, -3), (1, -6)], 3)
    assert H.rank == 3
    assert H.degree() == -12
    assert H.normalized_jumps() == (Rat(1), Rat(2))
    with pytest.raises(GhkHypothesisError):
        HNData([(1, -6), (1, -3)], 3)  # increasing slopes
    with pytest.raises(GhkHypothesisError):
        HNData([(1, -3), (1, -3)], 3)  # not strictly decreasing
    with pytest.raises(GhkHypothesisError):
        HNData([(0, -3)], 3)
    with pytest.raises(GhkHypothesisError):
        HNData([(1, -3)], 0)
    for bad in (1.9, True, "2"):  # refused, never truncated
        with pytest.raises(GhkHypothesisError):
            HNData([(bad, -3)], 3)
        with pytest.raises(GhkHypothesisError):
            HNData([(1, -3)], bad)
    HNData([(2, -3), (1, -6)], 3, total_degree=-12)
    with pytest.raises(GhkHypothesisError):
        HNData([(2, -3), (1, -6)], 3, total_degree=-11)


def test_hndata_rational_slopes_and_json():
    H = HNData([(1, "5/2"), (2, "-7/3")], 2, total_degree="-13/6")
    assert hk_slope(H) == Rat(25, 4) + 2 * Rat(49, 9)
    obj = H.to_json_obj()
    assert obj == {
        "quotients": [[1, "5/2"], [2, "-7/3"]],
        "degY": 2,
        "total_degree": "-13/6",
    }
    assert HNData.from_json_obj(obj) == H
    with pytest.raises(GhkHypothesisError):
        HNData.from_json_obj({"degY": 3})
    with pytest.raises(GhkHypothesisError):
        HNData([(1, 2.5)], 3)  # floats are refused, exactness first


def test_hk_slope_values():
    assert hk_slope(HNData([(1, 4)], 2)) == 16  # single line bundle: deg^2
    assert hk_slope(HNData([], 5)) == 0
    assert hk_slope(HNData([(2, -3), (1, -6)], 3)) == 54
    assert isinstance(hk_slope(HNData([], 5)), Rat)


def test_sum_line_bundles():
    H = hn_sum_line_bundles([(1, 2), (2, 1)], 3)
    assert H.quotients == ((2, Rat(-3)), (1, Rat(-6)))
    assert hk_slope(H) == 54
    assert hk_slope(hn_sum_line_bundles([(0, 1)], 7)) == 0
    assert hk_slope(hn_sum_line_bundles([(1, 1)], 1)) == 1
    # input order must not matter
    assert hn_sum_line_bundles([(2, 1), (1, 2)], 3) == H
    with pytest.raises(GhkHypothesisError):
        hn_sum_line_bundles([(1, 2), (1, 1)], 3)
    with pytest.raises(GhkHypothesisError):
        hn_sum_line_bundles([(1, 2.5)], 3)
    with pytest.raises(GhkHypothesisError):
        hn_sum_line_bundles([(1.0, 2)], 3)
    with pytest.raises(GhkHypothesisError):
        hn_sum_line_bundles([(1, 2)], True)


def test_rank1_syzygy():
    assert hn_rank1_syzygy(1, 1, -1, 3).quotients == ((1, Rat(-5)),)
    assert hn_rank1_syzygy(1, 2, 0, 1).quotients == ((1, Rat(-3)),)
    with pytest.raises(GhkHypothesisError):
        hn_rank1_syzygy(1, 1, 1, 3)
    with pytest.raises(GhkHypothesisError):
        hn_rank1_syzygy(0, 1, -1, 3)
    with pytest.raises(GhkHypothesisError):
        hn_rank1_syzygy(1.9, 1, -1, 3)


def test_eghk_closed_form_values():
    point = e_ghk_closed_form(HNData([(1, -5)], 3), (1, 1), HNData([(1, -1)], 3))
    assert point == Rat(4, 3)
    principal = e_ghk_closed_form(HNData([], 3), (2,), HNData([(1, -6)], 3))
    assert principal == 0
    koszul = e_ghk_closed_form(HNData([(1, -2)], 1), (1, 1), HNData([(1, 0)], 1))
    assert koszul == 1
    with pytest.raises(GhkHypothesisError):
        e_ghk_closed_form(HNData([(1, -5)], 3), (1, 1), HNData([(1, -1)], 2))
    with pytest.raises(GhkHypothesisError):
        e_ghk_closed_form(HNData([(1, -5)], 3), (1.5, 1), HNData([(1, -1)], 3))
    with pytest.raises(GhkHypothesisError):
        e_ghk_closed_form(HNData([(1, -5)], 3), (1, 1), HNData([(1, -1)], 3), 3.0)


def test_ehk_closed_form_values():
    assert e_hk_closed_form(HNData([(1, -2)], 1), (1, 1)) == 1
    with pytest.warns(GhkHypothesisWarning):
        # principal ideals are not irrelevant-primary; the formula says so
        assert e_hk_closed_form(HNData([], 3), (2,)) == Rat(-36, 6)
    with pytest.warns(GhkHypothesisWarning):
        assert e_hk_closed_form(HNData([(2, -3)], 3), (1, 1)) == 0
    with pytest.raises(GhkHypothesisError):
        e_hk_closed_form(HNData([(1, -2)], 1), (1, True))


def test_two_generated_values():
    assert e_ghk_two_generated(1, 1, -1, 3) == Rat(4, 3)
    assert e_ghk_two_generated(2, 3, -2, 4) == 15
    assert e_ghk_two_generated(2, 5, 0, 3) == 30
    with pytest.raises(GhkHypothesisError):
        e_ghk_two_generated(1, 1, 2, 3)
    with pytest.raises(GhkHypothesisError):
        e_ghk_two_generated(1.9, 1, -1, 3.7)


def test_point_values():
    assert e_ghk_point(3) == Rat(4, 3)
    assert e_ghk_point(1) == 0
    assert e_ghk_point(4) == Rat(9, 4)
    with pytest.raises(GhkHypothesisError):
        e_ghk_point(0)
    for bad in (True, 3.0):
        with pytest.raises(GhkHypothesisError):
            e_ghk_point(bad)


# ---------------------------------------------------------------------------
# identity suite


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(1, 30),
    b=st.integers(1, 30),
    d=st.integers(-40, 0),
    degY=st.integers(1, 20),
)
def test_two_generated_agrees_with_general_form(a, b, d, degY):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GhkHypothesisWarning)
        general = e_ghk_closed_form(
            hn_rank1_syzygy(a, b, d, degY), (a, b), HNData([(1, d)], degY), degY
        )
        special = e_ghk_two_generated(a, b, d, degY)
    assert general == special
    assert isinstance(general, Rat)


@pytest.mark.parametrize("degY", range(1, 51))
def test_point_is_two_generated_with_unit_degrees(degY):
    assert e_ghk_two_generated(1, 1, -1, degY) == e_ghk_point(degY)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-15, 15), st.integers(1, 6)),
        min_size=0,
        max_size=5,
        unique_by=lambda t: t[0],
    ),
    st.integers(1, 12),
)
def test_sum_line_bundle_slope_formula(pairs, degY):
    H = hn_sum_line_bundles(pairs, degY)
    assert hk_slope(H) == degY**2 * sum(r * d * d for d, r in pairs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.integers(-30, 30)), min_size=0, max_size=6),
    st.integers(1, 10),
)
def test_hk_slope_is_rank_weighted_square_sum(quotients, degY):
    slopes = sorted({mu for _, mu in quotients}, reverse=True)
    data = [(r, mu) for (r, _), mu in zip(quotients, slopes)]
    H = HNData(data, degY)
    assert hk_slope(H) == sum(r * mu * mu for r, mu in data)
