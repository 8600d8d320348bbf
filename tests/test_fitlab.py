"""Estimator, gamma extraction, and the prime sweep."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.arith import Rat
from ghk.errors import GhkError, GhkHypothesisError
from ghk.fitlab import (
    FamilySpec,
    SweepRow,
    estimate_multiplicity,
    fit_report,
    gamma_analysis,
    prime_sweep,
)
from ghk.frobmod import GHKRow, GHKTable
from ghk.groebner import GbBudget


def synth(p, values, module="synthetic"):
    rows = tuple(GHKRow(e, p**e, L) for e, L in values)
    return GHKTable(p, module, rows)


POINT7 = synth(7, [(1, 64), (2, 3200)], module="point ideal")


# ---------------------------------------------------------------------------
# estimator


def test_estimator_pure_quadratic():
    T = synth(3, [(1, 2 * 9), (2, 2 * 81)])
    est, bound = estimate_multiplicity(T)
    assert est == 2 and bound == 0


def test_estimator_cancels_constant_gamma():
    T = synth(3, [(1, 2 * 9 + 5), (2, 2 * 81 + 5)])
    est, bound = estimate_multiplicity(T)
    assert est == 2
    assert bound == Rat(2 * 5, 81 - 9)


def test_estimator_uses_two_largest_rows():
    # an off-model first row must not influence the estimate
    T = synth(2, [(1, 999), (2, 3 * 16), (3, 3 * 64)])
    est, _ = estimate_multiplicity(T)
    assert est == 3


def test_estimator_point_table():
    est, bound = estimate_multiplicity(POINT7)
    assert est == Rat(4, 3)
    assert abs(est - Rat(4, 3)) <= Rat(5, 100)
    # gamma is identically -4/3 under the fit, so the default bound is
    # 2*(4/3)/(49^2 - 7^2)
    assert bound == Rat(8, 3) / (49**2 - 7**2)


def test_estimator_explicit_bound_and_errors():
    est, bound = estimate_multiplicity(POINT7, gamma_bound=10)
    assert bound == Rat(20, 49**2 - 7**2)
    with pytest.raises(GhkError):
        estimate_multiplicity(POINT7, gamma_bound=-1)
    with pytest.raises(GhkError):
        estimate_multiplicity(synth(7, [(1, 5)]))
    # a float is not an exact rational: Rat(0.1) would carry its binary
    # expansion into the bound
    for probe in (
        lambda: estimate_multiplicity(POINT7, 0.1),
        lambda: estimate_multiplicity(POINT7, True),
        lambda: gamma_analysis(POINT7, 1.5),
        lambda: fit_report(POINT7, e_exact=0.3),
    ):
        with pytest.raises(GhkHypothesisError, match="exact rational"):
            probe()


@settings(max_examples=80, deadline=None)
@given(
    e=st.integers(0, 9),
    c=st.integers(0, 50),
    exps=st.lists(st.integers(1, 6), min_size=2, max_size=5, unique=True),
)
def test_estimator_exact_on_quadratic_plus_constant(e, c, exps):
    p = 3
    rows = [(k, e * p ** (2 * k) + c) for k in sorted(exps)]
    est, bound = estimate_multiplicity(synth(p, rows))
    assert est == e
    assert bound == Rat(2 * c, p ** (2 * max(exps)) - p ** (2 * sorted(exps)[-2]))


# ---------------------------------------------------------------------------
# gamma analysis


def test_gamma_zero_table_is_periodic():
    T = synth(7, [(e, 0) for e in range(1, 7)], module="principal")
    rep = gamma_analysis(T, 0)
    assert all(g == 0 for *_r, g in rep.gamma)
    assert rep.max_abs_gamma == 0
    assert rep.period == 1
    assert rep.periodicity == "periodic (period 1)"


def test_gamma_exact_quadratic():
    T = synth(5, [(e, 5 ** (2 * e)) for e in range(1, 4)])
    rep = gamma_analysis(T, 1)
    assert all(g == 0 for *_r, g in rep.gamma)
    assert rep.periodicity == "insufficient-data" and rep.period is None


def test_gamma_point_table_regression_bound():
    rep = gamma_analysis(POINT7, Rat(4, 3))
    assert [g for *_r, g in rep.gamma] == [Rat(-4, 3), Rat(-4, 3)]
    assert rep.max_abs_gamma == Rat(4, 3) <= 10
    # round trip: length = e*q^2 + gamma exactly
    for e, q, length, g in rep.gamma:
        assert length == Rat(4, 3) * q * q + g


def test_gamma_periodic_pattern():
    values = [3, 8, 3, 8, 3, 8, 3]
    T = synth(2, list(enumerate(values, start=1)))
    rep = gamma_analysis(T, 0)
    assert rep.period == 2
    assert rep.periodicity == "periodic (period 2)"


def test_gamma_aperiodic_window():
    T = synth(2, list(enumerate([1, 2, 3, 4, 5, 6, 7], start=1)))
    rep = gamma_analysis(T, 0)
    assert rep.periodicity == "aperiodic-so-far" and rep.period is None


def test_gamma_empty_and_serialization():
    rep = gamma_analysis(synth(3, []), 2)
    assert rep.gamma == () and rep.max_abs_gamma is None
    assert rep.periodicity == "insufficient-data"

    rep = gamma_analysis(POINT7, Rat(4, 3))
    d = rep.to_json_dict()
    assert d["estimate"] == "4/3"
    assert d["gamma"][0] == {"e": 1, "q": 7, "length": 64, "gamma": "-4/3"}
    assert d["error_bound"] is None
    csv = rep.to_csv().splitlines()
    assert csv[0] == "e,q,length,e_q2,gamma"
    assert csv[1] == "1,7,64,196/3,-4/3"


def test_fit_report_modes():
    fitted = fit_report(POINT7)
    assert fitted.estimate == Rat(4, 3) and fitted.error_bound is not None
    exact = fit_report(POINT7, e_exact=Rat(4, 3))
    assert exact.error_bound is None
    assert fitted.gamma == exact.gamma


# ---------------------------------------------------------------------------
# prime sweep


CUBIC_FAMILY = FamilySpec(
    variables=("x", "y", "z"),
    relations=("x^3 + y^3 - 2*z^3",),
    generators=("x - y", "y - z"),
)


def test_family_spec_normalizes_to_tuples():
    fam = FamilySpec(["x", "y"], [], ["x"], denominators=[6])
    assert fam == FamilySpec(("x", "y"), (), ("x",), (6,))
    assert fam.variables == ("x", "y") and fam.denominators == (6,)
    assert FamilySpec(("x",), (), ("x",)).denominators == ()
    with pytest.raises(TypeError):
        FamilySpec(("x",), ())
    with pytest.raises(AttributeError):
        fam.denominators = (5,)


@pytest.mark.parametrize("bad", [2.5, True])
def test_family_spec_refuses_a_denominator_that_is_not_an_int(bad):
    with pytest.raises(GhkError, match="denominator"):
        FamilySpec(("x", "y"), (), ("x",), denominators=(bad,))


def test_sweep_records_pickle():
    row = SweepRow(5, False, "5 divides a declared bad denominator")
    assert row.estimate is None and row.error_bound is None and row.table is None
    assert row == SweepRow(p=5, validated=False, reason=row.reason)
    done = SweepRow(7, True, "", Rat(4, 3), Rat(0), synth(7, [(1, 64)]))
    for record in (CUBIC_FAMILY, row, done):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)


def test_sweep_small():
    rep = prime_sweep(CUBIC_FAMILY, [7, 5], e_max=2)
    assert [row.p for row in rep.rows] == [5, 7]
    assert all(row.validated for row in rep.rows)
    assert [row.estimate for row in rep.rows] == [Rat(4, 3), Rat(4, 3)]
    assert rep.rows[0].table.lengths_by_exponent() == {1: 32, 2: 832}
    # two estimates -> top half is the single largest prime
    assert rep.top_half == (7,) and rep.spread == 0


def test_sweep_flags_bad_primes():
    rep = prime_sweep(CUBIC_FAMILY, [3, 5, 9], e_max=1)
    by_p = {row.p: row for row in rep.rows}
    assert not by_p[3].validated  # char 3 degenerates the cubic
    assert by_p[3].reason
    assert not by_p[9].validated and "not prime" in by_p[9].reason
    assert by_p[5].validated
    assert by_p[5].estimate is None  # single row, no estimate
    assert "no estimate" in by_p[5].reason


def test_sweep_char2_singular():
    rep = prime_sweep(CUBIC_FAMILY, [2], e_max=1)
    assert not rep.rows[0].validated


def test_sweep_declared_denominator():
    fam = FamilySpec(("x", "y"), (), ("x",), denominators=(6,))
    rep = prime_sweep(fam, [2, 3, 5], e_max=2)
    by_p = {row.p: row for row in rep.rows}
    assert not by_p[2].validated and "denominator" in by_p[2].reason
    assert not by_p[3].validated
    assert by_p[5].validated and by_p[5].estimate == 0


def test_sweep_principal_family():
    fam = FamilySpec(("x", "y", "z"), ("x^3 + y^3 - 2*z^3",), ("x",))
    rep = prime_sweep(fam, [5, 7], e_max=2)
    assert [row.estimate for row in rep.rows] == [Rat(0), Rat(0)]


def test_sweep_degenerate_generator():
    fam = FamilySpec(("x", "y"), (), ("5*x",))
    rep = prime_sweep(fam, [5, 7], e_max=1)
    by_p = {row.p: row for row in rep.rows}
    assert not by_p[5].validated and "zero" in by_p[5].reason
    assert by_p[7].validated


def test_sweep_budget_rows_become_estimate_gaps():
    rep = prime_sweep(CUBIC_FAMILY, [5], e_max=2, budget=GbBudget(max_degree=4))
    row = rep.rows[0]
    assert row.validated
    assert row.estimate is None
    assert row.table.rows == () and len(row.table.skipped) == 2


def test_sweep_determinism_and_serialization():
    a = prime_sweep(CUBIC_FAMILY, [5, 7], e_max=2)
    b = prime_sweep(CUBIC_FAMILY, [7, 5, 5], e_max=2)
    assert a.to_json_dict() == b.to_json_dict()
    d = a.to_json_dict()
    assert d["rows"][0]["estimate"] == "4/3"
    assert d["spread"] == "0"
    csv = a.to_csv().splitlines()
    assert csv[0] == "p,validated,estimate,reason"
    assert csv[1] == "5,true,4/3,"


def test_sweep_parallel_matches_serial():
    serial = prime_sweep(CUBIC_FAMILY, [5, 7], e_max=2)
    parallel = prime_sweep(CUBIC_FAMILY, [5, 7], e_max=2, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()
    # the budget crosses to the workers inside the task: it skips q = 49.
    # Over the Noether normalization the largest basis of a row reduces
    # 7 and 29 S-pairs at p = 5 (e = 1, 2) and 10 and 51 at p = 7
    budget = GbBudget(max_pairs=40)
    budgeted = prime_sweep(CUBIC_FAMILY, [5, 7], e_max=2, budget=budget, jobs=2)
    assert [s.e for s in budgeted.rows[1].table.skipped] == [2]
    assert budgeted.to_json_dict() == prime_sweep(
        CUBIC_FAMILY, [5, 7], e_max=2, budget=budget
    ).to_json_dict()


def test_sweep_empty_primes():
    with pytest.raises(GhkError):
        prime_sweep(CUBIC_FAMILY, [], e_max=2)
    # a prime or an e_max that is not an int is refused, not truncated to
    # p = 5 or read as p = 1 or as one row
    for primes, e_max in (([5.9], 1), ([5, True], 1), (["5"], 1), ([5], True), ([5], 1.0)):
        with pytest.raises(GhkHypothesisError, match="must be an int"):
            prime_sweep(CUBIC_FAMILY, primes, e_max)


def test_sweep_top_half_spread():
    rep = prime_sweep(CUBIC_FAMILY, [5, 7, 11], e_max=2)
    assert rep.top_half == (7, 11)
    assert rep.spread == 0
