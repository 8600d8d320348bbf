"""Acceptance suite: the eight behaviors the package promises.

Each test prints one PASS/FAIL verdict line directly to the real stdout
(bypassing capture) so a full run always shows the eight verdicts, and
each enforces its stated runtime ceiling. Expected values that are not
forced by symmetry were frozen from the independent linear-algebra
oracle in naive_curve.py, never from the engine under test.
"""

import itertools
import random
import time
import warnings

from ghk.arith import Rat
from ghk.errors import GhkHypothesisWarning
from ghk.fitlab import FamilySpec, estimate_multiplicity, prime_sweep
from ghk.frobmod import ghk_table, ghk_value, hk_value, presentation_of_quotient
from ghk.hnform import (
    HNData,
    e_ghk_closed_form,
    e_ghk_point,
    e_ghk_two_generated,
    hk_slope,
    hn_rank1_syzygy,
    hn_sum_line_bundles,
)
from ghk.idealops import RingSpec, colength_difference, reflexive_hull, saturate

from naive_curve import CurveRing, graded_ideal_dimension
from naive_poly import NaivePoly


def fermat():
    return RingSpec(7, ("x", "y", "z"), ("x^3 + y^3 + z^3",))


def plane():
    return RingSpec(7, ("x", "y"), ())


def verdict(capsys, n: int, ok: bool, label: str, elapsed=None) -> None:
    """One always-visible line per criterion, even under fd capture."""
    mark = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.1f}s)"
    with capsys.disabled():
        print(f"acceptance {n} [{mark}] {label}{timing}", flush=True)


# ---------------------------------------------------------------------------
# 1. pullbacks of a principal-ideal quotient carry no finite-length torsion


def test_criterion_1_principal_ideal_torsion_vanishes(capsys):
    start = time.perf_counter()
    rspec = fermat()
    P = presentation_of_quotient(rspec.ideal([rspec.parse("x")]))
    values = [ghk_value(P, e) for e in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = values == [0, 0, 0] and elapsed <= 60
    verdict(capsys, 1, ok, "principal ideal: zero torsion at q = 7, 49, 343", elapsed)
    assert values == [0, 0, 0]
    assert elapsed <= 60


# ---------------------------------------------------------------------------
# 2. two-point estimate at a reduced point converges to (degY-1)^2/degY


def _point_presentation(rspec):
    gens = [rspec.parse("z"), rspec.parse("3*x - y")]
    return presentation_of_quotient(rspec.ideal(gens))


def test_criterion_2_point_ideal_estimate(capsys):
    start = time.perf_counter()
    T = ghk_table(_point_presentation(fermat()), 2)
    estimate, _bound = estimate_multiplicity(T)
    elapsed = time.perf_counter() - start
    err = abs(estimate - Rat(4, 3))
    ok = err <= Rat(1, 20)
    verdict(capsys, 2, ok, f"point ideal: estimate {estimate} from q = 7, 49", elapsed)
    assert err <= Rat(1, 20)


def test_criterion_2_point_ideal_estimate_full(capsys):
    start = time.perf_counter()
    T = ghk_table(_point_presentation(fermat()), 3)
    estimate, _bound = estimate_multiplicity(T)
    elapsed = time.perf_counter() - start
    err = abs(estimate - Rat(4, 3))
    ok = err <= Rat(1, 200) and elapsed <= 900
    verdict(capsys, 2, ok, f"point ideal: estimate {estimate} from q = 49, 343", elapsed)
    assert err <= Rat(1, 200)
    assert elapsed <= 900


def test_criterion_2_point_ideal_length_at_q2401(capsys):
    # a smooth point of a plane cubic: L = 4(q^2 - 1)/3 by genus-1
    # Riemann-Roch, for every q prime to 3
    start = time.perf_counter()
    q = 7**4
    length = ghk_value(_point_presentation(fermat()), 4)
    elapsed = time.perf_counter() - start
    ok = length == 4 * (q * q - 1) // 3 == 7686400 and elapsed <= 60
    verdict(capsys, 2, ok, f"point ideal: L = {length} = 4(q^2 - 1)/3 at q = 2401", elapsed)
    assert length == 4 * (q * q - 1) // 3 == 7686400
    assert elapsed <= 60


# ---------------------------------------------------------------------------
# 3. for the irrelevant ideal the generalized and classical lengths agree


def test_criterion_3_classical_coincidence(capsys):
    results = []
    for rspec in (plane(), fermat()):
        irr = rspec.ideal([rspec.parse(v) for v in rspec.variables])
        P = presentation_of_quotient(irr)
        for e in (1, 2):
            results.append((rspec.variables, e, ghk_value(P, e), hk_value(irr, e)))
    ok = all(g == h for _, _, g, h in results)
    # free plane ring: both routes must give exactly q^2
    ok = ok and all(g == 7 ** (2 * e) for v, e, g, _ in results if len(v) == 2)
    verdict(capsys, 3, ok, "irrelevant ideal: generalized equals classical at q = 7, 49")
    for variables, e, g, h in results:
        assert g == h, (variables, e, g, h)
    for variables, e, g, _ in results:
        if len(variables) == 2:
            assert g == 7 ** (2 * e)


# ---------------------------------------------------------------------------
# 4. scaling the ideal by a nonzero form leaves every length unchanged


def test_criterion_4_multiplier_invariance(capsys):
    rspec = fermat()
    f = rspec.parse("x")
    gens = [rspec.parse("z"), rspec.parse("3*x - y")]
    P = presentation_of_quotient(rspec.ideal(gens))
    Pf = presentation_of_quotient(rspec.ideal([f * g for g in gens]))
    pairs = [(ghk_value(P, e), ghk_value(Pf, e)) for e in (1, 2)]
    ok = all(a == b for a, b in pairs)
    verdict(capsys, 4, ok, f"multiplier invariance: lengths {pairs} agree at q = 7, 49")
    for a, b in pairs:
        assert a == b


# ---------------------------------------------------------------------------
# 5. reflexive hulls are already saturated


def _random_form(rng, rspec, degree):
    """Nonzero homogeneous form with coefficients from the base field."""
    monomials = [
        m
        for m in itertools.product(range(degree + 1), repeat=3)
        if sum(m) == degree
    ]
    while True:
        terms = []
        for (a, b, c) in monomials:
            coeff = rng.randrange(rspec.p)
            if coeff:
                parts = [str(coeff)]
                for var, exp in zip(("x", "y", "z"), (a, b, c)):
                    if exp == 1:
                        parts.append(var)
                    elif exp > 1:
                        parts.append(f"{var}^{exp}")
                terms.append("*".join(parts))
        if terms:
            return rspec.parse(" + ".join(terms))


def test_criterion_5_reflexive_hulls_are_saturated(capsys):
    rng = random.Random(20260819)
    rspec = fermat()
    for trial in range(10):
        # common factor forces height one; the hull must absorb nothing more
        f = _random_form(rng, rspec, rng.randint(1, 2))
        h1 = _random_form(rng, rspec, rng.randint(1, 2))
        h2 = _random_form(rng, rspec, rng.randint(1, 2))
        I = rspec.ideal([f * h1, f * h2])
        J = reflexive_hull(I)
        gap = colength_difference(J, saturate(J))
        assert gap == 0, (trial, str(f), str(h1), str(h2))
    verdict(capsys, 5, True, "reflexive hulls of 10 random height-one ideals are saturated")


# ---------------------------------------------------------------------------
# 6. closed-form identities


def test_criterion_6_closed_form_identity_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GhkHypothesisWarning)
        for _ in range(100):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            d, degY = rng.randint(-5, 0), rng.randint(1, 6)
            general = e_ghk_closed_form(
                hn_rank1_syzygy(a, b, d, degY), (a, b), HNData([(1, d)], degY), degY
            )
            assert general == e_ghk_two_generated(a, b, d, degY), (a, b, d, degY)
        for degY in range(1, 7):
            assert e_ghk_two_generated(1, 1, -1, degY) == e_ghk_point(degY)
        for _ in range(100):
            degY = rng.randint(1, 6)
            degrees = rng.sample(range(-6, 7), rng.randint(1, 4))
            pairs = [(d, rng.randint(1, 3)) for d in degrees]
            slope = hk_slope(hn_sum_line_bundles(pairs, degY))
            assert slope == degY**2 * sum(r * d * d for d, r in pairs)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    verdict(capsys, 6, ok, "closed-form identities hold on 200 random inputs", elapsed)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 7. engine lengths match brute-force degreewise dimension counts


def _random_naive_poly(rng, p, nvars, degree):
    monomials = [
        m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) == degree
    ]
    while True:
        data = {m: rng.randrange(p) for m in monomials}
        poly = NaivePoly(p, nvars, data)
        if poly.d:
            return poly


def _to_engine(rspec, poly):
    terms = []
    for mon, coeff in sorted(poly.d.items()):
        parts = [str(coeff)]
        for var, exp in zip(rspec.variables, mon):
            if exp == 1:
                parts.append(var)
            elif exp > 1:
                parts.append(f"{var}^{exp}")
        terms.append("*".join(parts))
    return rspec.parse(" + ".join(terms))


def test_criterion_7_length_oracle(capsys):
    start = time.perf_counter()
    rng = random.Random(77)
    for p, variables in ((3, ("x", "y")), (5, ("x", "y", "z"))):
        rspec = RingSpec(p, variables, ())
        naive_ring = CurveRing(p, len(variables))
        for trial in range(10):
            outer = [
                _random_naive_poly(rng, p, len(variables), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            k = rng.randint(0, 2)
            if k == 0:
                inner = list(outer)
            else:
                # multiply by all degree-k monomials: finite quotient, nested
                inner = [
                    g.mul(NaivePoly(p, len(variables), {m: 1}))
                    for g in outer
                    for m in itertools.product(range(k + 1), repeat=len(variables))
                    if sum(m) == k
                ]
            V = rspec.ideal([_to_engine(rspec, g) for g in outer])
            U = rspec.ideal([_to_engine(rspec, g) for g in inner])
            engine = colength_difference(U, V)

            maxdeg = max(sum(next(iter(g.d))) for g in inner)
            brute, tail = 0, 0
            for d in range(maxdeg + 4):
                gap = graded_ideal_dimension(naive_ring, outer, d) - graded_ideal_dimension(
                    naive_ring, inner, d
                )
                assert gap >= 0
                brute += gap
                tail = tail + 1 if gap == 0 else 0
            assert tail >= 3, "quotient did not stabilize; bad test construction"
            assert engine == brute, (p, trial, engine, brute)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 120
    verdict(capsys, 7, ok, "lengths match brute-force dimension counts on 20 pairs", elapsed)
    assert elapsed <= 120


# ---------------------------------------------------------------------------
# 8. the estimate is stable across characteristics


def test_criterion_8_prime_sweep(capsys):
    start = time.perf_counter()
    family = FamilySpec(
        variables=("x", "y", "z"),
        relations=("x^3 + y^3 - 2*z^3",),
        generators=("x - y", "y - z"),
    )
    report = prime_sweep(family, (5, 7, 11, 13), 2)
    elapsed = time.perf_counter() - start
    validated = [row for row in report.rows if row.validated and row.estimate is not None]
    ok = (
        len(validated) == 4
        and all(abs(row.estimate - Rat(4, 3)) <= Rat(1, 10) for row in validated)
        and report.spread is not None
        and report.spread <= Rat(1, 20)
        and elapsed <= 1200
    )
    estimates = [str(row.estimate) for row in validated]
    verdict(capsys, 8, ok, f"sweep p = 5..13: estimates {estimates}, spread {report.spread}", elapsed)
    assert len(validated) == 4
    for row in validated:
        assert abs(row.estimate - Rat(4, 3)) <= Rat(1, 10), row
    assert report.spread <= Rat(1, 20)
    assert elapsed <= 1200
