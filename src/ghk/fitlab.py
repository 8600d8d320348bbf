"""Extraction of the leading multiplicity and the bounded correction
term from computed length tables, plus the characteristic sweep.

The quadratic model: length(q) = e*q^2 + gamma(q) with gamma bounded.
The estimator is the two-point difference quotient over the largest
exponents, which cancels any constant part of gamma exactly and
carries an explicit error bound once a bound on |gamma| is fixed.
Least-squares fits are never the reported value.
"""

from __future__ import annotations

from .arith import Rat, Record, as_int, as_rat, is_prime, rat_str
from .errors import GhkError, GhkHypothesisError
from .frobmod import GHKTable, ghk_table, presentation_of_quotient
from .groebner import GbBudget
from .idealops import RingSpec


# ---------------------------------------------------------------------------
# estimator


def estimate_multiplicity(T: GHKTable, gamma_bound=None) -> tuple:
    """(estimate, error_bound) from the two largest-exponent rows.

    estimate = (L2 - L1)/(q2^2 - q1^2); with |gamma| <= G the true
    multiplicity differs from the estimate by at most 2G/(q2^2 - q1^2).
    When no G is supplied it is taken as the largest |gamma| observed
    under the estimate itself (a single fit-then-measure pass), which
    is a self-consistency bound rather than a proof.
    """
    if len(T.rows) < 2:
        raise GhkError("estimating the multiplicity needs at least two table rows")
    r1, r2 = T.rows[-2], T.rows[-1]
    denom = r2.q**2 - r1.q**2
    estimate = Rat(r2.length - r1.length, denom)
    if gamma_bound is None:
        gamma_bound = max(abs(row.length - estimate * row.q**2) for row in T.rows)
    else:
        gamma_bound = as_rat(gamma_bound)
        if gamma_bound < 0:
            raise GhkError("a bound on |gamma| cannot be negative")
    return estimate, 2 * gamma_bound / denom


# ---------------------------------------------------------------------------
# gamma extraction


class GammaRow(Record):
    """One table row with its correction term: length = estimate*q^2 + gamma."""

    e: int
    q: int
    length: int
    gamma: Rat


class FitReport(Record):
    """Multiplicity, per-row correction values, and a periodicity verdict.

    gamma holds one GammaRow per table row; length = estimate*q^2 +
    gamma(q) holds exactly by construction. error_bound is None when the
    estimate was supplied as exact rather than fitted.
    """

    estimate: Rat
    error_bound: Rat | None
    gamma: tuple
    max_abs_gamma: Rat | None
    periodicity: str
    period: int | None

    def to_csv(self) -> str:
        lines = ["e,q,length,e_q2,gamma"]
        for r in self.gamma:
            e_q2 = rat_str(self.estimate * r.q * r.q)
            lines.append(f"{r.e},{r.q},{r.length},{e_q2},{rat_str(r.gamma)}")
        return "\n".join(lines) + "\n"


def _periodicity_verdict(gamma_by_e: dict) -> tuple:
    """(verdict, period). Periods are searched among divisors of the
    exponent span; the verdict never claims more than the computed
    window shows."""
    exps = sorted(gamma_by_e)
    if len(exps) < 6:
        return "insufficient-data", None
    span = exps[-1] - exps[0]
    for period in sorted(d for d in range(1, span + 1) if span % d == 0):
        pairs = [(e, e + period) for e in exps if e + period in gamma_by_e]
        if not pairs:
            continue
        if all(gamma_by_e[a] == gamma_by_e[b] for a, b in pairs):
            return f"periodic (period {period})", period
    return "aperiodic-so-far", None


def gamma_analysis(T: GHKTable, e_exact, error_bound=None) -> FitReport:
    """Exact gamma(q) = length - e_exact*q^2 per row, with the largest
    absolute value and an observed-window periodicity verdict."""
    e_exact = as_rat(e_exact)
    gamma = tuple(
        GammaRow(row.e, row.q, row.length, row.length - e_exact * row.q**2) for row in T.rows
    )
    max_abs = max((abs(r.gamma) for r in gamma), default=None)
    verdict, period = _periodicity_verdict({r.e: r.gamma for r in gamma})
    return FitReport(
        estimate=e_exact,
        error_bound=None if error_bound is None else as_rat(error_bound),
        gamma=gamma,
        max_abs_gamma=max_abs,
        periodicity=verdict,
        period=period,
    )


def fit_report(T: GHKTable, e_exact=None, gamma_bound=None) -> FitReport:
    """gamma_analysis under an exact multiplicity when supplied, else
    under the two-point estimate (whose bound is carried along)."""
    if e_exact is not None:
        return gamma_analysis(T, e_exact)
    estimate, bound = estimate_multiplicity(T, gamma_bound)
    return gamma_analysis(T, estimate, error_bound=bound)


# ---------------------------------------------------------------------------
# prime sweep


class FamilySpec(Record):
    """A ring and ideal defined over the integers, specialized prime by
    prime. Relation and generator strings must use integer coefficients
    so reduction mod p is literal. Primes dividing a declared bad
    denominator are flagged instead of specialized."""

    variables: tuple
    relations: tuple
    generators: tuple
    denominators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "generators", tuple(self.generators))
        denominators = tuple(as_int(d, "a bad denominator") for d in self.denominators)
        object.__setattr__(self, "denominators", denominators)

    def ring_at(self, p: int) -> RingSpec:
        return RingSpec(p, list(self.variables), list(self.relations))


class SweepRow(Record):
    p: int
    validated: bool
    reason: str
    estimate: Rat | None = None
    error_bound: Rat | None = None
    table: GHKTable | None = None


class SweepReport(Record):
    family: FamilySpec
    e_max: int
    rows: tuple
    spread: Rat | None
    top_half_primes: tuple

    def to_csv(self) -> str:
        lines = ["p,validated,estimate,reason"]
        for row in self.rows:
            est = "" if row.estimate is None else rat_str(row.estimate)
            lines.append(f"{row.p},{str(row.validated).lower()},{est},{row.reason}")
        return "\n".join(lines) + "\n"


def _sweep_row(task: tuple) -> SweepRow:
    """One prime specialization; top-level so tasks survive pickling. A
    task is (family, p, e_max, budget); FamilySpec and GbBudget pickle.
    A hypothesis that the prime violates flags its row with the error's
    own message: is_prime cannot decide a prime from psi_13 on, and no
    Frobenius power is packed past EXP_CAP. A ParseError or any other
    GhkError ends the sweep."""
    family, p, e_max, budget = task
    try:
        return _specialization(family, p, e_max, budget)
    except GhkHypothesisError as ex:
        return SweepRow(p, False, str(ex))


def _specialization(family: FamilySpec, p: int, e_max: int, budget) -> SweepRow:
    if not is_prime(p):
        return SweepRow(p, False, f"{p} is not prime")
    if any(d % p == 0 for d in family.denominators):
        return SweepRow(p, False, f"{p} divides a declared bad denominator")
    try:
        rspec = family.ring_at(p)
    except GhkError as ex:
        return SweepRow(p, False, f"specialization failed: {ex}")
    report = rspec.validate()
    if not report.ok:
        return SweepRow(p, False, "; ".join(report.warnings) or "ring validation failed")
    gens = [rspec.parse(g) for g in family.generators]
    if any(g.is_zero() for g in gens):
        return SweepRow(p, False, "a generator degenerates to zero mod p")
    P = presentation_of_quotient(rspec.ideal(gens), rspec)
    table = ghk_table(P, e_max, budget=budget)
    try:
        estimate, bound = estimate_multiplicity(table)
    except GhkError as ex:
        return SweepRow(p, True, f"no estimate: {ex}", table=table)
    return SweepRow(p, True, "", estimate, bound, table)


def prime_sweep(
    family: FamilySpec,
    primes,
    e_max: int,
    budget: GbBudget | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Specialize the family at each prime, compute the length table and
    the multiplicity estimate, and report the spread of estimates over
    the largest half of the primes as the limit diagnostic.

    Primes failing validation (non-prime, bad denominator, past EXP_CAP
    or psi_13, singular or wrong-dimensional specialization, degenerate
    generators) are flagged and skipped, mirroring the almost-all-primes hypothesis rather than
    aborting the sweep.

    With jobs > 1 the primes run in a pool of that many processes, or one
    per prime when there are fewer primes (a forked pool starts all its
    workers at once). This is the program's only parallelism: the primes
    of one sweep cost about the same, while the rows of one table do not.
    """
    primes = sorted({as_int(p, "a prime") for p in primes})
    if not primes:
        raise GhkError("prime sweep needs at least one prime")
    as_int(e_max, "e_max", 1)
    tasks = [(family, p, e_max, budget) for p in primes]
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = tuple(pool.map(_sweep_row, tasks))
    else:
        rows = tuple(map(_sweep_row, tasks))
    with_estimates = [row for row in rows if row.estimate is not None]
    top: tuple = ()
    spread = None
    if with_estimates:
        k = (len(with_estimates) + 1) // 2
        top_rows = with_estimates[-k:]
        top = tuple(row.p for row in top_rows)
        if len(top_rows) >= 2:
            values = [row.estimate for row in top_rows]
            spread = max(values) - min(values)
        elif len(top_rows) == 1:
            spread = Rat(0)
    return SweepReport(family=family, e_max=e_max, rows=rows, spread=spread, top_half_primes=top)
