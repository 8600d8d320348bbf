"""Graded presentations of modules, their Frobenius pullbacks, and the
generalized Hilbert-Kunz function.

The central quantity: for a graded module M presented by a matrix over
R, the length of the degreewise-finite torsion of the pulled-back
module, as a function of q = p^e. The image of the pulled-back
presentation is taken literally as the submodule generated by its
columns; no injectivity of any comparison map is assumed anywhere.
"""

from __future__ import annotations

from .arith import Poly, Record, as_int, frobenius_power
from .errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisError,
    HomogeneityError,
    RingMismatchError,
)
from .groebner import GbBudget, ModVector, Submodule
# colength_difference is called through this module's global, which
# bench/tracer.py wraps here too
from .idealops import (
    RingSpec,
    bracket_power,
    certify_saturation,
    colength_difference,
    hilbert_series,
    saturate_by_colon,
)


class Presentation:
    """A graded presentation matrix for a module over R = rspec.

    Columns are vectors in the free module with generator degrees
    row_twists; column i is homogeneous of degree col_twists[i], so the
    (j, i) entry is zero or homogeneous of degree
    col_twists[i] - row_twists[j]. The presented module is the cokernel;
    the class itself never materializes it.
    """

    def __init__(self, rspec, row_twists, col_twists, columns, descriptor=None):
        if not isinstance(rspec, RingSpec):
            raise GhkError(f"expected a RingSpec, got {rspec!r}")
        self.rspec = rspec
        self.row_twists = tuple(as_int(t, "a twist") for t in row_twists)
        self.col_twists = tuple(as_int(t, "a twist") for t in col_twists)
        if not self.row_twists:
            raise GhkError("presentation needs at least one row")
        cols = []
        for v in columns:
            if isinstance(v, (list, tuple)):
                v = ModVector(tuple(v))
            if not isinstance(v, ModVector):
                raise GhkError(f"presentation column must be a ModVector, got {v!r}")
            if v.rank != len(self.row_twists):
                raise GhkError(
                    f"column has {v.rank} entries, presentation has {len(self.row_twists)} rows"
                )
            if v.ring != rspec.ring:
                raise RingMismatchError("presentation column over a different ring")
            cols.append(v)
        if len(cols) != len(self.col_twists):
            raise GhkError(
                f"{len(cols)} columns but {len(self.col_twists)} column twists"
            )
        for v, d in zip(cols, self.col_twists):
            if v.is_zero():
                continue
            if not v.is_homogeneous(self.row_twists) or v.homogeneous_degree(self.row_twists) != d:
                raise HomogeneityError(
                    f"column {v} is not homogeneous of degree {d} "
                    f"for row twists {self.row_twists}"
                )
        self.columns = tuple(cols)
        self.descriptor = descriptor or (
            f"coker of {len(self.row_twists)}x{len(cols)} graded matrix"
        )

    @property
    def num_rows(self) -> int:
        return len(self.row_twists)

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    def entry(self, j: int, i: int) -> Poly:
        return self.columns[i][j]

    def image_submodule(self) -> Submodule:
        """Submodule of the free module generated by the matrix columns,
        with the ring relations adjoined in every component."""
        return Submodule(
            self.rspec.ring,
            self.num_rows,
            self.columns,
            twists=self.row_twists,
            relations=self.rspec.relations,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and other.rspec.ring == self.rspec.ring
            and other.rspec.relations == self.rspec.relations
            and other.row_twists == self.row_twists
            and other.col_twists == self.col_twists
            and other.columns == self.columns
        )

    def __repr__(self) -> str:
        return (
            f"<Presentation {self.num_rows}x{self.num_cols}, "
            f"rows {self.row_twists}, cols {self.col_twists}>"
        )


def presentation_of_quotient(I: Submodule, rspec: RingSpec | None = None) -> Presentation:
    """Presentation of R/I: one row of twist 0, columns the generators.

    I must be an ideal (rank 1) with homogeneous generators; rspec, when
    given, must carry the same ring and relations as I.
    """
    if I.rank != 1:
        raise GhkError("quotient presentations need an ideal (rank-1 submodule)")
    if rspec is None:
        rspec = RingSpec(I.ring.p, list(I.ring.variables), I.relations)
    else:
        if rspec.ring != I.ring:
            raise RingMismatchError("ideal lives over a different ring than rspec")
        if tuple(rspec.relations) != tuple(I.relations):
            raise RingMismatchError("ideal carries different relations than rspec")
    cols = list(I.gens)
    twists = [v.homogeneous_degree((0,)) for v in cols]
    names = ", ".join(str(v[0]) for v in cols) or "0"
    return Presentation(rspec, (0,), twists, cols, descriptor=f"R/({names})")


def frobenius_pullback(P: Presentation, e: int) -> Presentation:
    """Entrywise q-th power of the presentation, q = p^e; all twists
    scale by q, so homogeneity is preserved degree-by-degree."""
    q = P.rspec.p ** as_int(e, "a Frobenius exponent", 0)
    if q == 1:
        return P
    cols = [
        ModVector(tuple(frobenius_power(f, q) for f in v.components)) for v in P.columns
    ]
    return Presentation(
        P.rspec,
        tuple(q * t for t in P.row_twists),
        tuple(q * t for t in P.col_twists),
        cols,
        descriptor=P.descriptor,
    )


def direct_sum(P: Presentation, Q: Presentation) -> Presentation:
    """Block-diagonal presentation of the direct sum of the two modules."""
    if P.rspec.ring != Q.rspec.ring or P.rspec.relations != Q.rspec.relations:
        raise RingMismatchError("direct summands live over different rings")
    ring = P.rspec.ring
    zero = ring.zero
    cols = []
    for v in P.columns:
        cols.append(ModVector(tuple(v.components) + (zero,) * Q.num_rows))
    for v in Q.columns:
        cols.append(ModVector((zero,) * P.num_rows + tuple(v.components)))
    return Presentation(
        P.rspec,
        P.row_twists + Q.row_twists,
        P.col_twists + Q.col_twists,
        cols,
        descriptor=f"({P.descriptor}) (+) ({Q.descriptor})",
    )


# ---------------------------------------------------------------------------
# the length computations


def pullback_image(P: Presentation, e: int) -> Submodule:
    """The image U of the e-th Frobenius pullback of P, as ghk_value
    measures it.

    When the ring has a Noether normalization A = F_p[x, y]
    (RingSpec.noether_normalization), R^r is the free A-module A^(d*r),
    the component (j, k) standing for z^k in row j, and U is the
    A-submodule spanned by z^m * v^[q] for each column v and each m < d,
    with no relation columns. Row j's twist r_j becomes q*r_j + k on
    component (j, k). The q-th powers go through Frobenius: an entry
    sum_k c_k*z^k (c_k over A, read once at q = 1) has q-th power
    sum_k c_k^[q] * (z^(kq) mod f), and z^(kq) comes from the p-th-power
    recursion of NoetherNormalization.frobenius. Otherwise U is the
    image over S with the relation columns, from frobenius_pullback.
    """
    nn = P.rspec.noether_normalization()
    if nn is None:
        return frobenius_pullback(P, e).image_submodule()
    q = P.rspec.p ** as_int(e, "a Frobenius exponent", 0)
    d = nn.degree
    z_q = [nn.frobenius(z_k, q) for z_k in nn.basis]  # z^(kq) mod f, k < d
    zero = (nn.base.zero,) * d
    gens = []
    for v in P.columns:
        entries = [
            nn.combine([frobenius_power(c, q) for c in nn.element(f)], z_q) if f else zero
            for f in v.components
        ]
        for m in range(d):
            if m:
                entries = [nn.times_z(w) for w in entries]
            gens.append(ModVector([c for w in entries for c in w]))
    twists = tuple(q * t + k for t in P.row_twists for k in range(d))
    return Submodule(nn.base, d * P.num_rows, gens, twists=twists)


def ghk_value(P: Presentation, e: int, budget: GbBudget | None = None) -> int:
    """Torsion length of the e-th Frobenius pullback of coker(P).

    Pull the presentation back, take the image U of its columns
    (pullback_image: over a Noether normalization of a hypersurface,
    else over S with relation columns), and measure the part of the
    ambient free module supported at the irrelevant ideal: the length
    of sat(U)/U. Finite exactly when the module is torsion-free in
    codimension <= 1 territory, which the dimension-2 precondition
    guarantees for saturations.

    The length is read from the certified Hilbert series difference of
    certify_saturation (one basis of U); when no variable certifies, it
    is the colength of U in saturate_by_colon(U).
    """
    P.rspec.require_dim2()
    U = pullback_image(P, e)
    cert = certify_saturation(U, budget)
    if cert is not None:
        return cert.length
    return colength_difference(U, saturate_by_colon(U, budget=budget), budget)


def hk_value(I: Submodule, e: int, budget: GbBudget | None = None) -> int:
    """Classical length l(R/I^[q]) for an irrelevant-primary ideal I.

    Deliberately a separate code path from ghk_value: nothing is
    saturated here. I is irrelevant-primary iff R/I has finite length
    (pole order 0), and the length comes straight from the Hilbert
    series of the bracket ideal. Acceptance pins the two paths to agree
    on primary inputs.
    """
    if I.rank != 1:
        raise GhkError("hk_value needs an ideal (rank-1 submodule)")
    q = I.ring.p ** as_int(e, "a Frobenius exponent", 0)
    if hilbert_series(I, budget).pole_order() != 0:
        raise GhkHypothesisError(
            "hk_value needs an irrelevant-primary ideal; the input does not saturate "
            "to the unit ideal"
        )
    hs = hilbert_series(bracket_power(I, q), budget).reduced()
    if hs.denom_power > 0:
        raise GhkHypothesisError(
            f"R/I^[q] has dimension {hs.denom_power} > 0; its length is infinite"
        )
    return hs.numer_at_one()


# ---------------------------------------------------------------------------
# tables


class GHKRow(Record):
    e: int
    q: int
    length: int


class SkippedRow(Record):
    e: int
    reason: str


class GHKTable(Record):
    """Computed values of the length function, one row per exponent."""

    p: int
    module: str
    rows: tuple = ()
    skipped: tuple = ()

    def __post_init__(self):
        last_e = 0
        for row in self.rows:
            if row.e <= last_e:
                raise GhkError("table rows must be strictly increasing in e")
            if row.q != self.p ** row.e:
                raise GhkError(f"row e={row.e} has q={row.q}, expected {self.p ** row.e}")
            if row.length < 0:
                raise GhkError("lengths are non-negative")
            last_e = row.e

    def lengths_by_exponent(self) -> dict:
        return {row.e: row.length for row in self.rows}

    def to_csv(self) -> str:
        lines = ["e,q,length"]
        lines.extend(f"{r.e},{r.q},{r.length}" for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "module": self.module,
            "rows": [{"e": r.e, "q": r.q, "length": r.length} for r in self.rows],
            "skipped": [{"e": s.e, "reason": s.reason} for s in self.skipped],
        }


def _map_rows(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in a pool of jobs processes when jobs > 1
    and there are several tasks; fn and the tasks must then pickle."""
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _run_row(task: tuple):
    """Worker for one table row; must stay importable at module top level
    so tasks can cross process boundaries. A task is (value, subject, e,
    q, budget), value being ghk_value or hk_value; a budget overrun
    gives a SkippedRow."""
    value, subject, e, q, budget = task
    try:
        return GHKRow(e, q, value(subject, e, budget=budget))
    except BudgetExceededError as ex:
        return SkippedRow(e, str(ex))


def _length_table(value, subject, label: str, e_max: int, budget, jobs: int) -> GHKTable:
    """The table labelled `label` of value(subject, e) for e = 1..e_max,
    value being ghk_value or hk_value; ghk_table and the CLI's hk
    command both build theirs here.

    Rows are independent; a per-row budget overrun records the row as
    skipped instead of aborting the table.
    """
    as_int(e_max, "e_max", 1)
    p = subject.ring.p if isinstance(subject, Submodule) else subject.rspec.p
    tasks = [(value, subject, e, p**e, budget) for e in range(1, e_max + 1)]
    results = _map_rows(_run_row, tasks, jobs)
    rows = tuple(r for r in results if isinstance(r, GHKRow))
    skipped = tuple(r for r in results if isinstance(r, SkippedRow))
    return GHKTable(p, label, rows, skipped)


def ghk_table(
    P: Presentation,
    e_max: int,
    budget: GbBudget | None = None,
    jobs: int = 1,
) -> GHKTable:
    """Length values for e = 1..e_max, a budget overrun skipping its
    row (see _length_table)."""
    return _length_table(ghk_value, P, P.descriptor, e_max, budget, jobs)
