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
)
from .groebner import GbBudget, ModVector, Submodule, as_ideal, as_vector, check_same_ring
from . import idealops
from .idealops import RingSpec, bracket_power


class Presentation:
    """A graded presentation matrix for a module over R = rspec.

    Columns are vectors in the free module with generator degrees
    row_twists; column i is homogeneous of degree col_twists[i], so the
    (j, i) entry is zero or homogeneous of degree
    col_twists[i] - row_twists[j]. The presented module is the cokernel;
    the class itself never materializes it. Each column passes
    groebner.as_vector (one entry per row, over rspec's ring), then a
    check that it is homogeneous of its declared degree.
    """

    def __init__(self, rspec, row_twists, col_twists, columns, descriptor=None):
        if not isinstance(rspec, RingSpec):
            raise GhkError(f"expected a RingSpec, got {rspec!r}")
        self.rspec = rspec
        self.row_twists = tuple(as_int(t, "a twist") for t in row_twists)
        self.col_twists = tuple(as_int(t, "a twist") for t in col_twists)
        if not self.row_twists:
            raise GhkError("presentation needs at least one row")
        rank = len(self.row_twists)
        cols = [as_vector(v, rspec.ring, rank, "a presentation column") for v in columns]
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
    as_ideal(I, "a quotient presentation")
    if rspec is None:
        rspec = RingSpec(I.ring.p, list(I.ring.variables), I.relations)
    else:
        check_same_ring(I, rspec, "the ideal and rspec")
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
    check_same_ring(P.rspec, Q.rspec, "direct summands")
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
    measures it: built by NoetherNormalization.pullback over A, with no
    relation columns, when the ring has a Noether normalization A
    (RingSpec.noether_normalization), else over S by frobenius_pullback."""
    nn = P.rspec.noether_normalization()
    if nn is None:
        return frobenius_pullback(P, e).image_submodule()
    q = P.rspec.p ** as_int(e, "a Frobenius exponent", 0)
    return nn.pullback(P.columns, P.row_twists, q)


def ghk_value(P: Presentation, e: int, budget: GbBudget | None = None) -> int:
    """Torsion length of the e-th Frobenius pullback of coker(P).

    Pull the presentation back, take the image U of its columns
    (pullback_image: over a Noether normalization if the ring has one,
    else over S with relation columns), and measure the part of the
    ambient free module supported at the irrelevant ideal: the length
    of sat(U)/U = H^0_m(F/U), finite because F/U is finitely generated.

    The length is read from the certified Hilbert series difference of
    certify_saturation: one basis of U when a single variable
    certifies, else one basis of U per variable plus, for each variable
    met, a basis of a sum that the modular law turns into the series of
    the meet. Over A, or in any ring of two variables, no elimination
    runs.
    """
    P.rspec.require_dim2()
    return idealops.certify_saturation(pullback_image(P, e), budget).length


def hk_value(I: Submodule, e: int, budget: GbBudget | None = None) -> int:
    """Classical length l(R/I^[q]) for an irrelevant-primary ideal I.

    Deliberately a separate code path from ghk_value: nothing is
    saturated here, and it stays over S even where the ring has a
    Noether normalization. The length comes straight from the Hilbert
    series of the bracket ideal, whose generators bracket_power hands
    over in normal form modulo the relations, and that series also
    checks the hypothesis: I^[q] <= I and g in I gives g^q in I^[q], so
    I^[q] and I have one radical, and I is irrelevant-primary iff
    R/I^[q] has finite length (pole order 0). No basis of I itself is
    built. Acceptance pins the two paths to agree on primary inputs.

    On a curve whose one relation f has a pure-power lead (f(1, 0, 0)
    != 0 with z compared last) the engine keeps that basis's rows in
    R-normal form (groebner._RelationRows), and once the basis holds a
    power z^Q the rows drop the terms it divides. That is only a storage
    format for elements of S reduced mod f and z^Q, both in the basis:
    it is still a Groebner basis over S of I^[q] + (f), its series is
    still read over S, and no pullback, Noether centre or saturation
    enters, so the two paths stay independent.
    """
    as_ideal(I, "hk_value")
    q = I.ring.p ** as_int(e, "a Frobenius exponent", 0)
    dim, length = idealops.hilbert_series(bracket_power(I, q), budget).leading()
    if dim > 0:
        raise GhkHypothesisError(
            "hk_value needs an irrelevant-primary ideal; the input does not saturate "
            "to the unit ideal"
        )
    return length


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


def _length_table(value, subject, label: str, e_max: int, budget) -> GHKTable:
    """The table labelled `label` of value(subject, e) for e = 1..e_max,
    value being ghk_value or hk_value; ghk_table and the CLI's hk
    command both build theirs here.

    The rows run one after another in this process: a row costs about p^2
    times the one before it, so the last row is most of the table and a
    pool over the rows would save almost nothing. A per-row budget
    overrun records the row as skipped instead of aborting the table.
    """
    as_int(e_max, "e_max", 1)
    p = subject.ring.p if isinstance(subject, Submodule) else subject.rspec.p
    rows, skipped = [], []
    for e in range(1, e_max + 1):
        try:
            rows.append(GHKRow(e, p**e, value(subject, e, budget=budget)))
        except BudgetExceededError as ex:
            skipped.append(SkippedRow(e, str(ex)))
    return GHKTable(p, label, tuple(rows), tuple(skipped))


def ghk_table(P: Presentation, e_max: int, budget: GbBudget | None = None) -> GHKTable:
    """Length values for e = 1..e_max, a budget overrun skipping its
    row (see _length_table)."""
    return _length_table(ghk_value, P, P.descriptor, e_max, budget)
