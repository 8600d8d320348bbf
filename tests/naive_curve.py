"""Linear-algebra oracle for quotient rings of k[x,y,z] by one relation
whose lead is a pure power of the last chosen variable. Computes graded
dimensions of ideals, finite colengths, and (for point ideals on smooth
plane cubics) the section-counting value of the torsion length via
genus-1 Riemann-Roch. Imports nothing from the package under test."""

import itertools
import math

from naive_modules import row_reduce
from naive_poly import NaivePoly


class CurveRing:
    """F_p[vars] or F_p[vars]/(relation) with a power-substitution rule.

    reducer = (var_index, exponent, replacement) encodes the rewrite
    x_i^exponent -> replacement, which must terminate (replacement free
    of x_i powers >= exponent). Monomials with x_i-exponent < exponent
    form a vector-space basis of the quotient.
    """

    def __init__(self, p, nvars, reducer=None):
        self.p = p
        self.nvars = nvars
        self.reducer = reducer

    def basis_monomials(self, d):
        out = []
        for mon in itertools.product(*(range(d + 1) for _ in range(self.nvars))):
            if sum(mon) != d:
                continue
            if self.reducer and mon[self.reducer[0]] >= self.reducer[1]:
                continue
            out.append(mon)
        return out

    def reduce(self, f: NaivePoly) -> NaivePoly:
        if self.reducer is None:
            return f
        i, e, repl = self.reducer
        coeffs = dict(f.d)
        while True:
            bad = [m for m in coeffs if m[i] >= e]
            if not bad:
                break
            for m in bad:
                # an earlier rewrite in this pass may have cancelled m
                c = coeffs.pop(m, 0)
                rest = list(m)
                rest[i] -= e
                for rm, rc in repl.d.items():
                    key = tuple(a + b for a, b in zip(rest, rm))
                    v = (coeffs.get(key, 0) + c * rc) % self.p
                    if v:
                        coeffs[key] = v
                    else:
                        coeffs.pop(key, None)
        return NaivePoly(self.p, self.nvars, coeffs)

    def monomial(self, mon) -> NaivePoly:
        return self.reduce(NaivePoly(self.p, self.nvars, {tuple(mon): 1}))

    def dim(self, d):
        if self.reducer is None:
            return math.comb(d + self.nvars - 1, self.nvars - 1)
        return len(self.basis_monomials(d))


def graded_ideal_dimension(ring: CurveRing, gens, d):
    """dim of the degree-d piece of the ideal generated by homogeneous
    gens (NaivePoly) inside the quotient ring."""
    basis = ring.basis_monomials(d)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for g in gens:
        degs = {sum(m) for m in g.d}
        assert len(degs) == 1, "oracle needs homogeneous generators"
        dg = degs.pop()
        if dg > d:
            continue
        for mult in ring.basis_monomials(d - dg):
            prod = ring.reduce(g.mul(NaivePoly(ring.p, ring.nvars, {mult: 1})))
            row = [0] * len(basis)
            for m, c in prod.d.items():
                row[index[m]] = c
            rows.append(row)
    if not rows:
        return 0
    return row_reduce(rows, ring.p)


def finite_colength(ring: CurveRing, gens, dmax=40):
    """l(R/(gens)) for an irrelevant-primary ideal, by degreewise counts.

    Asserts the quotient actually dies before dmax (three consecutive
    zero pieces), so a wrong primality assumption fails loudly.
    """
    total = 0
    tail = 0
    for d in range(dmax + 1):
        piece = ring.dim(d) - graded_ideal_dimension(ring, gens, d)
        assert piece >= 0
        total += piece
        tail = tail + 1 if piece == 0 else 0
        if tail >= 3 and d >= 3:
            return total
    raise AssertionError("quotient did not terminate by dmax; not irrelevant-primary?")


def cubic_point_torsion_length(ring: CurveRing, gens, q, dmax=90):
    """Length of the degreewise gap between the ideal generated by gens
    and the full space of curve sections vanishing to order >= q at a
    single smooth point, on a smooth plane cubic.

    Genus-1 section count: sections of degree d vanishing to order q at
    a point form a space of dimension max(3d - q, 0); the borderline
    value 3d = q never occurs for q a power of p != 3. Sums
    dim(sections) - dim(ideal piece) until three consecutive zero gaps
    witness stabilization.
    """
    assert ring.nvars == 3 and ring.reducer is not None
    assert q % 3 != 0
    total = 0
    tail = 0
    for d in range(dmax + 1):
        sections = max(3 * d - q, 0) if d >= 1 else 0
        gap = sections - graded_ideal_dimension(ring, gens, d)
        assert gap >= 0, f"ideal piece exceeds section space in degree {d}"
        total += gap
        tail = tail + 1 if gap == 0 else 0
        if tail >= 3 and 3 * d > q:
            return total
    raise AssertionError("torsion gap did not stabilize by dmax")


def regular_torsion_length(ring: CurveRing, gens, var, dmax):
    """l(sat(I)/I) for the ideal I = (gens), by degreewise counts.

    Needs x_var to be a nonzerodivisor on R/sat(I) (no associated point
    of R/I lies on x_var = 0), so that sat(I) = I : x_var^inf, and
    needs sat(I)/I to vanish above dmax. Then an element of sat(I) of
    degree d <= dmax times x_var^(dmax + 1 - d) lies in sat(I) in degree
    dmax + 1, which is I there, so sat(I)_d = (I : x_var^(dmax + 1 - d))_d,
    and the dimension of that colon is dim R_d minus the rank of
    multiplication by the power into (R/I)_(dmax+1). Asserts that the
    last three gaps vanish, so a dmax below the torsion fails loudly.
    """
    top = dmax + 1
    ideal_top = graded_ideal_dimension(ring, gens, top)
    gaps = []
    for d in range(dmax + 1):
        power = ring.monomial(tuple((top - d) * (i == var) for i in range(ring.nvars)))
        image = graded_ideal_dimension(ring, list(gens) + [power], top) - ideal_top
        gap = ring.dim(d) - image - graded_ideal_dimension(ring, gens, d)
        assert gap >= 0
        gaps.append(gap)
    assert gaps[-3:] == [0, 0, 0], "torsion did not vanish by dmax"
    return sum(gaps)
