"""Brute-force graded-module membership oracle.

A module element is a dict {(component, exponent tuple): coeff mod p}.
Membership in a homogeneous span is decided degreewise: list every
monomial multiple of every generator in the target degree and row-reduce
over F_p. Exponential and proud of it; only for small test cases.
"""

from __future__ import annotations

from naive_poly import monomials_of_degree


def module_degree(vec, twists):
    degs = {sum(mon) + twists[comp] for (comp, mon) in vec}
    if len(degs) != 1:
        raise ValueError(f"not homogeneous: degrees {degs}")
    return degs.pop()


def shift_vec(vec, mon, p):
    return {
        (comp, tuple(a + b for a, b in zip(m, mon))): c
        for (comp, m), c in vec.items()
    }


def row_reduce(rows, p):
    """In-place row echelon mod p; returns the rank."""
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else rows[rank][col]
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def naive_member(vec, gens, twists, nvars, p):
    """Is vec in the span of {monomial * g : g in gens} at vec's degree?"""
    vec = {cm: c % p for cm, c in vec.items() if c % p}
    if not vec:
        return True
    D = module_degree(vec, twists)
    span = []
    for g in gens:
        g = {cm: c % p for cm, c in g.items() if c % p}
        if not g:
            continue
        dg = module_degree(g, twists)
        if D - dg < 0:
            continue
        for mon in monomials_of_degree(nvars, D - dg):
            span.append(shift_vec(g, mon, p))
    coords = sorted({cm for v in span for cm in v} | set(vec))
    index = {cm: i for i, cm in enumerate(coords)}

    def as_row(v):
        row = [0] * len(coords)
        for cm, c in v.items():
            row[index[cm]] = c % p
        return row

    rows = [as_row(v) for v in span]
    if not rows:
        return False
    r0 = row_reduce(rows, p)
    rows.append(as_row(vec))
    r1 = row_reduce(rows, p)
    return r1 == r0


def naive_graded_dimension(gens, twists, nvars, p, degree):
    """dim_Fp of the degree-`degree` piece of the span of gens."""
    span = []
    for g in gens:
        g = {cm: c % p for cm, c in g.items() if c % p}
        if not g:
            continue
        dg = module_degree(g, twists)
        if degree - dg < 0:
            continue
        for mon in monomials_of_degree(nvars, degree - dg):
            span.append(shift_vec(g, mon, p))
    if not span:
        return 0
    coords = sorted({cm for v in span for cm in v})
    index = {cm: i for i, cm in enumerate(coords)}
    rows = []
    for v in span:
        row = [0] * len(coords)
        for cm, c in v.items():
            row[index[cm]] = c % p
        rows.append(row)
    return row_reduce(rows, p)


def free_module_dimension(twists, nvars, degree):
    """dim of degree-`degree` piece of sum_j S(-e_j) over S with nvars vars."""
    total = 0
    for e in twists:
        d = degree - e
        if d >= 0:
            total += len(monomials_of_degree(nvars, d))
    return total


def taylor_numerator(gens, nvars):
    """K(t) with HS(S/(gens)) = K(t) / (1-t)^nvars for a monomial ideal.

    gens are exponent tuples. The Taylor resolution gives
    K(t) = sum over subsets T of gens of (-1)^|T| t^deg lcm(T), the
    empty subset contributing 1; returned as {degree: coeff} without
    zero coefficients. Exponential in len(gens).
    """
    out = {}
    for mask in range(1 << len(gens)):
        lcm = [0] * nvars
        sign = 1
        for k, g in enumerate(gens):
            if mask >> k & 1:
                sign = -sign
                lcm = [max(a, b) for a, b in zip(lcm, g)]
        d = sum(lcm)
        out[d] = out.get(d, 0) + sign
    return {d: c for d, c in out.items() if c}


def times_one_minus_t(numer, m):
    """The Laurent polynomial numer ({degree: coeff}) times (1-t)^m."""
    for _ in range(m):
        out = dict(numer)
        for e, c in numer.items():
            out[e + 1] = out.get(e + 1, 0) - c
        numer = {e: c for e, c in out.items() if c}
    return numer


def series_leading(numer, n):
    """(pole order, value at t = 1 of the reduced numerator) of the series
    numer(t) / (1-t)^n, numer a {degree: coeff} Laurent polynomial.

    Divides numer by 1 - t one step at a time while the denominator has
    a factor left and numer vanishes at 1: the quotient's coefficient at
    k is the sum of numer's up to k, over the whole degree span. The zero
    series gives (0, 0).
    """
    d = {e: c for e, c in numer.items() if c}
    while n > 0 and d and sum(d.values()) == 0:
        out, carry = {}, 0
        for k in range(min(d), max(d)):
            carry += d.get(k, 0)
            if carry:
                out[k] = carry
        d, n = out, n - 1
    if not d:
        return 0, 0
    return n, sum(d.values())


def staircase_dimension(gens, nvars, degree):
    """Number of degree-`degree` monomials in nvars variables that no
    generator divides: the dimension of that piece of S/(gens).

    gens are exponent tuples, any generating set. x^a * m' is divisible
    by a generator g iff g_0 <= a and g' | m', so the count runs over
    the first exponent a with the generators that allow it, and stops
    once one of them is 1 in the other variables: it divides everything
    from there on. In two variables it sweeps x^b * y^(degree-b) with b
    rising, keeping the least y-exponent among generators with
    x-exponent <= b. Unlike taylor_numerator it scales to hundreds of
    generators, for the lead sets of large Frobenius powers.
    """
    if degree < 0:
        return 0
    if nvars == 1:
        return 0 if any(g[0] <= degree for g in gens) else 1
    if nvars == 2:
        by_x = sorted(gens)
        least_y = None
        k = count = 0
        for b in range(degree + 1):
            while k < len(by_x) and by_x[k][0] <= b:
                if least_y is None or by_x[k][1] < least_y:
                    least_y = by_x[k][1]
                k += 1
            if least_y is None or least_y > degree - b:
                count += 1
        return count
    count = 0
    for a in range(degree + 1):
        rest = [g[1:] for g in gens if g[0] <= a]
        if any(not any(r) for r in rest):
            break
        count += staircase_dimension(rest, nvars - 1, degree - a)
    return count
