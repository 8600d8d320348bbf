"""Independent reference implementations used as oracles in tests.

Nothing here imports from the ghk package: polynomials are plain
dicts mapping exponent tuples to ints mod p, and order comparisons are
tuple-based. Deliberately simple and slow.
"""

from __future__ import annotations

import itertools


class NaivePoly:
    """Dict-backed polynomial over F_p: {exponent tuple: coeff in [1, p)}."""

    def __init__(self, p, nvars, data=None):
        self.p = p
        self.nvars = nvars
        self.d = {}
        if data:
            for mon, c in data.items():
                c %= p
                if c:
                    self.d[tuple(mon)] = c

    @classmethod
    def variable(cls, p, nvars, i):
        mon = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(p, nvars, {mon: 1})

    @classmethod
    def const(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    def add(self, other):
        out = dict(self.d)
        for mon, c in other.d.items():
            out[mon] = out.get(mon, 0) + c
        return NaivePoly(self.p, self.nvars, out)

    def neg(self):
        return NaivePoly(self.p, self.nvars, {m: -c for m, c in self.d.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        out = {}
        for m1, c1 in self.d.items():
            for m2, c2 in other.d.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return NaivePoly(self.p, self.nvars, out)

    def pow(self, k):
        result = NaivePoly.const(self.p, self.nvars, 1)
        for _ in range(k):
            result = result.mul(self)
        return result

    def scale(self, c):
        return NaivePoly(self.p, self.nvars, {m: cc * c for m, cc in self.d.items()})

    def derivative(self, i):
        out = {}
        for m, c in self.d.items():
            if m[i]:
                out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
        return NaivePoly(self.p, self.nvars, out)

    def is_zero(self):
        return not self.d

    def __eq__(self, other):
        return (self.p, self.nvars, self.d) == (other.p, other.nvars, other.d)

    def __repr__(self):
        return f"NaivePoly(p={self.p}, {self.d})"


def ref_order_tuple(kind, seq, mon):
    """Reference comparison key (a plain tuple) for the named order."""
    deg = sum(mon)
    if kind == "grevlex":
        return (deg,) + tuple(-mon[seq[j]] for j in range(len(seq) - 1, -1, -1))
    if kind == "lex":
        return tuple(mon[i] for i in seq)
    if kind == "deglex":
        return (deg,) + tuple(mon[i] for i in seq)
    raise ValueError(kind)


def all_monomials_up_to(nvars, maxdeg):
    """Every exponent tuple with total degree <= maxdeg."""
    out = []
    for exps in itertools.product(range(maxdeg + 1), repeat=nvars):
        if sum(exps) <= maxdeg:
            out.append(exps)
    return out


def monomials_of_degree(nvars, deg):
    return [m for m in itertools.product(range(deg + 1), repeat=nvars) if sum(m) == deg]
