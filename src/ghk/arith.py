"""Exact arithmetic over prime fields: monomials, grevlex keys, sparse polynomials.

Everything downstream (Groebner engines, Hilbert series, Frobenius
pullbacks) reduces to the operations defined here. Coefficients are
plain Python ints in [0, p), and the field is the int p that the ring
holds: the Groebner inner loops do millions of coefficient operations,
and a wrapper type would cost an order of magnitude. A monomial is a
plain exponent tuple; a polynomial is an immutable sequence of terms
sorted descending in grevlex.

Grevlex is the one term order. Its comparisons are packed into single
integers: grevlex_key(nvars, last) gives each monomial a key such that
key(a) > key(b) iff a > b in grevlex with variable `last` compared last,
and key(a*b) = key(a) + key(b) - C for C = grevlex_shift(nvars), the
same for every `last`. Polynomials use the default last variable; the
Groebner engine chooses another per basis. The reduction loops there
exploit the shift rule to move whole polynomials with one integer
addition per term instead of re-deriving tuple comparisons.

Divisibility has its own packed form, PackedMonomials: exponent i sits
in field i of EXP_BITS bits, and the top bit of every field is a guard
that stays clear. Multiplication is then an int add, exact division an
int sub, and b | a iff ((a | G) - b) & G == G for the guard mask G:
with every guard of a set, each field borrows only from its own guard,
which survives iff a_i >= b_i. The surviving guards also select the
fields of lcm and gcd. A strict divisor is a smaller int, so one pass
over an ascending list keeps a monomial ideal's minimal generators
(minimal). The test is exact only while every exponent stays below
EXP_GUARD = 2^(EXP_BITS-1); a larger one would borrow into its
neighbour and corrupt divisibility silently. So packing refuses
exponents above EXP_CAP, and the Groebner engine bounds the degree of
everything it reduces (see groebner.py).
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import Callable, Iterable, Iterator

from .errors import GhkError, GhkHypothesisError, HomogeneityError, ParseError

__all__ = [
    "Rat",
    "rat_str",
    "grevlex_key",
    "grevlex_shift",
    "PolyRing",
    "Poly",
    "parse_poly",
    "frobenius_power",
    "is_prime",
    "mon_mul",
    "mon_div",
    "mon_pow",
    "PackedMonomials",
]

# Packed-key layout. Exponents are capped well below the field width so
# that total degrees (<= MAX_VARS * EXP_CAP) can never overflow a field.
EXP_BITS = 24
EXP_CAP = 1 << 20
# packed monomials keep every exponent below the guard bit of its field
EXP_GUARD = 1 << (EXP_BITS - 1)
MAX_VARS = 12
_FMAX = (1 << EXP_BITS) - 1


def rat_str(x: Rat) -> str:
    """A rational as "num" or "num/den", the form every report uses."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# prime fields


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomials: exponent tuples and their packed form


def mon_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mon_div(a: tuple, b: tuple) -> tuple | None:
    """a / b as a monomial, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def mon_pow(a: tuple, k: int) -> tuple:
    out = tuple(x * k for x in a)
    for x in out:
        if x > EXP_CAP:
            raise GhkError(f"monomial exponent {x} exceeds the supported cap {EXP_CAP}")
    return out


class PackedMonomials:
    """Guard-bit packing of exponent tuples with nvars entries.

    pack/unpack convert at the boundary; in between, a*b is a + b, a/b
    is a - b and divides/lcm/gcd/degree are a few int operations. guard
    is the mask G of the module docstring; hot loops inline its test.
    Every method assumes its arguments' exponents stay below EXP_GUARD.
    """

    __slots__ = ("guard", "_shifts", "_ones", "_top")

    def __init__(self, nvars: int):
        self._shifts = tuple(EXP_BITS * i for i in range(nvars))
        self.guard = sum(EXP_GUARD << s for s in self._shifts)
        self._ones = sum(1 << s for s in self._shifts)
        self._top = EXP_BITS * (nvars - 1)

    def pack(self, m: tuple) -> int:
        """Packed form of an exponent tuple; exponents above EXP_CAP raise."""
        pk = 0
        for e, s in zip(m, self._shifts):
            if e > EXP_CAP:
                raise GhkError(f"monomial exponent {e} exceeds the supported cap {EXP_CAP}")
            pk |= e << s
        return pk

    def unpack(self, pk: int) -> tuple:
        return tuple([(pk >> s) & _FMAX for s in self._shifts])

    def divides(self, b: int, a: int) -> bool:
        """True when b | a."""
        g = self.guard
        return ((a | g) - b) & g == g

    def lcm(self, a: int, b: int) -> int:
        g = self.guard
        ge = ((a | g) - b) & g  # the guard of field i survives iff a_i >= b_i
        mask = ge - (ge >> (EXP_BITS - 1))  # the low bits of those fields
        return (a & mask) | (b & ~mask)

    def gcd(self, a: int, b: int) -> int:
        """The mirror of lcm: the smaller field of each pair. gcd(a, b) == 0
        iff a and b share no variable."""
        g = self.guard
        ge = ((a | g) - b) & g
        mask = ge - (ge >> (EXP_BITS - 1))
        return (b & mask) | (a & ~mask)

    def minimal(self, ascending: Iterable[int]) -> list:
        """The elements that no earlier kept element divides, in order.

        Given ascending packed values this is the minimal generating set
        of the monomial ideal they span, ascending: a strict divisor is a
        smaller int (no field of it is larger), so only earlier elements
        can divide a later one, and a repeat is dropped as a multiple.
        """
        g = self.guard
        keep: list = []
        for m in ascending:
            mg = m | g
            for k in keep:
                if (mg - k) & g == g:
                    break
            else:
                keep.append(m)
        return keep

    def degree(self, pk: int) -> int:
        """Total degree, exact while it stays below 2^EXP_BITS.

        Multiplying by a 1 in every field sums the fields into the top
        one; partial sums below the total cannot carry.
        """
        return (pk * self._ones >> self._top) & _FMAX


# ---------------------------------------------------------------------------
# the term order: grevlex keys


def grevlex_key(nvars: int, last: int | None = None) -> Callable[[tuple], int]:
    """Packed grevlex key on exponent tuples with nvars entries.

    Degree first, ties broken by the smallest exponent of variable
    `last` (default: the last variable), then of the others from the
    highest index down. Every Poly is sorted by the default key; the
    Groebner engine picks `last` for a basis (see groebner.py).
    """
    if last is None:
        last = nvars - 1
    if not (isinstance(last, int) and 0 <= last < nvars):
        raise GhkError(f"last variable {last!r} is not in range({nvars})")
    # fields, most significant first: total degree, then complemented
    # exponents of `last` and of the others from the highest index down
    rev = (last,) + tuple(i for i in reversed(range(nvars)) if i != last)

    def key(m, _rev=rev, _B=EXP_BITS, _F=_FMAX):
        k = sum(m)
        for i in _rev:
            k = (k << _B) | (_F - m[i])
        return k

    return key


def grevlex_shift(nvars: int) -> int:
    """C with key(a*b) = key(a) + key(b) - C for every grevlex_key(nvars, last)."""
    return (1 << (EXP_BITS * nvars)) - 1


# ---------------------------------------------------------------------------
# polynomial rings and polynomials


class PolyRing:
    """F_p[variables]; its polynomials are sorted by grevlex_key(nvars).

    Rings compare by value (characteristic, variable names), so
    independently constructed copies of the same ring interoperate.
    """

    __slots__ = ("p", "variables", "nvars", "key", "shiftc", "_vindex")

    def __init__(self, p: int, variables: Iterable[str]):
        if not isinstance(p, int) or isinstance(p, bool):
            raise GhkHypothesisError(f"characteristic must be an int, got {p!r}")
        if not is_prime(p):
            raise GhkHypothesisError(f"characteristic must be prime, got {p}")
        names = tuple(variables)
        if not names:
            raise GhkError("a polynomial ring needs at least one variable")
        if len(names) > MAX_VARS:
            raise GhkError(f"at most {MAX_VARS} variables are supported, got {len(names)}")
        for v in names:
            if not (isinstance(v, str) and v.isidentifier()):
                raise GhkError(f"variable name {v!r} is not an identifier")
        if len(set(names)) != len(names):
            raise GhkError(f"duplicate variable names in {names}")
        self.p = p
        self.variables = names
        self.nvars = len(names)
        self.key = grevlex_key(self.nvars)
        self.shiftc = grevlex_shift(self.nvars)
        self._vindex = {v: i for i, v in enumerate(names)}

    # -- builders ----------------------------------------------------

    @property
    def zero(self) -> "Poly":
        return Poly(self, ())

    @property
    def one(self) -> "Poly":
        return self.monomial((0,) * self.nvars)

    def variable(self, i: int | str) -> "Poly":
        if isinstance(i, str):
            i = self._vindex[i]
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(mon)

    def gens(self) -> tuple:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, mon: tuple, coeff: int = 1) -> "Poly":
        mon = tuple(int(e) for e in mon)
        if len(mon) != self.nvars:
            raise GhkError(f"monomial {mon} has {len(mon)} exponents, ring has {self.nvars} variables")
        for e in mon:
            if e < 0 or e > EXP_CAP:
                raise GhkError(f"exponent {e} out of range [0, {EXP_CAP}]")
        c = coeff % self.p
        if c == 0:
            return Poly(self, ())
        return Poly(self, ((self.key(mon), mon, c),))

    def from_pairs(self, pairs: Iterable[tuple]) -> "Poly":
        """Build from (monomial, coeff) pairs; repeats combine, zeros drop."""
        acc: dict = {}
        for mon, c in pairs:
            mon = tuple(int(e) for e in mon)
            if len(mon) != self.nvars:
                raise GhkError(f"monomial {mon} does not fit a {self.nvars}-variable ring")
            for e in mon:
                if e < 0 or e > EXP_CAP:
                    raise GhkError(f"exponent {e} out of range [0, {EXP_CAP}]")
            acc[mon] = acc.get(mon, 0) + int(c)
        terms = []
        for mon, c in acc.items():
            c %= self.p
            if c:
                terms.append((self.key(mon), mon, c))
        terms.sort(reverse=True)
        return Poly(self, tuple(terms))

    def parse(self, text: str) -> "Poly":
        return parse_poly(text, self)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.p == self.p
            and other.variables == self.variables
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables))

    def __reduce__(self):
        # the key closure does not pickle; rebuild it
        return (PolyRing, (self.p, self.variables))

    def __repr__(self) -> str:
        return f"PolyRing(F_{self.p}, {list(self.variables)})"


def _same_ring(a: "Poly", b: "Poly") -> None:
    if a.ring is not b.ring and a.ring != b.ring:
        raise GhkError("polynomials live in different rings")


class Poly:
    """Immutable sparse polynomial over a PolyRing.

    Internal term format: a tuple of (key, monomial, coeff) triples
    sorted by key descending, coeff in [1, p). Term tuples are the
    exchange format with the Groebner engine; user code should stick to
    the public methods.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self._t = terms

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __len__(self) -> int:
        return len(self._t)

    def terms(self) -> Iterator[tuple]:
        """Yield (monomial, coeff) pairs, leading term first."""
        for _, m, c in self._t:
            yield m, c

    def coeff(self, mon: tuple) -> int:
        k = self.ring.key(tuple(mon))
        for kk, _, c in self._t:
            if kk == k:
                return c
            if kk < k:
                break
        return 0

    def lt(self) -> tuple:
        """(monomial, coeff) of the leading term."""
        if not self._t:
            raise GhkError("zero polynomial has no leading term")
        _, m, c = self._t[0]
        return m, c

    def lm(self) -> tuple:
        return self.lt()[0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        return max(sum(m) for _, m, c in self._t)

    def is_homogeneous(self) -> bool:
        if not self._t:
            return True
        degs = {sum(m) for _, m, c in self._t}
        return len(degs) == 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial; raises otherwise."""
        if not self._t:
            raise GhkError("zero polynomial has no well-defined homogeneous degree")
        degs = {sum(m) for _, m, c in self._t}
        if len(degs) != 1:
            raise HomogeneityError(f"polynomial {self} is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        _same_ring(self, other)
        p = self.ring.p
        A, B = self._t, other._t
        i = j = 0
        na, nb = len(A), len(B)
        out = []
        while i < na and j < nb:
            ka = A[i][0]
            kb = B[j][0]
            if ka > kb:
                out.append(A[i])
                i += 1
            elif ka < kb:
                out.append(B[j])
                j += 1
            else:
                c = (A[i][2] + B[j][2]) % p
                if c:
                    out.append((ka, A[i][1], c))
                i += 1
                j += 1
        out.extend(A[i:])
        out.extend(B[j:])
        return Poly(self.ring, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, tuple((k, m, p - c) for k, m, c in self._t))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int) -> "Poly":
        c %= self.ring.p
        if c == 0:
            return Poly(self.ring, ())
        if c == 1:
            return self
        p = self.ring.p
        return Poly(self.ring, tuple((k, m, cc * c % p) for k, m, cc in self._t))

    def mul_monomial(self, mon: tuple, coeff: int = 1) -> "Poly":
        """self * coeff * x^mon, one key shift per term."""
        ring = self.ring
        c = coeff % ring.p
        if c == 0:
            return Poly(ring, ())
        delta = ring.key(mon) - ring.shiftc
        p = ring.p
        if c == 1:
            terms = tuple((k + delta, mon_mul(m, mon), cc) for k, m, cc in self._t)
        else:
            terms = tuple((k + delta, mon_mul(m, mon), cc * c % p) for k, m, cc in self._t)
        return Poly(ring, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        _same_ring(self, other)
        ring = self.ring
        A, B = self._t, other._t
        if not A or not B:
            return Poly(ring, ())
        if len(A) == 1:
            k, m, c = A[0]
            return other.mul_monomial(m, c)
        if len(B) == 1:
            k, m, c = B[0]
            return self.mul_monomial(m, c)
        C = ring.shiftc
        acc: dict = {}
        mons: dict = {}
        for ka, ma, ca in A:
            for kb, mb, cb in B:
                k = ka + kb - C
                prev = acc.get(k)
                if prev is None:
                    acc[k] = ca * cb
                    mons[k] = mon_mul(ma, mb)
                else:
                    acc[k] = prev + ca * cb
        p = ring.p
        out = []
        for k in sorted(acc, reverse=True):
            c = acc[k] % p
            if c:
                out.append((k, mons[k], c))
        return Poly(ring, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise GhkError(f"polynomial powers need a nonnegative int exponent, got {k!r}")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k > 1
            k >>= 1
            if base_needed:
                base = base * base
        return result

    def divide_by_variable_power(self, i: int, a: int) -> "Poly":
        """self / x_i^a; requires x_i^a to divide every term."""
        if a == 0:
            return self
        ring = self.ring
        shift = tuple(a if j == i else 0 for j in range(ring.nvars))
        delta = ring.key(shift) - ring.shiftc
        out = []
        for k, m, c in self._t:
            nm = mon_div(m, shift)
            if nm is None:
                raise GhkError(f"x_{i}^{a} does not divide every term")
            out.append((k - delta, nm, c))
        return Poly(ring, tuple(out))

    def derivative(self, i: int) -> "Poly":
        """Formal partial derivative with respect to variable i."""
        ring = self.ring
        p = ring.p
        n = ring.nvars
        out = []
        for _, m, c in self._t:
            e = m[i]
            nc = c * (e % p) % p
            if nc == 0:
                continue
            nm = tuple(m[j] - 1 if j == i else m[j] for j in range(n))
            out.append((ring.key(nm), nm, nc))
        out.sort(reverse=True)
        return Poly(ring, tuple(out))

    # -- value semantics ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return self == self.ring.monomial((0,) * self.ring.nvars, other)
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.ring, self._t))

    def __str__(self) -> str:
        if not self._t:
            return "0"
        names = self.ring.variables
        parts = []
        for _, m, c in self._t:
            factors = []
            for v, e in zip(names, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Poly {self} over F_{self.ring.p}>"


# ---------------------------------------------------------------------------
# parsing


_TOKEN_OPS = set("+-*^()")


def _tokenize(text: str):
    """Yield (kind, value, pos); kinds are int, name, op, end."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", int(text[i:j]), i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if ch in _TOKEN_OPS:
            yield ("op", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    yield ("end", None, n)


class _Parser:
    """Recursive-descent parser for +, -, *, ^ and parentheses.

    Implicit multiplication ("3x") is rejected on purpose: requiring
    explicit '*' keeps error positions meaningful in problem files.
    """

    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.toks = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch: str):
        kind, val, pos = self.next()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}", self.text, pos)

    def parse(self) -> Poly:
        f = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r} after expression", self.text, pos)
        return f

    def expr(self) -> Poly:
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        f = self.term()
        if negate:
            f = -f
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                g = self.term()
                f = f - g if val == "-" else f + g
            else:
                return f

    def term(self) -> Poly:
        f = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                f = f * self.factor()
            elif kind in ("int", "name"):
                raise ParseError(
                    "implicit multiplication is not allowed; insert '*'", self.text, pos
                )
            else:
                return f

    def factor(self) -> Poly:
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, epos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.text, epos)
            if exp > EXP_CAP:
                raise ParseError(f"exponent {exp} exceeds the supported cap {EXP_CAP}", self.text, epos)
            result = base ** exp
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                raise ParseError("chained '^' needs parentheses", self.text, pos)
            return result
        return base

    def base(self) -> Poly:
        kind, val, pos = self.next()
        if kind == "end":
            raise ParseError("unexpected end of input", self.text, pos)
        if kind == "int":
            return self.ring.monomial((0,) * self.ring.nvars, val)
        if kind == "name":
            idx = self.ring._vindex.get(val)
            if idx is None:
                raise ParseError(
                    f"unknown variable {val!r}; ring variables are {list(self.ring.variables)}",
                    self.text,
                    pos,
                )
            return self.ring.variable(idx)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        if kind == "op" and val == "-":
            return -self.base()
        raise ParseError(f"unexpected {val!r}", self.text, pos)


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse integer-coefficient polynomial text into ring.

    Supported syntax: integers, ring variables, '+', '-', '*', '^',
    parentheses. Coefficients reduce mod p. Malformed input raises
    ParseError with the offending position.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# Frobenius


def frobenius_power(f: Poly, q: int) -> Poly:
    """Termwise q-th power x^m -> x^(q*m), coefficients fixed.

    q must be a power of the ring characteristic p. This computes f^q
    exactly because over F_p the q-th power map is additive and fixes
    scalars (c^q = c for every c in F_p), so (sum c*x^m)^q =
    sum c*x^(q*m).
    """
    ring = f.ring
    p = ring.p
    if not isinstance(q, int) or q < 1:
        raise GhkHypothesisError(f"q must be a positive power of p={p}, got {q!r}")
    qq = q
    while qq % p == 0:
        qq //= p
    if qq != 1:
        raise GhkHypothesisError(f"q={q} is not a power of the characteristic p={p}")
    if q == 1 or not f._t:
        return f
    C = ring.shiftc
    terms = tuple((q * k - (q - 1) * C, mon_pow(m, q), c) for k, m, c in f._t)
    return Poly(ring, terms)
