"""Exact arithmetic over prime fields: monomials, grevlex keys, sparse polynomials.

Everything downstream (Groebner engines, Hilbert series, Frobenius
pullbacks) reduces to the operations defined here. Coefficients are
plain Python ints in [0, p), and the field is the int p that the ring
holds: the Groebner inner loops do millions of coefficient operations,
and a wrapper type would cost an order of magnitude. A polynomial is
an immutable sequence of terms sorted descending in grevlex, and a
term is the grevlex key of its monomial and a coefficient: the key is
the only record of the monomial, and the exponent tuple of the public
API is decoded from it when asked for.

Grevlex is the one term order, and one packed form, PackedMonomials,
serves both comparison and divisibility. Each exponent has a field of
EXP_BITS bits whose top bit is a guard that stays clear, and the
fields are laid out in the order grevlex compares the variables:
`last` on top, the others below it from the highest index down. With
low = 2^(nvars*EXP_BITS) - 1, the key (deg << nvars*EXP_BITS) |
(low - pk) of a packed monomial pk has key(a) > key(b) iff a > b in
grevlex with `last` compared last, and key(a*b) = key(a) + key(b) -
low. Polynomials use the default last variable (PolyRing.key); the
Groebner engine chooses another per basis, and its reduction loops
exploit the shift rule to move whole polynomials with one integer
addition per term instead of re-deriving tuple comparisons. Poly
arithmetic uses the same rule. A key decodes only while no field
overflows into the next, which holds while the degree stays below
2^EXP_BITS, so a Poly product of larger degree is refused.

Multiplication is an int add, exact division an int sub, and b | a
iff ((a | G) - b) & G == G for the guard mask G: with every guard of a
set, each field borrows only from its own guard, which survives iff
a_i >= b_i. The surviving guards also select the fields of lcm. A
strict divisor is a smaller int, so one pass over an ascending list
keeps a monomial ideal's minimal generators (minimal). The test
is exact only while every exponent stays below EXP_GUARD =
2^(EXP_BITS-1); a larger one would borrow into its neighbour and
corrupt divisibility silently. So packing refuses exponents above
EXP_CAP, and the Groebner engine bounds the degree of everything it
reduces (see groebner.py).

Record, the base of every frozen value record in the package, lives
here because every other module imports arith; it stands in for
dataclasses, whose import would double the start-up of a CLI call. So
do as_int and as_rat, the package's one check of an integer or a
rational that a caller passes in, and json_form, the one rule by which
every report writes a value: a record's keys are its field names, and a
rational is rat_str's "num/den".
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import Iterable, Iterator

from .errors import GhkError, GhkHypothesisError, HomogeneityError, ParseError

__all__ = [
    "Rat",
    "rat_str",
    "json_form",
    "as_int",
    "as_rat",
    "PolyRing",
    "Poly",
    "parse_poly",
    "frobenius_exponent",
    "frobenius_power",
    "is_prime",
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


def json_form(value):
    """value as every JSON report writes it: a Record as an object of its
    fields, a Rat as rat_str, a tuple or list as an array, a dict as an
    object of json_form values, and anything else unchanged."""
    if isinstance(value, Record):
        return {f: json_form(getattr(value, f)) for f in value._fields}
    if isinstance(value, Rat):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, dict):
        return {k: json_form(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# exact numbers from callers


def as_int(value, what: str, minimum: int | None = None) -> int:
    """value itself when it is an int, and at least minimum when one is
    given. A bool, a float or any other value raises GhkHypothesisError
    naming `what`, rather than being truncated or read as 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GhkHypothesisError(f"{what} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise GhkHypothesisError(f"{what} must be at least {minimum}, got {value}")
    return value


def as_rat(value) -> Rat:
    """value as an exact rational: a Rat, an int, or a string such as
    "-7/3". A bool, a float or any other value raises GhkHypothesisError."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, str):
        try:
            return Rat(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return Rat(value)
    raise GhkHypothesisError(f"expected an exact rational, got {value!r}")


# ---------------------------------------------------------------------------
# frozen records


class Record:
    """Base of the immutable value records. A subclass's annotations name
    its fields, in order, and a class attribute of the same name is that
    field's default. Construction takes the fields positionally or by
    keyword and then runs __post_init__; records compare and hash as
    their field tuple within one class, and refuse assignment. Instances
    keep a plain __dict__, so they pickle without help."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for f in kwargs:
            if f not in fields:
                raise TypeError(f"{name}() got an unexpected argument {f!r}")
            if f in values:
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
        values = {**self._defaults, **values, **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments {', '.join(map(repr, missing))}")
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json_dict(self) -> dict:
        """The record as its reports write it (json_form)."""
        return json_form(self)


# ---------------------------------------------------------------------------
# prime fields


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 primes as bases.

    Exact below psi_13 = 3317044064679887385961981, the least strong
    pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017);
    the first 12 would stop at psi_12 = 318665857834031151167461. No
    fixed set of bases is known to decide larger n: they raise
    GhkHypothesisError."""
    if as_int(n, "n") < 2:
        return False
    if n >= 3317044064679887385961981:
        raise GhkHypothesisError(f"primality of {n} is undecided: the bases are exact below psi_13")
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in primes:
        if n % q == 0:
            return n == q  # from here on no base equals n
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in primes:
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
# monomials: the packed form of exponent tuples


class PackedMonomials:
    """Guard-bit packing of exponent tuples with nvars entries, laid out
    for grevlex with `last` compared last (default: the last variable).

    pack/unpack convert at the boundary; in between, a*b is a + b, a/b
    is a - b and divides/lcm/degree/key are a few int operations.
    guard is the mask G of the module docstring; hot loops inline its
    test. Every method assumes its arguments' exponents stay below
    EXP_GUARD.
    """

    __slots__ = ("guard", "low", "_shifts", "_ones", "_top")

    def __init__(self, nvars: int, last: int | None = None):
        if last is None:
            last = nvars - 1
        if not 0 <= as_int(last, "the last variable") < nvars:
            raise GhkError(f"last variable {last!r} is not in range({nvars})")
        self._top = EXP_BITS * (nvars - 1)
        # variable i's field: `last` on top, the others in index order below
        self._shifts = tuple(
            self._top if i == last else EXP_BITS * (i - (i > last)) for i in range(nvars)
        )
        self.guard = sum(EXP_GUARD << s for s in self._shifts)
        self._ones = sum(1 << s for s in self._shifts)
        self.low = (1 << (EXP_BITS * nvars)) - 1

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

    def key(self, pk: int) -> int:
        """The grevlex key of pk; key(a + b) = key(a) + key(b) - low."""
        return (self.degree(pk) << (self._top + EXP_BITS)) | (self.low - pk)


# ---------------------------------------------------------------------------
# polynomial rings and polynomials


class PolyRing:
    """F_p[variables]. pm is its packing, PackedMonomials(nvars) with the
    last variable compared last: key(mon) is the grevlex key a Poly term
    carries and its polynomials are sorted by, and exponents decodes it.

    Rings compare by value (characteristic, variable names), so
    independently constructed copies of the same ring interoperate.
    """

    __slots__ = ("p", "variables", "nvars", "pm", "_dshift", "_vindex")

    def __init__(self, p: int, variables: Iterable[str]):
        if not is_prime(as_int(p, "the characteristic")):
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
        self.pm = PackedMonomials(self.nvars)
        self._dshift = EXP_BITS * self.nvars  # a key's degree field
        self._vindex = {v: i for i, v in enumerate(names)}

    def key(self, mon: tuple) -> int:
        """The grevlex key of an exponent tuple. A tuple of another length
        or an exponent that is not an int in [0, EXP_CAP] raises: the key
        would stand for another monomial or for none."""
        if len(mon) != self.nvars:
            raise GhkError(f"monomial {mon} has {len(mon)} exponents, ring has {self.nvars} variables")
        for e in mon:
            if as_int(e, "an exponent", 0) > EXP_CAP:
                raise GhkError(f"exponent {e} out of range [0, {EXP_CAP}]")
        return self.pm.key(self.pm.pack(mon))

    def exponents(self, key: int) -> tuple:
        """The exponent tuple of a key (the inverse of key)."""
        low = self.pm.low
        return self.pm.unpack(low - (key & low))

    def _shift(self, i: int) -> int:
        """Where variable i's field starts in a key. The default layout
        puts the last variable on top and the others in index order
        below it, so variable i is field i, and the field holds
        _FMAX - e_i."""
        if not 0 <= as_int(i, "a variable index") < self.nvars:
            raise GhkError(f"variable index {i!r} is not in range({self.nvars})")
        return EXP_BITS * i

    # -- builders ----------------------------------------------------

    @property
    def zero(self) -> "Poly":
        return Poly(self, ())

    @property
    def one(self) -> "Poly":
        return self.monomial((0,) * self.nvars)

    def variable(self, i: int | str) -> "Poly":
        if isinstance(i, str):
            if i not in self._vindex:
                raise GhkError(f"no variable named {i!r} in {list(self.variables)}")
            i = self._vindex[i]
        self._shift(i)  # refuses an index that names no variable
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(mon)

    def gens(self) -> tuple:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, mon: tuple, coeff: int = 1) -> "Poly":
        k = self.key(tuple(mon))
        c = as_int(coeff, "a coefficient") % self.p
        return Poly(self, ((k, c),) if c else ())

    def from_pairs(self, pairs: Iterable[tuple]) -> "Poly":
        """Build from (monomial, coeff) pairs; repeats combine, zeros drop."""
        acc: dict = {}
        for mon, c in pairs:
            k = self.key(tuple(mon))
            acc[k] = acc.get(k, 0) + as_int(c, "a coefficient")
        p = self.p
        terms = sorted(((k, c % p) for k, c in acc.items() if c % p), reverse=True)
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

    def __repr__(self) -> str:
        return f"PolyRing(F_{self.p}, {list(self.variables)})"


def _same_ring(a: "Poly", b: "Poly") -> None:
    if a.ring is not b.ring and a.ring != b.ring:
        raise GhkError("polynomials live in different rings")


def _check_product_degree(deg: int) -> None:
    """Refuse a product whose key would not decode: a degree of
    2^EXP_BITS lets an exponent carry into the next field."""
    if deg > _FMAX:
        raise GhkError(f"product degree {deg} exceeds the packed monomial limit {_FMAX}")


def check_exponent_cap(f: "Poly", q: int = 1) -> None:
    """Refuse f when q times one of its exponents exceeds EXP_CAP.

    No exponent exceeds the degree, so only a polynomial of degree above
    EXP_CAP / q is decoded.
    """
    if f.degree() * q > EXP_CAP:
        e = q * max(max(f.ring.exponents(k)) for k, _ in f._t)
        if e > EXP_CAP:
            raise GhkError(f"monomial exponent {e} exceeds the supported cap {EXP_CAP}")


class Poly:
    """Immutable sparse polynomial over a PolyRing.

    Internal term format: a tuple of (key, coeff) pairs sorted by key
    descending, coeff in [1, p), where key = ring.key(monomial) is the
    only record of the monomial (ring.exponents decodes it). Keys sort
    by degree first, and multiplying by a monomial adds a constant to
    every key. Term tuples are the exchange format with the Groebner
    engine; user code should stick to the public methods.
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
        exponents = self.ring.exponents
        for k, c in self._t:
            yield exponents(k), c

    def coeff(self, mon: tuple) -> int:
        k = self.ring.key(tuple(mon))
        for kk, c in self._t:
            if kk == k:
                return c
            if kk < k:
                break
        return 0

    def vertex_value(self, last: bool = False) -> int:
        """f(1, 0, ..., 0), or with `last` f(0, ..., 0, 1), for a
        homogeneous f of degree d: its coefficient of x_0^d, the greatest
        monomial of degree d in grevlex and so its first term, or of
        x_last^d, the least and so its last term. The term is that power
        iff every other exponent field of its key holds _FMAX, exponent
        0; no exponent tuple is decoded."""
        t = self._t
        if not t:
            return 0
        low = self.ring.pm.low
        if last:
            k, c = t[-1]
            below = low >> EXP_BITS  # every field but the last variable's
            return c if k & below == below else 0
        k, c = t[0]
        return c if (k | _FMAX) & low == low else 0

    def lt(self) -> tuple:
        """(monomial, coeff) of the leading term."""
        if not self._t:
            raise GhkError("zero polynomial has no leading term")
        k, c = self._t[0]
        return self.ring.exponents(k), c

    def lm(self) -> tuple:
        return self.lt()[0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        return self._t[0][0] >> self.ring._dshift

    def is_homogeneous(self) -> bool:
        t = self._t
        s = self.ring._dshift
        return not t or t[0][0] >> s == t[-1][0] >> s

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial; raises otherwise."""
        if not self._t:
            raise GhkError("zero polynomial has no well-defined homogeneous degree")
        if not self.is_homogeneous():
            degs = sorted({k >> self.ring._dshift for k, _ in self._t})
            raise HomogeneityError(f"polynomial {self} is not homogeneous (degrees {degs})")
        return self.degree()

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
                c = (A[i][1] + B[j][1]) % p
                if c:
                    out.append((ka, c))
                i += 1
                j += 1
        out.extend(A[i:])
        out.extend(B[j:])
        return Poly(self.ring, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, tuple((k, p - c) for k, c in self._t))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int) -> "Poly":
        c = as_int(c, "a scalar") % self.ring.p
        if c == 0:
            return Poly(self.ring, ())
        if c == 1:
            return self
        p = self.ring.p
        return Poly(self.ring, tuple((k, cc * c % p) for k, cc in self._t))

    def mul_monomial(self, mon: tuple, coeff: int = 1) -> "Poly":
        """self * coeff * x^mon, one key shift per term."""
        ring = self.ring
        c = as_int(coeff, "a coefficient") % ring.p
        if c == 0 or not self._t:
            return Poly(ring, ())
        delta = ring.key(mon) - ring.pm.low
        _check_product_degree(self.degree() + sum(mon))
        p = ring.p
        return Poly(ring, tuple((k + delta, cc * c % p) for k, cc in self._t))

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
        _check_product_degree(self.degree() + other.degree())
        C = ring.pm.low
        acc: dict = {}
        for ka, ca in A:
            ka -= C
            for kb, cb in B:
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        p = ring.p
        out = []
        for k in sorted(acc, reverse=True):
            c = acc[k] % p
            if c:
                out.append((k, c))
        return Poly(ring, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = as_int(k, "a power", 0)
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
        ring = self.ring
        s = ring._shift(i)
        if as_int(a, "a power", 0) == 0:
            return self
        delta = (a << ring._dshift) - (a << s)  # the key shift of x_i^a
        out = []
        for k, c in self._t:
            if (k >> s) & _FMAX > _FMAX - a:
                raise GhkError(f"x_{i}^{a} does not divide every term")
            out.append((k - delta, c))
        return Poly(ring, tuple(out))

    def derivative(self, i: int) -> "Poly":
        """Formal partial derivative with respect to variable i."""
        ring = self.ring
        p = ring.p
        s = ring._shift(i)
        delta = (1 << ring._dshift) - (1 << s)  # the key shift of x_i
        out = []
        for k, c in self._t:
            nc = c * (_FMAX - ((k >> s) & _FMAX)) % p
            if nc:
                out.append((k - delta, nc))
        return Poly(ring, tuple(out))

    # -- value semantics ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, int):
                # compared as a constant, as 1 == True is; the key of 1 is low
                c = other % self.ring.p
                return self._t == (((self.ring.pm.low, c),) if c else ())
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.ring, self._t))

    def __str__(self) -> str:
        if not self._t:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in self.terms():
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


def frobenius_exponent(q: int, p: int) -> int:
    """The e with q = p^e; any other q raises GhkHypothesisError."""
    qq = as_int(q, "q", 1)
    e = 0
    while qq % p == 0:
        qq //= p
        e += 1
    if qq != 1:
        raise GhkHypothesisError(f"q={q} is not a power of the characteristic p={p}")
    return e


def frobenius_power(f: Poly, q: int) -> Poly:
    """Termwise q-th power x^m -> x^(q*m), coefficients fixed.

    q must be a power of the ring characteristic p. This computes f^q
    exactly because over F_p the q-th power map is additive and fixes
    scalars (c^q = c for every c in F_p), so (sum c*x^m)^q =
    sum c*x^(q*m).
    """
    ring = f.ring
    frobenius_exponent(q, ring.p)
    if q == 1 or not f._t:
        return f
    check_exponent_cap(f, q)
    C = ring.pm.low
    return Poly(ring, tuple((q * k - (q - 1) * C, c) for k, c in f._t))
