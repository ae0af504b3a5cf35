"""Exact coefficient arithmetic over Q and cyclotomic extensions Q(zeta_m).

Values are residues modulo the m-th cyclotomic polynomial Phi_m, with
arbitrary-precision rational coefficients.  Phi_m is irreducible over Q, so
the residue ring is a field and every nonzero value is invertible via the
extended Euclidean algorithm.  The conductor m = 1 gives plain rationals;
a single computation fixes one conductor for its lifetime, with rationals
embedding into any conductor on demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Union[int, Fraction]


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense coefficient lists (index = degree)."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] * inv_lead
        if c:
            q[shift] = c
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, computed by the
    recursive quotient of x^m - 1 by Phi_d over proper divisors d."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, [Fraction(c) for c in cyclotomic_polynomial(d)])
            assert rem == [0], "cyclotomic division must be exact"
    assert all(c.denominator == 1 for c in num)
    return tuple(int(c) for c in num)


class CyclotomicContext:
    """The field Q(zeta_m), carried around as the conductor plus Phi_m."""

    __slots__ = ("m", "phi", "degree")

    def __init__(self, m: int):
        self.m = m
        self.phi = cyclotomic_polynomial(m)
        self.degree = len(self.phi) - 1

    def __eq__(self, other):
        return isinstance(other, CyclotomicContext) and self.m == other.m

    def __hash__(self):
        return hash(("CyclotomicContext", self.m))

    def __repr__(self):
        return f"CyclotomicContext(m={self.m})"

    def zero(self) -> "ScalarValue":
        return ScalarValue(self, (Fraction(0),) * self.degree)

    def one(self) -> "ScalarValue":
        return self.from_rational(1)

    def from_rational(self, value: Rational) -> "ScalarValue":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(value)
        return ScalarValue(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "ScalarValue":
        """Build a value from a coefficient list of length <= deg Phi_m,
        reducing modulo Phi_m if necessary."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            _, cs = _poly_divmod(cs, [Fraction(c) for c in self.phi])
        cs += [Fraction(0)] * (self.degree - len(cs))
        return ScalarValue(self, tuple(cs[: self.degree]))


@lru_cache(maxsize=None)
def get_context(m: int) -> CyclotomicContext:
    return CyclotomicContext(m)


class ScalarValue:
    """An element of Q(zeta_m) in canonical residue form.

    Immutable.  Arithmetic mixes freely with int and Fraction (the m = 1
    embedding); two values with different conductors > 1 refuse to combine.
    A value whose residue is constant compares and hashes equal to the
    corresponding Fraction-like rational.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: CyclotomicContext, coeffs: tuple[Fraction, ...]):
        self.context = context
        self.coeffs = coeffs

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "ScalarValue | None":
        if isinstance(other, ScalarValue):
            if other.context == self.context:
                return other
            if other.context.m == 1:
                return self.context.from_rational(other.coeffs[0])
            if self.context.m == 1:
                raise ValueError("cannot mix conductors implicitly; promote explicitly")
            raise ValueError(
                f"conductor mismatch: {self.context.m} vs {other.context.m}"
            )
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return None

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.context, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ScalarValue(self.context, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.context, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.context.degree
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return self.context.from_coeffs(prod)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarValue":
        """Field inverse via extended Euclid against Phi_m."""
        if not self:
            raise ZeroDivisionError("inversion of zero scalar")
        if self.context.m == 1 or self.is_rational():
            return self.context.from_rational(1 / self.coeffs[0])
        # Bezout: s*self + t*Phi = gcd = const (Phi_m irreducible).
        r0 = [Fraction(c) for c in self.context.phi]
        r1 = list(self.coeffs)
        while len(r1) > 1 and not r1[-1]:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = 1 / r1[0]
                return self.context.from_coeffs([c * inv for c in s1])
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = self.context.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, ScalarValue):
            if other.context == self.context:
                return self.coeffs == other.coeffs
            if self.is_rational() and other.is_rational():
                return self.coeffs[0] == other.coeffs[0]
            return False
        return NotImplemented

    def __hash__(self):
        # Rational-valued residues hash like the underlying Fraction so that
        # mixed Fraction/ScalarValue dict keys behave.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.context.m, self.coeffs))

    def __repr__(self):
        return f"ScalarValue({self})"

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        z = f"z{self.context.m}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = z if i == 1 else f"{z}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def make_root_of_unity(ctx: CyclotomicContext, e: int) -> ScalarValue:
    """The canonical residue of x^(e mod m): zeta_m^e."""
    e %= ctx.m
    coeffs = [Fraction(0)] * (e + 1)
    coeffs[e] = Fraction(1)
    return ctx.from_coeffs(coeffs)


@lru_cache(maxsize=None)
def root(m: int, k: int):
    """zeta_m^k: a Fraction for m <= 2 (the values +-1), else in Q(zeta_m)."""
    if m <= 2:
        return Fraction(-1 if k % m else 1)
    return make_root_of_unity(get_context(m), k)


def multiplicative_order(a) -> int | None:
    """Least e >= 1 with a^e = 1, or None when a has infinite order.

    The torsion of Q(zeta_m)^x is generated by -zeta_m, of order lcm(2, m),
    so checking exponents up to that bound is exhaustive.
    """
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(a, Fraction):
        if not a:
            raise ZeroDivisionError("zero scalar has no multiplicative order")
        if a == 1:
            return 1
        if a == -1:
            return 2
        return None
    if not a:
        raise ZeroDivisionError("zero scalar has no multiplicative order")
    m = a.context.m
    bound = m if m % 2 == 0 else 2 * m
    one = a.context.one()
    power = a
    for e in range(1, bound + 1):
        if power == one:
            return e
        power = power * a
    return None


def as_scalar(value, ctx: CyclotomicContext | None = None):
    """Normalize an int/Fraction/ScalarValue into the requested context
    (or leave rationals as Fractions when no context is given)."""
    if ctx is None or ctx.m == 1:
        if isinstance(value, ScalarValue):
            return value.rational_value() if value.is_rational() else value
        return Fraction(value)
    if isinstance(value, ScalarValue):
        if value.context == ctx:
            return value
        if value.is_rational():
            return ctx.from_rational(value.coeffs[0])
        raise ValueError(f"conductor mismatch: {value.context.m} vs {ctx.m}")
    return ctx.from_rational(value)
