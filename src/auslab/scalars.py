"""Exact coefficient arithmetic over Q and cyclotomic extensions Q(zeta_m).

A value is a residue modulo the m-th cyclotomic polynomial Phi_m, stored as
integer numerators over one positive common denominator.  Phi_m is monic with
integer coefficients, so each field reduces the powers a product reaches with
an integer table built once, and sums and products are integer arithmetic
followed by one gcd pass that keeps the form canonical.  Phi_m is irreducible
over Q, so the residue ring is a field; a nonzero value is inverted through
its Galois conjugates, again in integers.  The conductor m = 1 gives plain
rationals; a single computation fixes one conductor for its lifetime, with
rationals embedding into any conductor on demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer coefficient lists (index = degree)
    by a monic divisor; the remainder has exactly len(den) - 1 entries."""
    k = len(den) - 1
    num = list(num) + [0] * (k - len(num))
    q = [0] * (len(num) - k)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = num[shift + k]
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    return q, num[:k]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, computed by the
    recursive quotient of x^m - 1 by Phi_d over proper divisors d."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            assert not any(rem), "cyclotomic division must be exact"
    return tuple(num)


class CyclotomicContext:
    """The field Q(zeta_m), carried around as the conductor plus Phi_m; one
    per conductor, shared through `get_context`.

    `fold[k]` lists the nonzero (i, c) with x^(deg+k) = sum c x^i modulo
    Phi_m, for every exponent deg+k <= 2*deg-2 a product of two residues
    reaches; the entries are integers because Phi_m is monic.
    """

    __slots__ = ("m", "phi", "degree", "fold")

    def __init__(self, m: int):
        self.m = m
        self.phi = cyclotomic_polynomial(m)
        self.degree = deg = len(self.phi) - 1
        power, fold = [-c for c in self.phi[:deg]], []  # x^deg
        for _ in range(deg - 1):
            fold.append(tuple((i, c) for i, c in enumerate(power) if c))
            top = power[-1]
            power = [p - top * c for p, c in zip([0] + power[:-1], self.phi)]
        self.fold = tuple(fold)

    def __repr__(self):
        return f"CyclotomicContext(m={self.m})"

    def from_rational(self, value: Rational) -> "ScalarValue":
        value = Fraction(value)
        return ScalarValue(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def from_coeffs(self, coeffs) -> "ScalarValue":
        """Build a value from a coefficient list of any length, reducing
        modulo Phi_m if it is longer than deg Phi_m."""
        cs = [Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in cs))
        _, num = _divmod_monic([c.numerator * (den // c.denominator) for c in cs], self.phi)
        return self._value(num, den)

    def _product(self, a, b) -> list[int]:
        """Numerators of a * b mod Phi_m, for numerator lists of length deg."""
        deg = self.degree
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    prod[i + j] += x * y
        out = prod[:deg]
        for row, c in zip(self.fold, prod[deg:]):
            if c:
                for i, f in row:
                    out[i] += c * f
        return out

    def _value(self, num: list[int], den: int) -> "ScalarValue":
        """num / den in canonical form: the common factor removed."""
        g = gcd(den, *num)
        if g != 1:
            return ScalarValue(self, tuple(c // g for c in num), den // g)
        return ScalarValue(self, tuple(num), den)


@lru_cache(maxsize=None)
def get_context(m: int) -> CyclotomicContext:
    return CyclotomicContext(m)


class ScalarValue:
    """An element of Q(zeta_m): the residue sum(num[i] x^i) / den mod Phi_m.

    Immutable and canonical: `num` holds deg Phi_m integers, `den` > 0 and
    gcd(den, *num) = 1, so equal values have equal `num` and `den`; `coeffs`
    is the derived view as Fractions.  Arithmetic mixes freely with int and
    Fraction (the m = 1 embedding); two values with different conductors > 1
    refuse to combine.  A value whose residue is constant compares and hashes
    equal to the corresponding Fraction-like rational.
    """

    __slots__ = ("context", "num", "den")

    def __init__(self, context: CyclotomicContext, num: tuple[int, ...], den: int):
        self.context = context
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "ScalarValue | None":
        if isinstance(other, ScalarValue):
            if other.context.m == self.context.m:
                return other
            if other.context.m == 1:
                return self.context.from_rational(other.rational_value())
            if self.context.m == 1:
                raise ValueError("cannot mix conductors implicitly; promote explicitly")
            raise ValueError(
                f"conductor mismatch: {self.context.m} vs {other.context.m}"
            )
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return None

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -------------------------------------------------------

    def _add(self, o: "ScalarValue", sign: int) -> "ScalarValue":
        a, b = self.den, o.den
        if a == b:
            return self.context._value([x + sign * y for x, y in zip(self.num, o.num)], a)
        return self.context._value([x * b + sign * y * a for x, y in zip(self.num, o.num)], a * b)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return ScalarValue(self.context, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.context._value(self.context._product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarValue":
        """Field inverse: 1/a is the product of the other Galois conjugates
        a(x^k), k prime to m, over the norm N(a), which is rational."""
        if not self:
            raise ZeroDivisionError("inversion of zero scalar")
        if self.is_rational():
            return self.context.from_rational(1 / self.rational_value())
        ctx = self.context
        others = [1] + [0] * (ctx.degree - 1)
        for k in range(2, ctx.m):
            if gcd(k, ctx.m) == 1:
                conj = [0] * ctx.m
                for i, c in enumerate(self.num):
                    conj[i * k % ctx.m] = c
                others = ctx._product(others, _divmod_monic(conj, ctx.phi)[1])
        # N(a) > 0: for m >= 3 complex conjugation pairs the conjugates off.
        norm = ctx._product(self.num, others)[0]
        return ctx._value([c * self.den for c in others], norm)

    # -- comparison / hashing ----------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other.numerator and self.den == other.denominator
        if isinstance(other, ScalarValue):
            if other.context.m == self.context.m:
                return self.num == other.num and self.den == other.den
            if self.is_rational() and other.is_rational():
                return self.num[0] == other.num[0] and self.den == other.den
            return False
        return NotImplemented

    def __hash__(self):
        # Rational-valued residues hash like the underlying Fraction so that
        # mixed Fraction/ScalarValue dict keys behave.
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.context.m, self.num, self.den))

    def __repr__(self):
        return f"ScalarValue({self})"

    def __str__(self):
        if self.is_rational():
            return str(self.rational_value())
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


def make_root_of_unity(ctx: CyclotomicContext, e: int) -> ScalarValue:
    """The canonical residue of x^(e mod m): zeta_m^e."""
    return ctx.from_coeffs([0] * (e % ctx.m) + [1])


@lru_cache(maxsize=None)
def root(m: int, k: int):
    """zeta_m^k: a Fraction for m <= 2 (the values +-1), else in Q(zeta_m)."""
    if m <= 2:
        return Fraction(-1 if k % m else 1)
    return make_root_of_unity(get_context(m), k)


@lru_cache(maxsize=None)
def root_powers(m: int) -> tuple:
    """zeta_K^s for s = 0..K-1, K = lcm(2, m), as values of the field of
    conductor m (the integers +-1 for m <= 2): for odd m,
    zeta_2m = -zeta_m^((m+1)/2)."""
    if m <= 2:
        return (1, -1)
    if m % 2 == 0:
        return tuple(root(m, s) for s in range(m))
    return tuple(-root(m, s * (m + 1) // 2 % m) if s % 2 else root(m, s // 2) for s in range(2 * m))
