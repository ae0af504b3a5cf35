import functools
import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auslab.linalg import SignedPartition
from auslab.scalars import (
    ScalarValue,
    cyclotomic_polynomial,
    get_context,
    make_root_of_unity,
    root,
    root_powers,
)
from reference import multiplicative_order


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # phi(12) = 4: x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_make_root_of_unity_examples():
    assert make_root_of_unity(get_context(1), 0) == 1
    assert make_root_of_unity(get_context(2), 1) == -1
    # x^2 reduced modulo x^2 + 1 is -1
    assert make_root_of_unity(get_context(4), 2) == -1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_roots_have_order_dividing_m(m):
    ctx = get_context(m)
    one = ctx.from_rational(1)
    for e in range(m):
        assert functools.reduce(operator.mul, [make_root_of_unity(ctx, e)] * m) == one


def test_arithmetic_examples():
    ctx = get_context(4)
    one = ctx.from_rational(1)
    assert one + one == 2
    z = make_root_of_unity(ctx, 1)
    assert z * z == -1
    minus_one = ctx.from_rational(-1)
    assert minus_one.inverse() == -1
    assert (z * z * z) * z == 1


def test_inverse_of_zero_raises():
    ctx = get_context(4)
    with pytest.raises(ZeroDivisionError):
        ctx.from_rational(0).inverse()
    with pytest.raises(ZeroDivisionError):
        multiplicative_order(ctx.from_rational(0))


def test_multiplicative_orders():
    ctx = get_context(4)
    assert multiplicative_order(ctx.from_rational(1)) == 1
    assert multiplicative_order(ctx.from_rational(-1)) == 2
    assert multiplicative_order(make_root_of_unity(ctx, 1)) == 4
    assert multiplicative_order(Fraction(1)) == 1
    assert multiplicative_order(Fraction(-1)) == 2
    assert multiplicative_order(Fraction(2)) is None
    assert multiplicative_order(ctx.from_rational(Fraction(1, 2))) is None
    # -zeta_3 has order 6 even though the conductor is 3
    ctx3 = get_context(3)
    assert multiplicative_order(-make_root_of_unity(ctx3, 1)) == 6


def _random_value(ctx, rng):
    return ctx.from_coeffs(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(ctx.degree)]
    )


@pytest.mark.parametrize("m", [1, 3, 4, 8])
def test_field_axioms_on_samples(m):
    rng = random.Random(20240000 + m)
    ctx = get_context(m)
    one = ctx.from_rational(1)
    for _ in range(40):
        a, b, c = (_random_value(ctx, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == one


def test_rational_embedding_commutes():
    ctx = get_context(6)
    rng = random.Random(7)
    for _ in range(25):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        pe, qe = ctx.from_rational(p), ctx.from_rational(q)
        assert pe + qe == ctx.from_rational(p + q)
        assert pe * qe == ctx.from_rational(p * q)
        # mixed arithmetic promotes on the fly
        assert pe + q == ctx.from_rational(p + q)
        assert q * pe == ctx.from_rational(p * q)


def test_rational_valued_residues_compare_and_hash_like_fractions():
    ctx = get_context(4)
    z2 = make_root_of_unity(ctx, 2)
    assert z2 == -1
    assert hash(z2) == hash(Fraction(-1))
    assert z2.rational_value() == Fraction(-1)


def test_conductor_mixing_is_rejected():
    a = make_root_of_unity(get_context(4), 1)
    b = make_root_of_unity(get_context(3), 1)
    with pytest.raises(ValueError):
        a * b


# -- reference: dense Fraction polynomials reduced modulo Phi_m ---------------


def _ref_reduce(cs, m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    cs = [Fraction(c) for c in cs] + [Fraction(0)] * (deg - len(cs))
    for top in range(len(cs) - 1, deg - 1, -1):
        c = cs[top]
        for i, p in enumerate(phi):
            cs[top - deg + i] -= c * p
    return tuple(cs[:deg])


def _ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, m)


def _ref_str(cs, m):
    if not any(cs[1:]):
        return str(cs[0])
    terms = []
    for i, c in enumerate(cs):
        if c:
            mono = "" if i == 0 else f"z{m}" if i == 1 else f"z{m}^{i}"
            body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            terms.append(("-" if c < 0 else "+", body))
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in terms[1:])


def _assert_canonical(v):
    assert len(v.num) == v.context.degree and v.den > 0
    assert gcd(v.den, *v.num) == 1
    assert all(isinstance(c, int) for c in v.num + (v.den,))


_coefficient = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def _operands(draw):
    m = draw(st.integers(1, 30))
    deg = len(cyclotomic_polynomial(m)) - 1
    a = draw(st.lists(_coefficient, min_size=deg, max_size=deg))
    b = draw(st.lists(_coefficient, min_size=deg, max_size=deg))
    tail = draw(st.lists(_coefficient, max_size=deg))
    return m, a, b, tail


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_operands())
@example((7, [Fraction(1, 2), 0, -3, 0, 0, 1], [2, Fraction(-1, 3), 0, 0, 5, 1], [Fraction(1, 4)]))
@example((12, [1, Fraction(2, 3), 0, -1], [0, 0, Fraction(1, 6), 0], [3, 0, 1]))
def test_arithmetic_matches_fraction_reference(operands):
    m, a, b, tail = operands
    ctx = get_context(m)
    x, y = ctx.from_coeffs(a), ctx.from_coeffs(b)
    for v, ref in [
        (x, tuple(a)),
        (x * y, _ref_mul(a, b, m)),
        (y * x, _ref_mul(a, b, m)),
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (ctx.from_coeffs(a + tail), _ref_reduce(a + tail, m)),
    ]:
        _assert_canonical(v)
        assert v.coeffs == ref
        assert str(v) == _ref_str(ref, m)
        # equal values carry equal numerators and denominators
        twin = ctx.from_coeffs(ref)
        assert twin == v and (twin.num, twin.den) == (v.num, v.den) and hash(twin) == hash(v)
    if x:
        inv = x.inverse()
        _assert_canonical(inv)
        assert _ref_mul(a, inv.coeffs, m) == _ref_reduce([1], m)
        assert x * inv == 1 and hash(x * inv) == hash(Fraction(1))
    q = a[0]
    r = ctx.from_rational(q)
    _assert_canonical(r)
    assert r == q and hash(r) == hash(q) and r.rational_value() == q
    assert hash(x + y - y) == hash(x)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)


def test_products_and_inverses_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")

    def coeffs(p, deg):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        return tuple(cs + [Fraction(0)] * (deg - len(cs)))

    rng = random.Random(60)
    for m in (3, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30, 60):
        ctx = get_context(m)
        phi = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
        for _ in range(4):
            a, b = _random_value(ctx, rng), _random_value(ctx, rng)
            assert (a * b).coeffs == coeffs(sympy.rem(poly(a.coeffs) * poly(b.coeffs), phi), ctx.degree)
            if a:
                assert a.inverse().coeffs == coeffs(sympy.invert(poly(a.coeffs), phi), ctx.degree)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 12])
def test_root_powers_are_the_powers_of_one_root(m):
    # zeta_K^s for K = lcm(2, m), as values of the field of conductor m
    values = root_powers(m)
    k = len(values)
    assert k == (2 if m <= 2 else m if m % 2 == 0 else 2 * m)
    assert values[k // 2] == -1 and len(set(values)) == k
    assert all(values[a] * values[b] == values[(a + b) % k] for a in range(k) for b in range(k))
    assert functools.reduce(operator.mul, [values[1]] * (k // 2)) == -1   # values[1] is a primitive K-th root


def _lifted(c, m: int, big: int) -> ScalarValue:
    """c, a rational or a value of Q(zeta_m), as a value of Q(zeta_big):
    zeta_m = zeta_big^(big/m)."""
    coeffs = [0] * big
    if isinstance(c, ScalarValue):
        for i, a in enumerate(c.coeffs):
            coeffs[i * big // m] = a
    else:
        coeffs[0] = c
    return get_context(big).from_coeffs(coeffs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([1, 3, 4, 5, 6, 12]),
    foreign=st.sampled_from([3, 5]),
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 11), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 23)), max_size=3)),
        max_size=6,
    ),
)
def test_sums_vanish_is_the_sum_of_the_values(m, foreign, rows):
    # What membership feeds `SignedPartition.vanishes`: exponents mod
    # K = lcm(2, m) over the group's values, and coefficients in Q(zeta_m),
    # or in a foreign field when K = 2 (signs mix with any field).  The
    # reference sums c * zeta_K^s per key in Q(zeta_L), L = lcm(K, field).
    values = root_powers(m)
    k = len(values)
    field = foreign if k == 2 else m
    big = lcm(k, field)
    cases = []
    for num, den, e, pairs in rows:
        cases.append((Fraction(num, den) * root(field, e), [(key, s % k) for key, s in pairs]))
    sums = {}
    for c, pairs in cases:
        for key, s in pairs:
            sums[key] = sums.get(key, 0) + _lifted(c, field, big) * root(big, s * big // k)
    part = SignedPartition(1, values)
    assert part.vanishes(cases) == (not any(sums.values()))
    # each row against its own negation always cancels, also when the
    # negation is written as c * z^t at the exponents s - t
    assert part.vanishes(cases + [(-c, pairs) for c, pairs in cases])
    t = len(rows) % k
    assert part.vanishes(cases + [(-c * values[t], [(key, (s - t) % k) for key, s in pairs]) for c, pairs in cases])


def test_sums_vanish_examples():
    z5 = root(5, 1)
    signs = SignedPartition(1)                       # K = 2: coefficients of any field
    assert signs.vanishes([(z5, [("a", 1)]), (z5, [("a", 0)])])      # z5 * -1 + z5
    assert not signs.vanishes([(z5, [("a", 1)]), (z5, [("a", 1)])])
    over_zeta_3 = SignedPartition(1, root_powers(3))  # K = 6
    assert over_zeta_3.vanishes([(1, [(0, 0), (0, 2), (0, 4)])])     # 1 + zeta_3 + zeta_3^2
    assert not over_zeta_3.vanishes([(1, [(0, 0), (0, 2)]), (Fraction(1, 2), [(1, 3)])])
    assert over_zeta_3.vanishes([(root(3, 1), [(0, 4)]), (-1, [(0, 0)])])  # zeta_3 * z^4 - 1
    assert SignedPartition(1, root_powers(4)).vanishes([])
