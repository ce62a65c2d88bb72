"""Polynomial arithmetic and the canonical linear-fraction form."""

import random
from fractions import Fraction
from math import gcd

import pytest

from torbun.polynomials import LinearFraction, Polynomial, _primitive_form, divide_exact


def x(i, n=2):
    return Polynomial.variable(n, i)


def lf_inv(*forms, n=2, scale=1):
    return LinearFraction.inverse_of_product(n, forms, scale=Fraction(scale))


def test_poly_basic_arithmetic():
    x1, x2 = x(0), x(1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1


def test_powers_match_repeated_products(base_algebra, a1, a2):
    x1, x2 = x(0), x(1)
    for base, one in [(x1 + 2 * x2 - 1, Polynomial.constant(2, 1)), (1 + a1 - 3 * a2, base_algebra.one())]:
        product = one
        for k in range(10):
            assert base ** k == product
            product = product * base
    assert (a1 ** 10**9).is_zero()


def test_poly_degree_and_homogeneity():
    x1, x2 = x(0), x(1)
    assert (x1 * x2).degree() == 2
    assert Polynomial.zero(2).degree() is None
    assert (x1 * x1 + x2 * x2).is_homogeneous_of(2)
    assert not (x1 + 1).is_homogeneous()


def test_poly_compose():
    x1, x2 = x(0), x(1)
    t = Polynomial.variable(1, 0)
    # restrict x1^2 - x2^2 to the diagonal x = (t, t)
    p = (x1 * x1 - x2 * x2).compose([t, t])
    assert p.is_zero()
    q = (x1 * x2).compose([t, t + 1])
    assert q == t * t + t


def test_poly_render():
    x1, x2 = x(0), x(1)
    assert (x2 * x2).render() == "x2^2"
    assert (-x1 - x2).render() == "-x1 - x2"
    assert (3 * x1 * x2 - 1).render() == "-1 + 3*x1*x2"
    assert Polynomial.zero(2).render() == "0"


def test_divide_exact():
    x1, x2 = x(0), x(1)
    p = x1 * x1 - x2 * x2
    q = divide_exact(p, (1, -1))  # divide by x1 - x2
    assert q == x1 + x2
    assert divide_exact(p, (1, 1)) == x1 - x2
    assert divide_exact(x1 * x1 + x2, (1, -1)) is None
    assert divide_exact(2 * x1 * x1 + x1 * x2, (2, 1)) == x1


def test_linear_fraction_canonical_cancellation():
    x1, x2 = x(0), x(1)
    # (x1^2 - x2^2) / (x1 - x2) collapses to the polynomial x1 + x2
    f = LinearFraction(x1 * x1 - x2 * x2, {(1, -1): 1})
    assert f.is_polynomial()
    assert f.as_polynomial() == x1 + x2


def test_linear_fraction_content_reduction():
    x1 = x(0)
    f = LinearFraction(2 * x1, {}, 4)
    assert f.num == x1 and f.content == 2


def test_linear_fraction_sign_normalization():
    # 1 / (x2 - x1) has canonical form -1 / (x1 - x2)
    f = lf_inv((-1, 1))
    assert f.content == 1
    assert f.den == {(1, -1): 1}
    assert f.num == Polynomial.constant(2, -1)


def test_linear_fraction_rational_forms():
    # 1 / ((1/2)(2x1 - x2)) = 2 / (2x1 - x2)
    f = lf_inv((1, Fraction(-1, 2)))
    assert f.den == {(2, -1): 1}
    assert f.num == Polynomial.constant(2, 2)


def test_linear_fraction_addition_telescopes():
    # x2^2/((x1-x2) x2) + x1^2/(x1 (x2-x1)) == -1 as a constant polynomial
    x1, x2 = x(0), x(1)
    a = lf_inv((1, -1), (0, 1)).poly_mul(x2 * x2)
    b = lf_inv((1, 0), (-1, 1)).poly_mul(x1 * x1)
    s = a + b
    assert s.is_polynomial()
    assert s.as_polynomial() == Polynomial.constant(2, -1)
    # and without the numerators the sum is 1/(x1 x2)
    t = lf_inv((1, -1), (0, 1)) + lf_inv((1, 0), (-1, 1))
    assert t == lf_inv((1, 0), (0, 1))


def test_linear_fraction_subdivision_sum():
    # 1/((x1-x2)x2) + 1/((2x1-x2)(x2-x1)) == 2/(x2(2x1-x2))
    a = lf_inv((1, -1), (0, 1))
    b = lf_inv((2, -1), (-1, 1))
    expected = lf_inv((0, 1), (2, -1), scale=Fraction(1, 2))
    assert a + b == expected


def test_linear_fraction_zero():
    z = LinearFraction.zero(2)
    assert z.is_zero() and z.is_polynomial()
    f = lf_inv((1, 0))
    assert (f + z) == f
    assert (f - f).is_zero()


def test_linear_fraction_degree():
    f = lf_inv((1, 0), (1, -1))
    assert f.degree() == -2
    g = f.poly_mul(x(0) * x(0) * x(1))
    assert g.degree() == 1


def test_linear_fraction_render():
    f = lf_inv((0, 1), (2, -1), scale=Fraction(1, 2))
    assert f.render() == "2 / (x2 * (2*x1 - x2))"
    assert lf_inv((1, 0)).render() == "1 / x1"


def loop_primitive_form(coeffs):
    """(factor, primitive form) by hand-written lcm, gcd and sign loops: the
    routine _primitive_form replaced, kept as its oracle."""
    fr = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in fr):
        raise ValueError("zero linear form")
    den = 1
    for c in fr:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fr]
    g = 0
    for a in ints:
        g = gcd(g, a)
    ints = [a // g for a in ints]
    sign = 1
    for a in ints:
        if a != 0:
            sign = 1 if a > 0 else -1
            break
    return Fraction(sign * g, den), tuple(sign * a for a in ints)


def test_primitive_form_matches_loop_oracle():
    rng = random.Random(25)
    for _ in range(5000):
        size = rng.randint(1, 5)
        coeffs = [Fraction(rng.choice((0, 0, rng.randint(-30, 30))), rng.randint(1, 12)) for _ in range(size)]
        if not any(coeffs):
            with pytest.raises(ValueError):
                _primitive_form(coeffs)
            continue
        factor, form = _primitive_form(coeffs)
        assert (factor, form) == loop_primitive_form(coeffs)
        assert type(factor) is Fraction and all(type(a) is int for a in form)
