"""Base-class and polynomial arithmetic against a plain-dict reference, and
the shared values that arithmetic must leave unchanged."""

import itertools
import random

import pytest

import torbun as tb
from torbun.algebra import AlgebraElement
from torbun.polynomials import Polynomial, sum_of_products

from conftest import p1_cubed_fan
from test_equivariant import pl_function

# an explicit algebra: the cohomology of P^1 x P^1 (a, b) written with
# its own table, a*b the point class
EXPLICIT_NAMES = ("1", "a", "b", "p")
EXPLICIT_DEGREES = (0, 1, 1, 2)
EXPLICIT_TABLE = {
    (0, 0): {0: 1},
    (0, 1): {1: 1},
    (0, 2): {2: 1},
    (0, 3): {3: 1},
    (1, 1): {},
    (1, 2): {3: 1},
    (2, 2): {},
    (1, 3): {},
    (2, 3): {},
    (3, 3): {},
}


def explicit_algebra():
    return tb.GradedAlgebra(EXPLICIT_NAMES, EXPLICIT_DEGREES, EXPLICIT_TABLE, 2)


def algebras():
    """(name, a function making the algebra, the reference product of basis
    indices i and j as a dict)."""

    def monomial_reference(build):
        # the basis of a free or projective algebra is monomials: multiply
        # their exponents, read from the basis names
        alg = build()
        gens = sorted({part.split("^")[0] for name in alg.names if name != "1" for part in name.split("*")})

        def exponents(name):
            exps = dict.fromkeys(gens, 0)
            for part in name.split("*") if name != "1" else ():
                gen, _, k = part.partition("^")
                exps[gen] += int(k or 1)
            return tuple(exps[g] for g in gens)

        by_exponents = {exponents(n): i for i, n in enumerate(alg.names)}

        def product(i, j):
            e = tuple(a + b for a, b in zip(exponents(alg.names[i]), exponents(alg.names[j])))
            return {by_exponents[e]: 1} if e in by_exponents else {}

        return product

    def explicit_product(i, j):
        return dict(EXPLICIT_TABLE[(min(i, j), max(i, j))])

    free = lambda: tb.make_free_truncated([("a1", 1), ("a2", 1), ("c", 2)], 4)  # noqa: E731
    projective = lambda: tb.projective_space_algebra(3, "h")  # noqa: E731
    return [
        ("free_truncated", free, monomial_reference(free)),
        ("projective", projective, monomial_reference(projective)),
        ("explicit", explicit_algebra, explicit_product),
    ]


def clean(d):
    return {k: c for k, c in d.items() if c != 0}


def ref_add(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return clean(out)


def ref_scale(x, n):
    return clean({k: n * c for k, c in x.items()})


def ref_mul(x, y, product):
    out = {}
    for (i, c), (j, d) in itertools.product(x.items(), y.items()):
        for k, e in product(i, j).items():
            out[k] = out.get(k, 0) + c * d * e
    return clean(out)


def ref_power(x, k, unit, mul):
    out = unit
    for _ in range(k):
        out = mul(out, x)
    return out


def random_coeffs(rng, keys):
    """A sparse coefficient dict on some of keys, with some explicit zeros."""
    return {key: rng.choice((0, -3, -1, 1, 2, 5)) for key in rng.sample(keys, rng.randint(0, min(4, len(keys))))}


def assert_element(el, alg, want):
    assert isinstance(el, AlgebraElement) and el.algebra == alg
    assert el.coeffs == want and 0 not in el.coeffs.values()
    assert el == AlgebraElement(alg, want) and hash(el) == hash(AlgebraElement(alg, want))


@pytest.mark.parametrize("name,build,product", algebras(), ids=[a[0] for a in algebras()])
def test_algebra_arithmetic_matches_dict_reference(name, build, product):
    # +, -, *, integer scaling, negation and power against dicts, over random
    # operands, cancellations, the zero and the unit, and operands from a
    # distinct but equal algebra object
    rng = random.Random(17)
    alg, twin = build(), build()
    assert alg is not twin and alg == twin
    keys = list(range(len(alg.names)))
    unit = {0: 1}
    for _ in range(300):
        x = random_coeffs(rng, keys)
        y = rng.choice([random_coeffs(rng, keys), ref_scale(x, -1), {}, unit, clean(x)])
        a = AlgebraElement(alg, x)
        b = AlgebraElement(rng.choice((alg, twin)), y)
        x, y = clean(x), clean(y)
        before = (dict(a.coeffs), dict(b.coeffs))
        assert_element(a + b, alg, ref_add(x, y))
        assert_element(a - b, alg, ref_add(x, ref_scale(y, -1)))
        assert_element(-a, alg, ref_scale(x, -1))
        assert_element(a * b, alg, ref_mul(x, y, product))
        assert_element(b * a, alg, ref_mul(x, y, product))
        n = rng.choice((0, 1, -1, 2, -7))
        assert_element(a * n, alg, ref_scale(x, n))
        assert_element(n * a, alg, ref_scale(x, n))
        assert_element(a + n, alg, ref_add(x, {0: n}))
        k = rng.randrange(5)
        assert_element(a**k, alg, ref_power(x, k, unit, lambda u, v: ref_mul(u, v, product)))
        assert (dict(a.coeffs), dict(b.coeffs)) == before
    assert (alg.basis_element(alg.names[-1]) - alg.basis_element(alg.names[-1])).is_zero()


@pytest.mark.parametrize("name,build,product", algebras(), ids=[a[0] for a in algebras()])
def test_combine_matches_dict_reference(name, build, product):
    rng = random.Random(23)
    alg, twin = build(), build()
    keys = list(range(len(alg.names)))
    for _ in range(100):
        terms, want = [], {}
        for _ in range(rng.randrange(5)):
            n = rng.choice((1, -1, 2, 3))
            x, y = random_coeffs(rng, keys), random_coeffs(rng, keys)
            b = rng.choice((None, AlgebraElement(twin, y)))
            terms.append((n, AlgebraElement(alg, x), b))
            x = clean(x)
            want = ref_add(want, ref_scale(x if b is None else ref_mul(x, clean(y), product), n))
        assert_element(alg.combine(terms), alg, want)
        # a term and its negative cancel to the shared zero
        assert alg.combine(terms + [(-n, a, b) for n, a, b in terms]) is alg.zero()
    other = tb.make_free_truncated([("z", 1)], 1)
    with pytest.raises(ValueError):
        alg.combine([(1, alg.one(), other.one())])


def ref_poly_mul(p, q):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p.items(), q.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def assert_poly(p, num_vars, want):
    assert isinstance(p, Polynomial) and p.num_vars == num_vars
    assert p.terms == want and 0 not in p.terms.values()
    assert all(type(e) is tuple for e in p.terms)
    assert p == Polynomial(num_vars, want) and hash(p) == hash(Polynomial(num_vars, want))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_polynomial_arithmetic_matches_dict_reference(num_vars):
    rng = random.Random(29 + num_vars)
    exps = list(itertools.product(range(3), repeat=num_vars))
    one = {(0,) * num_vars: 1}
    for _ in range(300):
        x = random_coeffs(rng, exps)
        y = rng.choice([random_coeffs(rng, exps), ref_scale(x, -1), {}, one])
        p, q = Polynomial(num_vars, x), Polynomial(num_vars, y)
        x, y = clean(x), clean(y)
        before = (dict(p.terms), dict(q.terms))
        assert_poly(p + q, num_vars, ref_add(x, y))
        assert_poly(p - q, num_vars, ref_add(x, ref_scale(y, -1)))
        assert_poly(-p, num_vars, ref_scale(x, -1))
        assert_poly(p * q, num_vars, ref_poly_mul(x, y))
        n = rng.choice((0, 1, -1, 3))
        assert_poly(p * n, num_vars, ref_scale(x, n))
        assert_poly(n * p, num_vars, ref_scale(x, n))
        assert_poly(p + n, num_vars, ref_add(x, {(0,) * num_vars: n}))
        assert_poly(n - p, num_vars, ref_add(ref_scale(x, -1), {(0,) * num_vars: n}))
        k = rng.randrange(4)
        assert_poly(p**k, num_vars, ref_power(x, k, one, ref_poly_mul))
        pairs = [(p, q), (q, p), (p, p)]
        want = ref_add(ref_add(ref_poly_mul(x, y), ref_poly_mul(y, x)), ref_poly_mul(x, x))
        assert_poly(sum_of_products(num_vars, pairs), num_vars, want)
        assert (dict(p.terms), dict(q.terms)) == before


def test_shared_values_stay_unchanged():
    # an algebra keeps one zero and one unit, and arithmetic returns them, or
    # an operand itself, on its fast paths; none of them may change after
    for _name, build, _product in algebras():
        alg = build()
        zero, one = alg.zero(), alg.one()
        assert alg.zero() is zero and alg.one() is one
        a = alg.basis_element(alg.names[1]) * 3 - alg.basis_element(alg.names[-1])
        a_coeffs = dict(a.coeffs)
        assert a + zero is a and zero + a is a and a - zero is a and a + 0 is a
        assert a * 1 is a and a * one is a and one * a is a
        assert a * 0 is zero and a * zero is zero and zero * a is zero and -zero is zero
        assert alg.combine([]) is zero and alg.combine([(1, a, None), (-1, a, None)]) is zero
        # build further values from the returned ones, as sums in a weight do
        s = (a + zero) + a
        s = s - (one * a) * 2
        t = (a * one) * (a + 0) + a**2 + one**5 + zero**3
        assert s.is_zero() and t == a * a * 2 + one
        assert a.coeffs == a_coeffs
        assert zero.coeffs == {} and one.coeffs == {0: 1}
    x = Polynomial.variable(2, 0) * 2 + Polynomial.variable(2, 1)
    x_terms = dict(x.terms)
    z = Polynomial.zero(2)
    assert x + z is x and z + x is x and x - z is x and x * 1 is x and x + 0 is x
    y = (x + z) + x
    y = y - x * 2 + z * x - x * 0
    assert y.is_zero() and x.terms == x_terms and z.terms == {}
    assert x.compose([Polynomial.variable(1, 0)] * 2) == Polynomial.variable(1, 0) * 3
    assert x.terms == x_terms


def test_weights_leave_shared_values_unchanged():
    # a whole pp_to_mw, balancing check and product on (P^1)^3 leaves the
    # algebra's zero and unit as they were
    fan = p1_cubed_fan()
    alg = tb.make_free_truncated([("a1", 1), ("a2", 1)], 2)
    a1, a2 = alg.basis_element("a1"), alg.basis_element("a2")
    mix = tb.MixingMap(alg, [a1, a2, a1 - a2])
    zero, one = alg.zero(), alg.one()
    courant = [pl_function(fan, [int(i == k) for i in range(6)]) for k in range(6)]
    W = tb.pp_to_mw(courant[0] * courant[2], mix)
    assert tb.check_balancing(W).ok
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    tb.mw_product(tb.pp_to_mw(courant[4], mix), W, v)
    assert alg.zero() is zero and alg.one() is one
    assert zero.coeffs == {} and one.coeffs == {0: 1}
    assert a1.coeffs == {1: 1} and a2.coeffs == {2: 1}
