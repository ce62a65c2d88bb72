"""Graded base rings and the twisting map."""

import random
from math import comb

import pytest

import torbun as tb
from torbun.polynomials import Polynomial


def test_free_truncated_basis_sizes(base_algebra):
    # degree-k monomials in g degree-one generators: C(k + g - 1, g - 1)
    for k in range(5):
        assert len(base_algebra.basis_of_degree(k)) == comb(k + 1, 1)


def test_free_truncated_degree_two_basis(base_algebra):
    names = {base_algebra.names[i] for i in base_algebra.basis_of_degree(2)}
    assert names == {"a1^2", "a1*a2", "a2^2"}


def test_point_algebra():
    pt = tb.point_algebra()
    assert pt.names == ("1",)
    assert pt.one() * pt.one() == pt.one()


def test_projective_space_truncation():
    p2 = tb.projective_space_algebra(2)
    h = p2.basis_element("h")
    assert not (h * h).is_zero()
    assert (h * h * h).is_zero()
    assert (h ** 2) * h == p2.zero()


def test_unit_and_products(base_algebra, a1, a2):
    one = base_algebra.one()
    assert one * a1 == a1
    assert a2 * (a1 - a2) == a1 * a2 - a2 * a2
    assert (a1 ** 5).is_zero()


def test_elements_of_equal_algebra_objects_combine():
    # algebras are compared by identity first, then by value: elements of
    # two distinct but equal algebra objects still add and multiply, and
    # elements of different algebras do not
    A = tb.make_free_truncated([("a1", 1), ("a2", 1)], 4)
    B = tb.make_free_truncated([("a1", 1), ("a2", 1)], 4)
    assert A is not B and A == B and A == A
    a1, b2 = A.basis_element("a1"), B.basis_element("a2")
    assert a1 + b2 == A.basis_element("a1") + A.basis_element("a2")
    assert a1 * b2 == A.basis_element("a1*a2") and b2 - a1 == -(a1 - b2)
    other = tb.make_free_truncated([("a1", 1), ("a2", 1)], 3)
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError):
            getattr(a1, op)(other.basis_element("a2"))


def test_rejects_broken_tables():
    # b*b = 1 drops degree, so the table is not graded
    with pytest.raises(ValueError):
        tb.GradedAlgebra(
            ("1", "b"), (0, 1), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}, 1
        )
    # (a*b)*b = e but a*(b*b) = 0, so this table is not associative
    with pytest.raises(ValueError):
        tb.GradedAlgebra(
            ("1", "a", "b", "c", "e"),
            (0, 1, 1, 2, 3),
            {
                (0, 0): {0: 1},
                (0, 1): {1: 1},
                (0, 2): {2: 1},
                (0, 3): {3: 1},
                (0, 4): {4: 1},
                (1, 1): {},
                (1, 2): {3: 1},
                (2, 2): {},
                (1, 3): {},
                (2, 3): {4: 1},
            },
            3,
        )


def test_delta(mixing, a1, a2):
    assert mixing.delta((0, 1)) == a2
    assert mixing.delta((0, 0)).is_zero()
    assert mixing.delta((1, -1)) == a1 - a2


def test_delta_extend_examples(mixing, a1, a2):
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert mixing.delta_extend(x2 * x2) == a2 * a2
    assert mixing.delta_extend(Polynomial.constant(2, -1)) == -mixing.algebra.one()
    assert mixing.delta_extend(-x1 - x2) == -a1 - a2


def test_delta_extend_multiplicative(mixing):
    rng = random.Random(3)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    pool = [x1, x2, x1 + x2, x1 - 2 * x2, x1 * x2 + x2 * x2, Polynomial.constant(2, 3)]
    for _ in range(20):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        assert mixing.delta_extend(f * g) == mixing.delta_extend(f) * mixing.delta_extend(g)


def test_delta_extend_restricts_to_delta(mixing):
    for m in [(1, 0), (0, 1), (2, -3)]:
        assert mixing.delta_extend(Polynomial.linear_form(m)) == mixing.delta(m)


def test_homogeneous_parts(base_algebra, a1, a2):
    el = a1 + a1 * a2
    assert el.degrees() == [1, 2]
    assert not el.is_homogeneous_of(1) and not el.is_homogeneous_of(2)
    assert (el - a1 * a2).is_homogeneous_of(1)
    assert (el - a1).is_homogeneous_of(2)
    assert not el.is_homogeneous()
