"""Fourier-Motzkin emptiness and dimension on known systems."""

from fractions import Fraction

from fm_oracle import Polyhedron


def test_single_point():
    # x >= 0, -x >= 0, y >= 1, -y >= -1 pins (0, 1)
    p = Polyhedron(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), -1)])
    assert not p.is_empty
    assert p.dim == 0
    assert p.is_single_point


def test_empty():
    p = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    assert p.is_empty
    assert p.dim == -1


def test_halfplane():
    p = Polyhedron(2, [((1, 0), 0)])
    assert p.dim == 2


def test_segment():
    p = Polyhedron(2, [((1, 0), 0), ((-1, 0), -1)], equalities=[((0, 1), 0)])
    assert p.dim == 1


def test_line_from_equalities():
    p = Polyhedron(2, equalities=[((1, -1), 0)])
    assert p.dim == 1


def test_rational_data():
    p = Polyhedron(
        2,
        [((Fraction(1, 2), 0), Fraction(1, 3)), ((-1, 0), -1)],
        equalities=[((0, 1), Fraction(5, 7))],
    )
    assert not p.is_empty
    assert p.dim == 1


def test_zero_rank_polyhedron():
    assert Polyhedron(0).dim == 0
    assert Polyhedron(0, [((), 1)]).is_empty


def test_implicit_equality_detection():
    # x + y >= 0 and -x - y >= 0 force the line x + y = 0
    p = Polyhedron(2, [((1, 1), 0), ((-1, -1), 0), ((1, 0), -5)])
    assert p.dim == 1
