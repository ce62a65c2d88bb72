"""Shared fixtures: the Hirzebruch-surface bundle example and friends."""

import itertools
from pathlib import Path

import pytest

import torbun as tb

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F1_RAYS = [(1, 0), (1, 1), (0, 1), (-1, -1)]
F1_MAX_CONES = [(0, 1), (1, 2), (2, 3), (3, 0)]


@pytest.fixture(scope="session")
def f1_fan():
    return tb.fan_from_ray_lists(2, F1_RAYS, F1_MAX_CONES)


@pytest.fixture(scope="session")
def base_algebra():
    return tb.make_free_truncated([("a1", 1), ("a2", 1)], 4)


@pytest.fixture(scope="session")
def mixing(base_algebra):
    return tb.MixingMap(
        base_algebra,
        [base_algebra.basis_element("a1"), base_algebra.basis_element("a2")],
    )


@pytest.fixture(scope="session")
def a1(base_algebra):
    return base_algebra.basis_element("a1")


@pytest.fixture(scope="session")
def a2(base_algebra):
    return base_algebra.basis_element("a2")


@pytest.fixture(scope="session")
def p1p1_fan():
    return tb.fan_from_ray_lists(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (2, 1), (1, 3), (3, 0)]
    )


@pytest.fixture(scope="session")
def p1_fan():
    return tb.fan_from_ray_lists(1, [(1,), (-1,)], [(0,), (1,)])


def f1_cone(fan, indices):
    return fan.cone_by_ray_indices(indices)


def shear(rays, i, j, s):
    """The rays under the coordinate change x_i += s * x_j."""
    return [tuple(a + s * r[j] if k == i else a for k, a in enumerate(r)) for r in rays]


P1_CUBED_RAYS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def p1_cubed_fan(rays=P1_CUBED_RAYS):
    """(P^1)^3, or the same cones on sheared rays."""
    return tb.fan_from_ray_lists(3, rays, list(itertools.product((0, 1), (2, 3), (4, 5))))


def p1_fourth_fan():
    rays = [tuple(s * int(k == i) for k in range(4)) for i in range(4) for s in (1, -1)]
    return tb.fan_from_ray_lists(4, rays, list(itertools.product((0, 1), (2, 3), (4, 5), (6, 7))))


def projective_space_rays(n):
    return [tuple(int(k == i) for k in range(n)) for i in range(n)] + [(-1,) * n]


def projective_space_fan(n, rays=None):
    """P^n on the rays e_1..e_n, -(e_1+...+e_n), or the same cones on sheared rays."""
    return tb.fan_from_ray_lists(n, rays or projective_space_rays(n), list(itertools.combinations(range(n + 1), n)))


def cube_fan(shear=0):
    """Face fan of the cube [-1,1]^3, under the coordinate change x1 += shear * x2."""
    corners = list(itertools.product((1, -1), repeat=3))
    return tb.fan_from_ray_lists(
        3,
        [(a + shear * b, b, c) for a, b, c in corners],
        [[i for i, r in enumerate(corners) if r[k] == sign] for k in range(3) for sign in (1, -1)],
    )
