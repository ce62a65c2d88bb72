"""Generated benchmark inputs: fibre fans, bases, changes of basis, and
piecewise linear functions, built through torbun's public API.

Every bundle here is described by plain data (rays, maximal cones by ray
index, a base algebra and a mixing matrix), so the same description can be
rebuilt under a lattice change of basis without sharing any memo entry with
the untransformed bundle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import torbun as tb


@dataclass(frozen=True)
class BundleSpec:
    """Plain-data description of a toric variety bundle."""

    name: str
    rank: int
    rays: tuple  # primitive integer vectors
    cones: tuple  # maximal cones as ray-index tuples
    base: tuple  # ("projective", dim) | ("free_truncated", gens, top) | ("point",)
    mixing: tuple  # one row per lattice coordinate, on the degree-one basis

    def transformed(self, matrix) -> "BundleSpec":
        """The same bundle in the basis given by a unimodular matrix A: rays
        map to A r and the mixing matrix to A M, so every ray-indexed weight
        table is unchanged."""
        rays = tuple(mat_vec(matrix, r) for r in self.rays)
        columns = list(zip(*self.mixing))
        mixing = tuple(tuple(mat_vec(columns, row)) for row in matrix)
        return BundleSpec(self.name, self.rank, rays, self.cones, self.base, mixing)


def mat_vec(matrix, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)


def p1_power(n: int, mixing) -> BundleSpec:
    """(P^1)^n over P^1: rays +-e_i, one maximal cone per orthant."""
    rays = []
    for i in range(n):
        for s in (1, -1):
            rays.append(tuple(s * int(k == i) for k in range(n)))
    cones = tuple(tuple(2 * i + s for i, s in enumerate(signs)) for signs in itertools.product((0, 1), repeat=n))
    return BundleSpec(f"p1^{n}", n, tuple(rays), cones, ("projective", 1), tuple(map(tuple, mixing)))


def projective_space(n: int, mixing) -> BundleSpec:
    """P^n over P^1: rays e_1..e_n and -(e_1+...+e_n)."""
    rays = [tuple(int(k == i) for k in range(n)) for i in range(n)] + [(-1,) * n]
    cones = tuple(itertools.combinations(range(n + 1), n))
    return BundleSpec(f"p{n}", n, tuple(rays), cones, ("projective", 1), tuple(map(tuple, mixing)))


def cube_fan(mixing) -> BundleSpec:
    """Face fan of the cube [-1,1]^3 over P^1: eight rays (+-1,+-1,+-1) and
    six non-simplicial maximal cones, one over each square face."""
    rays = tuple(itertools.product((1, -1), repeat=3))
    cones = tuple(
        tuple(k for k, r in enumerate(rays) if r[i] == s) for i in range(3) for s in (1, -1)
    )
    return BundleSpec("cube", 3, rays, cones, ("projective", 1), tuple(map(tuple, mixing)))


F1 = BundleSpec(
    "f1",
    2,
    ((1, 0), (1, 1), (0, 1), (-1, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 0)),
    ("free_truncated", (("a1", 1), ("a2", 1)), 4),
    ((1, 0), (0, 1)),
)

SINGULAR = BundleSpec(
    "singular_fan",
    2,
    ((1, 0), (1, 2), (-1, 0), (0, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 0)),
    ("point",),
    ((), ()),
)


@dataclass
class Bundle:
    """A bundle built by torbun from a BundleSpec."""

    spec: BundleSpec
    fan: object
    algebra: object
    mixing: object


def build_algebra(base):
    kind = base[0]
    if kind == "projective":
        return tb.projective_space_algebra(base[1], "h")
    if kind == "free_truncated":
        return tb.make_free_truncated(list(base[1]), base[2])
    return tb.point_algebra()


def build_mixing(algebra, rows):
    degree_one = algebra.basis_of_degree(1)
    images = [tb.AlgebraElement(algebra, dict(zip(degree_one, row))) for row in rows]
    return tb.MixingMap(algebra, images)


def build_bundle(spec: BundleSpec) -> Bundle:
    """Build the fan (validated), the base ring and the twisting map."""
    fan = tb.fan_from_ray_lists(spec.rank, spec.rays, spec.cones)
    algebra = build_algebra(spec.base)
    return Bundle(spec, fan, algebra, build_mixing(algebra, spec.mixing))


# ---------------------------------------------------------------------------
# piecewise linear functions from values on rays


def _solve(rows, rhs):
    """The unique x with rows . x = rhs (rows span the ambient space), or
    None when the system is inconsistent."""
    n = len(rows[0])
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [a / pv for a in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != n or any(row[n] != 0 for row in aug[r:]):
        return None
    return [aug[i][n] for i in range(n)]


def pl_function(bundle: Bundle, ray_values):
    """The degree-one piecewise polynomial taking the given values on the
    rays, scaled by the least positive integer that makes every piece
    integral.  Raises ValueError when the values are not piecewise linear on
    the fan (a non-simplicial cone whose rays disagree)."""
    fan = bundle.fan
    spec = bundle.spec
    forms = {}
    for cone_ix in spec.cones:
        rows = [spec.rays[i] for i in cone_ix]
        form = _solve(rows, [ray_values[i] for i in cone_ix])
        if form is None:
            raise ValueError(f"ray values are not linear on cone {cone_ix}")
        forms[cone_ix] = form
    scale = lcm(*(c.denominator for form in forms.values() for c in form))
    pieces = {
        fan.cone_by_ray_indices(ix): tb.Polynomial.linear_form([int(c * scale) for c in form])
        for ix, form in forms.items()
    }
    return tb.PiecewisePolynomial(fan, 1, pieces)


def weight_table(bundle: Bundle, weight) -> dict:
    """Ray-indexed table of a Minkowski weight: cone key -> rendered class."""
    fan = bundle.fan
    return {
        ",".join(map(str, fan.cone_key(c))): v.render()
        for c, v in sorted(weight.values.items(), key=lambda kv: fan.cone_sort_key(kv[0]))
    }
