"""Fourier-Motzkin elimination: the test oracle for fan validation,
genericity and displacement pairs.

A polyhedron is stored as a system of inequalities sum(a_i x_i) >= b
(strict rows use > and only arise internally).  Emptiness and dimension
are decided exactly, on rows scaled to coprime integers.  torbun decides
these questions by lattice algebra; the tests compare its answers with the
ones here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from torbun.lattice import dot, rational_rank


def _normalize_row(coeffs, rhs, strict):
    """Scale by a positive rational so entries are coprime integers."""
    entries = [*coeffs, rhs]
    if not all(type(a) is int for a in entries):
        entries = [Fraction(a) for a in entries]
        d = lcm(*(a.denominator for a in entries))
        entries = [a.numerator * (d // a.denominator) for a in entries]
    g = gcd(*entries)
    if g > 1:
        entries = [a // g for a in entries]
    return (tuple(entries[:-1]), entries[-1], strict)


def _eliminate(rows, var):
    pos, neg, zero = [], [], []
    for row in rows:
        c = row[0][var]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            zero.append(row)
    out = set(zero)
    for (ca, ba, sa) in pos:
        for (cb, bb, sb) in neg:
            a = ca[var]
            c = cb[var]
            coeffs = tuple(-c * x + a * y for x, y in zip(ca, cb))
            rhs = -c * ba + a * bb
            out.add(_normalize_row(list(coeffs), rhs, sa or sb))
    return list(out)


def _feasible(rows, n) -> bool:
    rows = [_normalize_row(list(c), b, s) for c, b, s in rows]
    for var in range(n):
        rows = _eliminate(rows, var)
    for coeffs, rhs, strict in rows:
        if strict:
            if rhs >= 0:
                return False
        else:
            if rhs > 0:
                return False
    return True


class Polyhedron:
    """Intersection of rational halfspaces {x : A x >= b}."""

    def __init__(self, ambient_rank, inequalities=(), equalities=()):
        self.ambient_rank = ambient_rank
        rows = []
        for coeffs, rhs in inequalities:
            rows.append((tuple(Fraction(c) for c in coeffs), Fraction(rhs), False))
        for coeffs, rhs in equalities:
            cf = tuple(Fraction(c) for c in coeffs)
            rows.append((cf, Fraction(rhs), False))
            rows.append((tuple(-c for c in cf), Fraction(-rhs), False))
        self.rows = tuple(_normalize_row(list(c), b, s) for c, b, s in rows)

    @cached_property
    def is_empty(self) -> bool:
        return not _feasible(list(self.rows), self.ambient_rank)

    @cached_property
    def dim(self) -> int:
        """Dimension of the polyhedron; -1 when empty."""
        if self.is_empty:
            return -1
        implicit = []
        for i, (coeffs, rhs, _strict) in enumerate(self.rows):
            trial = [r for j, r in enumerate(self.rows) if j != i]
            trial.append((coeffs, rhs, True))
            if not _feasible(trial, self.ambient_rank):
                implicit.append(coeffs)
        if not implicit:
            return self.ambient_rank
        return self.ambient_rank - rational_rank(implicit)

    @property
    def is_single_point(self) -> bool:
        return self.dim == 0


# ---------------------------------------------------------------------------
# cones and fans


def _cone_pair_polyhedron(c1, c2, shift=None) -> Polyhedron:
    n = c1.ambient_rank
    shift = shift or (0,) * n
    ineqs = [(u, 0) for u in c1.facet_normals]
    eqs = [(w, 0) for w in c1.span_normals]
    ineqs += [(u, dot(u, shift)) for u in c2.facet_normals]
    eqs += [(w, dot(w, shift)) for w in c2.span_normals]
    return Polyhedron(n, ineqs, eqs)


def cone_shift_intersect(sigma1, sigma2, v) -> Polyhedron:
    """The polyhedron sigma1 intersect (sigma2 + v), by Fourier-Motzkin."""
    if sigma1.ambient_rank != sigma2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return _cone_pair_polyhedron(sigma1, sigma2, tuple(v))


def single_point_pairs(fan, v):
    """Ordered cone pairs whose shifted intersection is a single point."""
    v = tuple(v)
    return [(s1, s2) for s1 in fan.cones for s2 in fan.cones if cone_shift_intersect(s1, s2, v).dim == 0]


def _contained_in_cone(c1, c2, target) -> bool:
    """Exact check that c1 intersect c2 is contained in target."""
    base = _cone_pair_polyhedron(c1, c2)
    n = c1.ambient_rank
    checks = []
    for u in target.facet_normals:
        checks.append([(tuple(-a for a in u), 1)])
    for w in target.span_normals:
        checks.append([(w, 1)])
        checks.append([(tuple(-a for a in w), 1)])
    for extra in checks:
        ineqs = [(c, b) for (c, b, _s) in base.rows] + extra
        if not Polyhedron(n, ineqs).is_empty:
            return False
    return True
