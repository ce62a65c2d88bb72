"""Exact rational polyhedra with Fourier-Motzkin elimination.

A polyhedron is stored as a system of inequalities sum(a_i x_i) >= b
(strict rows use > and only arise internally).  Emptiness and dimension
are decided exactly over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from .lattice import rational_rank


def _normalize_row(coeffs, rhs, strict):
    """Scale by a positive rational so entries are coprime integers."""
    denoms = [c.denominator for c in coeffs] + [rhs.denominator]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in coeffs] + [int(rhs * lcm)]
    g = 0
    for a in ints:
        g = gcd(g, a)
    if g > 1:
        ints = [a // g for a in ints]
    return (tuple(Fraction(a) for a in ints[:-1]), Fraction(ints[-1]), strict)


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
