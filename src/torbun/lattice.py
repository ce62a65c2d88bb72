"""Exact integer lattice linear algebra.

All arithmetic is over plain Python ints (arbitrary precision) and
fractions.Fraction; there is no floating point anywhere.  Vectors are
tuples of ints, matrices are tuples of row tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ZeroVector, check_invariant

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]

# entries kept by the module-level memo of Smith normal forms; bounded so a
# long-running process does not grow with every new fan
MEMO_SIZE = 1024


# ---------------------------------------------------------------------------
# basic vector / matrix helpers


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def is_zero(v) -> bool:
    return all(a == 0 for a in v)


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(M, v) -> Vec:
    return tuple(dot(row, v) for row in M)


def mat_mul(A, B) -> Mat:
    cols = list(zip(*B)) if B else []
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def transpose(A) -> Mat:
    return tuple(zip(*A)) if A else ()


def sign_normalize(v: Vec) -> Vec:
    """Flip the sign so the first nonzero entry is positive."""
    for a in v:
        if a > 0:
            return v
        if a < 0:
            return vec_neg(v)
    return v


def primitive(v: Vec) -> Vec:
    """Divide a nonzero vector by the gcd of its entries."""
    if is_zero(v):
        raise ZeroVector("cannot take the primitive vector of 0")
    g = 0
    for a in v:
        g = gcd(g, a)
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# Smith normal form with transforms


@dataclass(frozen=True)
class SNF:
    S: Mat
    U: Mat
    V: Mat
    Vinv: Mat

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.S[0]) if self.S else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _snf_ext(A) -> SNF:
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    def col_sub(j, k, q):
        # column j -= q * column k
        for r in range(m):
            S[r][j] -= q * S[r][k]
        for r in range(n):
            V[r][j] -= q * V[r][k]
        Vi[k] = [a + q * b for a, b in zip(Vi[k], Vi[j])]

    def col_swap(j, k):
        for r in range(m):
            S[r][j], S[r][k] = S[r][k], S[r][j]
        for r in range(n):
            V[r][j], V[r][k] = V[r][k], V[r][j]
        Vi[j], Vi[k] = Vi[k], Vi[j]

    def clear_at(t):
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = S[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best is None:
            return False
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            for i in range(t + 1, m):
                while S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_sub(i, t, q)
                    if S[i][t] != 0:
                        row_swap(i, t)
            for j in range(t + 1, n):
                while S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_sub(j, t, q)
                    if S[t][j] != 0:
                        col_swap(j, t)
            if all(S[i][t] == 0 for i in range(t + 1, m)) and all(
                S[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        return True

    t = 0
    while t < min(m, n):
        if not clear_at(t):
            break
        t += 1
    r = sum(1 for i in range(min(m, n)) if S[i][i] != 0)

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            a, b = S[t][t], S[t + 1][t + 1]
            if b % a != 0:
                col_sub(t, t + 1, -1)  # col t += col t+1, so S[t+1][t] = b
                clear_at(t)
                clear_at(t + 1)
                changed = True

    for t in range(r):
        if S[t][t] < 0:
            row_neg(t)

    return SNF(
        S=tuple(tuple(row) for row in S),
        U=tuple(tuple(row) for row in U),
        V=tuple(tuple(row) for row in V),
        Vinv=tuple(tuple(row) for row in Vi),
    )


@lru_cache(maxsize=MEMO_SIZE)
def _snf_cached(A: Mat) -> SNF:
    result = _snf_ext(A)
    # postconditions are cheap at desk scale, so always check them
    m = len(A)
    n = len(A[0]) if m else 0
    check_invariant(mat_mul(mat_mul(result.U, A), result.V) == result.S, "Smith normal form: U A V != S")
    check_invariant(lattice_index(m, result.U) == 1, "Smith normal form: U is not unimodular")
    check_invariant(mat_mul(result.V, result.Vinv) == identity_matrix(n), "Smith normal form: V Vinv != 1")
    return result


def snf(A) -> SNF:
    return _snf_cached(tuple(tuple(row) for row in A))


def smith_normal_form(A) -> tuple[Mat, Mat, Mat]:
    """Return (S, U, V) with U A V = S, U and V unimodular, S diagonal
    with nonnegative entries satisfying d_i | d_{i+1}."""
    r = snf(A)
    return r.S, r.U, r.V


# ---------------------------------------------------------------------------
# rational Gaussian elimination, carried out on integer rows


def _integer_row(row) -> list:
    """The row as ints: a row with a Fraction entry is scaled by the lcm of
    its denominators."""
    if all(type(a) is int for a in row):
        return list(row)
    row = [Fraction(a) for a in row]
    d = lcm(*(a.denominator for a in row))
    return [a.numerator * (d // a.denominator) for a in row]


def _content_free(row: list) -> list:
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _rref(rows):
    """Reduced row echelon form over Q, eliminated fraction-free.

    Returns (rows, pivots): one integer row per pivot column, its entries
    coprime and its pivot positive.  Row i divided by its entry at
    pivots[i] is row i of the reduced row echelon form, which is unique.
    Every intermediate row is divided by the gcd of its entries.
    """
    rows = [_content_free(_integer_row(row)) for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _content_free([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    out = []
    for row, c in zip(rows, pivots):
        out.append(row if row[c] > 0 else [-a for a in row])
    return out, pivots


def rational_rank(rows) -> int:
    return len(_rref(rows)[1])


def solve_scaled(A_rows, b):
    """One solution of A x = b as (X, d): integers X and d > 0 with x = X / d,
    or None if inconsistent."""
    n = len(A_rows[0]) if A_rows else 0
    rows, pivots = _rref([list(A_rows[i]) + [b[i]] for i in range(len(A_rows))])
    if n in pivots:
        return None
    d = lcm(*(row[c] for row, c in zip(rows, pivots)))
    X = [0] * n
    for row, c in zip(rows, pivots):
        X[c] = row[n] * (d // row[c])
    return X, d


def _perp(ambient_rank: int, rows, pivots):
    """Primitive integer vectors spanning the perp of an echelon form's rows,
    one per free column."""
    d = lcm(*(row[c] for row, c in zip(rows, pivots)))
    normals = []
    for f in range(ambient_rank):
        if f in pivots:
            continue
        m = [0] * ambient_rank
        m[f] = d
        for row, c in zip(rows, pivots):
            m[c] = -row[f] * (d // row[c])
        normals.append(primitive(tuple(m)))
    return tuple(normals)


def rational_kernel(ambient_rank: int, rows):
    """Primitive integer vectors spanning {x : <row, x> = 0 for every row}
    over Q (not a lattice basis); empty when the rows have full rank."""
    return _perp(ambient_rank, *_rref(rows))


def invert_rational(A_rows):
    """Inverse of a square matrix over Fraction, or None if singular."""
    n = len(A_rows)
    rows, pivots = _rref([list(A_rows[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [[Fraction(a, row[i]) for a in row[n:]] for i, row in enumerate(rows)]


def dual_basis(rows) -> list:
    """For a basis of Q^n given as rows, the rational vectors pairing to 1
    with one row and to 0 with the others, in row order: the columns of the
    inverse."""
    inv = invert_rational(rows)
    check_invariant(inv is not None, "dual basis of linearly dependent vectors")
    return [tuple(row[j] for row in inv) for j in range(len(inv))]


# ---------------------------------------------------------------------------
# sublattices


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^n given by a Z-linearly independent basis."""

    ambient_rank: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_rank:
                raise ValueError("basis vector has wrong length")
        if self.basis and snf(self.basis).rank != len(self.basis):
            raise ValueError("basis vectors are not linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        """Integral membership test."""
        if self.rank == 0:
            return is_zero(v)
        return _solve_integer(self.basis, tuple(v)) is not None

    def same_lattice(self, other: "Sublattice") -> bool:
        return (
            self.ambient_rank == other.ambient_rank
            and self.rank == other.rank
            and all(other.contains(v) for v in self.basis)
            and all(self.contains(v) for v in other.basis)
        )


def zero_sublattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, ())


def full_sublattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, identity_matrix(ambient_rank))


def saturated_span(ambient_rank: int, generators) -> Sublattice:
    """The saturated sublattice containing the span of the generators."""
    gens = tuple(tuple(v) for v in generators)
    if not gens:
        return zero_sublattice(ambient_rank)
    r = snf(gens)
    basis = tuple(tuple(r.Vinv[i]) for i in range(r.rank))
    return Sublattice(ambient_rank, basis)


def saturation(L: Sublattice) -> Sublattice:
    """Basis of {x : k*x in span(L) for some k >= 1}."""
    return saturated_span(L.ambient_rank, L.basis)


def is_saturated(L: Sublattice) -> bool:
    if not L.basis:
        return True
    r = snf(L.basis)
    return all(d == 1 for d in r.diagonal[: r.rank])


class LatticeIndex(Enum):
    INFINITE = "infinite"


INFINITE = LatticeIndex.INFINITE


def lattice_index(ambient_rank: int, generators):
    """Index of the subgroup generated by `generators` in Z^n (or INFINITE).

    Column by column, extended-gcd row steps (Euclid run on whole rows, so
    every step is unimodular) leave one row whose entry there is the gcd of
    the column's remaining entries.  That row is the column's pivot, and the
    other rows go on with zeros up to that column.  This integer echelon
    form generates the same subgroup; it has full rank iff every column
    gets a pivot, and the index is then the product of the pivots' sizes.
    """
    rows = [list(v) for v in generators]
    out = 1
    for c in range(ambient_rank):
        live = [row for row in rows if row[c]]
        rows = [row for row in rows if not row[c]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            live = [p] + [[a - (row[c] // p[c]) * b for a, b in zip(row, p)] for row in live if row is not p]
            rows += [row for row in live if not row[c]]
            live = [row for row in live if row[c]]
        if not live:
            return INFINITE
        out *= abs(live[0][c])
    return out


def perp_basis(L: Sublattice):
    """Basis of {m : <m, v> = 0 for all v in L}; saturated by construction."""
    n = L.ambient_rank
    if not L.basis:
        return [tuple(row) for row in identity_matrix(n)]
    r = snf(L.basis)
    out = []
    for j in range(r.rank, n):
        col = tuple(r.V[row][j] for row in range(n))
        out.append(sign_normalize(col))
    return out


def _solve_integer(B, target):
    """One integer solution y of y . B = target (rows B), or None."""
    r = snf(B)
    g = len(B)
    w = len(target)
    t = tuple(dot(target, tuple(r.V[row][j] for row in range(w))) for j in range(w))
    z = []
    for i in range(g):
        d = r.S[i][i] if i < min(g, w) else 0
        ti = t[i] if i < w else 0
        if d == 0:
            if ti != 0:
                return None
            z.append(0)
        else:
            if ti % d != 0:
                return None
            z.append(ti // d)
    for i in range(g, w):
        if t[i] != 0:
            return None
    y = mat_vec(transpose(r.U), tuple(z))  # y = z . U
    return y
