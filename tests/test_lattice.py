"""Integer lattice linear algebra, checked against independent oracles."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torbun as tb
from torbun.lattice import (
    _solve_integer,
    dot,
    identity_matrix,
    is_saturated,
    mat_mul,
    smith_normal_form,
    solve_scaled,
)

from quotient_oracle import normal_generator, quotient_map


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def in_lattice(basis, v):
    """Membership via rational solve plus integrality (independent of SNF)."""
    if not basis:
        return all(c == 0 for c in v)
    cols = [[b[i] for b in basis] for i in range(len(v))]
    sol = solve_scaled(cols, v)
    if sol is None:
        return False
    # rational solve gives one solution; for independent basis it is unique
    X, d = sol
    return all(c % d == 0 for c in X)


def coset_count(gens, bound):
    """Brute-force count of cosets of span(gens) met by the box [0, bound)^n."""
    n = len(gens[0])
    points = []
    stack = [()]
    while stack:
        p = stack.pop()
        if len(p) == n:
            points.append(p)
        else:
            stack.extend(p + (i,) for i in range(bound))
    reps = []
    for p in points:
        if not any(in_lattice(gens, tuple(a - b for a, b in zip(p, r))) for r in reps):
            reps.append(p)
    return len(reps)


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_identity():
    S, U, V = smith_normal_form(identity_matrix(2))
    assert S == identity_matrix(2)
    assert mat_mul(mat_mul(U, identity_matrix(2)), V) == S


def test_snf_hand_example():
    A = ((1, 0), (1, 2))
    S, U, V = smith_normal_form(A)
    assert S == ((1, 0), (0, 2))
    assert mat_mul(mat_mul(U, A), V) == S


def test_snf_zero_matrix():
    A = ((0, 0), (0, 0))
    S, U, V = smith_normal_form(A)
    assert S == ((0, 0), (0, 0))


def test_snf_empty_shapes():
    S, U, V = smith_normal_form(())
    assert S == () and U == () and V == ()


@pytest.mark.parametrize("seed", range(5))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        S, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == S
        diag = [S[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0
            if a == 0:
                assert b == 0
        for i in range(min(m, n)):
            for j in range(min(m, n)):
                if i != j:
                    assert S[i][j] == 0


def test_primitive():
    assert tb.primitive((2, 4)) == (1, 2)
    assert tb.primitive((1, 0)) == (1, 0)
    assert tb.primitive((-3, -6, -9)) == (-1, -2, -3)
    with pytest.raises(tb.ZeroVector):
        tb.primitive((0, 0))


def test_dot():
    assert dot((1, -2, 3), (4, 5, 6)) == 12
    assert dot([1, 2], (Fraction(1, 2), Fraction(1, 4))) == 1
    assert dot((), ()) == 0


@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ([1, 2], [1]), ([], [0]), ([1], ())])
def test_dot_length_mismatch_raises(u, v):
    with pytest.raises(ValueError):
        dot(u, v)


# ---------------------------------------------------------------------------
# saturation / index


def test_saturation_scaling():
    L = tb.Sublattice(2, ((2, 0),))
    sat = tb.saturation(L)
    assert sat.same_lattice(tb.Sublattice(2, ((1, 0),)))


def test_saturation_index_two():
    L = tb.Sublattice(2, ((1, 1), (1, -1)))
    sat = tb.saturation(L)
    assert sat.same_lattice(tb.full_sublattice(2))


def test_saturation_idempotent():
    L = tb.Sublattice(2, ((1, 2),))
    sat = tb.saturation(L)
    assert sat.same_lattice(L)
    assert tb.saturation(sat).same_lattice(sat)


def test_lattice_index_examples():
    assert tb.lattice_index(2, [(1, 0), (0, 1)]) == 1
    assert tb.lattice_index(2, [(1, 0), (1, 2)]) == 2
    assert tb.lattice_index(2, [(1, 1)]) is tb.INFINITE
    assert tb.lattice_index(0, []) == 1


def test_lattice_index_against_coset_oracle():
    cases = [
        [(1, 0), (1, 2)],
        [(1, 1), (1, -1)],
        [(2, 0), (0, 3)],
        [(0, 1), (1, 2)],
    ]
    for gens in cases:
        expected = coset_count(gens, bound=7)
        assert tb.lattice_index(2, gens) == expected
        assert abs(det2(gens)) == expected


def test_lattice_index_matches_smith_form():
    # the echelon-form index against the product of the Smith diagonal, on
    # random generator sets: rank 0-4, 0-7 generators, entries in [-6, 6]
    rng = random.Random(41)
    infinite = 0
    for _ in range(10_000):
        n = rng.randint(0, 4)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        if n == 0:
            want = 1
        elif not gens:
            want = tb.INFINITE
        else:
            S, _U, _V = smith_normal_form(gens)
            diagonal = [S[i][i] for i in range(min(len(gens), n))]
            want = math.prod(diagonal) if len(diagonal) == n and all(diagonal) else tb.INFINITE
        assert tb.lattice_index(n, gens) == want, (n, gens)
        infinite += want is tb.INFINITE
    assert 1000 < infinite < 9000, infinite


@pytest.mark.parametrize("seed", range(3))
def test_index_saturation_decomposition(seed):
    rng = random.Random(100 + seed)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        gens = []
        while True:
            gens = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
            try:
                L = tb.Sublattice(n, tuple(gens))
                break
            except ValueError:
                continue
        sat = tb.saturation(L)
        assert is_saturated(sat)
        assert sat.rank == L.rank
        assert all(sat.contains(v) for v in L.basis)
        if k == n:
            idx = tb.lattice_index(n, gens)
            assert isinstance(idx, int)
            assert tb.lattice_index(n, sat.basis) == 1


# ---------------------------------------------------------------------------
# quotients and perps


def test_quotient_coordinate_kernel():
    q = quotient_map(tb.Sublattice(2, ((1, 0),)))
    assert q.quotient_rank == 1
    assert q.project((5, 7)) == (7,)


def test_quotient_diagonal_kernel():
    q = quotient_map(tb.Sublattice(2, ((1, 1),)))
    assert q.quotient_rank == 1
    assert q.project((1, 1)) == (0,)
    # the projection is x2 - x1 up to unimodular change of the target
    assert abs(q.project((1, 0))[0]) == 1
    assert q.project((1, 0)) == tuple(-c for c in q.project((0, 1)))


def test_quotient_full_kernel():
    q = quotient_map(tb.full_sublattice(2))
    assert q.quotient_rank == 0
    assert q.project((3, 4)) == ()


def test_quotient_rejects_unsaturated():
    with pytest.raises(tb.NotSaturated):
        quotient_map(tb.Sublattice(2, ((2, 0),)))


def test_quotient_surjective_and_kills_kernel():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        sat = tb.saturated_span(n, vecs)
        q = quotient_map(sat)
        for v in sat.basis:
            assert all(c == 0 for c in q.project(v))
        S, _, _ = smith_normal_form(q.projection) if q.projection else ((), (), ())
        for i in range(q.quotient_rank):
            assert S[i][i] == 1
        for i in range(q.quotient_rank):
            e = tuple(int(j == i) for j in range(q.quotient_rank))
            assert q.project(q.lift(e)) == e


def test_perp_basis_examples():
    assert tb.perp_basis(tb.Sublattice(2, ((1, 1),))) == [(1, -1)]
    assert tb.perp_basis(tb.zero_sublattice(2)) == [(1, 0), (0, 1)]
    assert tb.perp_basis(tb.full_sublattice(3)) == []


def test_double_perp_is_saturation():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        L = tb.saturated_span(n, vecs)
        perp = tb.perp_basis(L)
        double = tb.perp_basis(tb.Sublattice(n, tuple(perp)))
        assert tb.Sublattice(n, tuple(double)).same_lattice(L)


# ---------------------------------------------------------------------------
# normal generators


def test_normal_generator_published_values():
    tau2 = tb.Sublattice(2, ((1, 1),))
    full = tb.full_sublattice(2)
    assert normal_generator(tau2, full, (2, 1)) == (1, 0)
    assert normal_generator(tau2, full, (1, 2)) == (0, 1)


def test_normal_generator_ray():
    zero = tb.zero_sublattice(2)
    ray = tb.Sublattice(2, ((1, 0),))
    assert normal_generator(zero, ray, (1, 0)) == (1, 0)
    assert normal_generator(zero, ray, (-1, 0)) == (-1, 0)


def test_normal_generator_rank_gap():
    with pytest.raises(tb.NotCodimOne):
        normal_generator(tb.zero_sublattice(2), tb.full_sublattice(2), (1, 1))


def test_normal_generator_primitive_in_quotient():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 4)
        k = rng.randint(0, n - 1)
        tau = tb.saturated_span(n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)])
        while tau.rank == n:
            tau = tb.saturated_span(
                n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(max(k - 1, 0))]
            )
        extra = tuple(rng.randint(-3, 3) for _ in range(n))
        sigma = tb.saturated_span(n, tau.basis + (extra,))
        if sigma.rank != tau.rank + 1:
            continue
        witness = extra
        q = quotient_map(tau)
        if all(c == 0 for c in q.project(witness)):
            continue
        g = normal_generator(tau, sigma, witness)
        img = q.project(g)
        # g is a lattice point of sigma
        assert sigma.contains(g)
        # the image generates sigma/tau: every projected basis vector is an
        # integer multiple of it
        for v in sigma.basis:
            pv = q.project(v)
            assert _solve_integer((img,), pv) is not None
        # and the image lies on the witness side
        wimg = q.project(witness)
        ratio = next(
            Fraction(a, b) for a, b in zip(wimg, img) if b != 0
        )
        assert ratio > 0


def test_snf_postcondition_is_an_invariant_violation(monkeypatch):
    # a wrong Smith form (here the form of another matrix) must raise, not
    # return, also under python -O where a plain assert would vanish
    real = tb.lattice._snf_ext
    monkeypatch.setattr(tb.lattice, "_snf_ext", lambda A: real(((1, 0), (0, 3))))
    tb.lattice._snf_cached.cache_clear()
    with pytest.raises(tb.InvariantViolation):
        smith_normal_form(((1, 0), (0, 2)))
    tb.lattice._snf_cached.cache_clear()


# a Smith form whose first rows of U and S are doubled: U A V = S still
# holds, but det U = 2
DOUBLED_FIRST_ROW = """
import dataclasses
import torbun as tb
real = tb.lattice._snf_ext

def doubled(A):
    r = real(A)
    S, U = ((tuple(2 * a for a in M[0]),) + M[1:] for M in (r.S, r.U))
    return dataclasses.replace(r, S=S, U=U)

tb.lattice._snf_ext = doubled
try:
    tb.smith_normal_form(((1, 0), (0, 2)))
except tb.InvariantViolation as exc:
    print(exc)
"""


def test_snf_non_unimodular_u_is_an_invariant_violation():
    # U is checked by its index, not by a tracked inverse; the check raises
    # in a process under python -O too
    src = str(Path(tb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", DOUBLED_FIRST_ROW], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "Smith normal form: U is not unimodular\n", ""), flags


# ---------------------------------------------------------------------------
# fraction-free elimination against Fraction Gaussian elimination


def fraction_rref(rows):
    """Reduced row echelon form over Fraction: the elimination torbun used
    before it eliminated on integer rows.  Returns (rows, pivot_cols)."""
    rows = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_kernel(n, generators):
    """Primitive kernel vectors over Q, one per free column, from fraction_rref."""
    rows, pivots = fraction_rref(list(generators))
    normals = []
    for f in range(n):
        if f in pivots:
            continue
        m = [Fraction(0)] * n
        m[f] = Fraction(1)
        for r, c in enumerate(pivots):
            m[c] = -rows[r][f]
        scale = 1
        for x in m:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        normals.append(tb.primitive(tuple(int(x * scale) for x in m)))
    return tuple(normals)


def random_matrix(rng, m, n, fractions):
    """An m x n matrix of small entries; its rank is made deficient half the
    time by replacing a row with a combination of two others."""
    if fractions:
        entry = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    else:
        entry = lambda: rng.choice([0, 0, 1, -1, 2, -3, 5, 12])
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 3 and rng.random() < 0.5:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[rng.randrange(m)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    return rows


def test_fraction_free_rref_matches_fraction_rref():
    rng = random.Random(17)
    shapes = [(0, 0), (1, 0), (0, 3)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(400)]
    ranks = set()
    for i, (m, n) in enumerate(shapes):
        rows = random_matrix(rng, m, n, fractions=i % 3 == 0) if m and n else [[]] * m
        int_rows, pivots = tb.lattice._rref(rows)
        want_rows, want_pivots = fraction_rref(rows)
        assert pivots == want_pivots, rows
        assert [[Fraction(a, row[c]) for a in row] for row, c in zip(int_rows, pivots)] == want_rows[: len(pivots)]
        assert all(not any(row) for row in want_rows[len(pivots):])
        assert all(math.gcd(*row) == 1 and row[c] > 0 for row, c in zip(int_rows, pivots))
        assert tb.lattice.rational_rank(rows) == len(want_pivots)
        ranks.add((len(pivots) < min(m, n), n > 0))
        if n:
            assert tb.lattice.rational_kernel(n, rows) == fraction_kernel(n, rows)
    assert ranks == {(False, True), (True, True), (False, False)}


def test_fraction_free_solve_and_inverse_match():
    rng = random.Random(19)
    solved = inverted = 0
    for i in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n, fractions=i % 2 == 0)
        b = [rng.randint(-5, 5) for _ in range(m)]
        rows, pivots = fraction_rref([row + [bi] for row, bi in zip(A, b)])
        want = None
        if n not in pivots:
            want = [Fraction(0)] * n
            for r, c in enumerate(pivots):
                want[c] = rows[r][n]
            solved += 1
        solution = solve_scaled(A, b)
        got = None if solution is None else [Fraction(a, solution[1]) for a in solution[0]]
        assert got == want
        square = [row[:m] + [0] * (m - len(row)) for row in A]
        rows, pivots = fraction_rref([row + [int(i == j) for j in range(m)] for i, row in enumerate(square)])
        want = [row[m:] for row in rows] if pivots == list(range(m)) else None
        inverted += want is not None
        assert tb.lattice.invert_rational(square) == want
    assert solved > 50 and inverted > 50
