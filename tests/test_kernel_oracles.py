"""The cold-path kernels against the plainer routines they replace.

Each oracle below is the earlier, straightforward form of a library routine:
the placing triangulation built from full Cones, one wall kernel per pair of
span representatives, simplex multiplicities from a Smith form, and exact
division over Fraction.  The library's forms must give identical results,
down to ray order, piece order and wall order.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import torbun as tb
from torbun.fans import triangulate_rays
from torbun.lattice import dot, rational_rank
from torbun.polynomials import LinearFraction, Polynomial, divide_exact

from conftest import cube_fan, p1_cubed_fan, projective_space_fan
from fm_oracle import Polyhedron
from test_equivariant import fixture_and_ladder_fans

# ---------------------------------------------------------------------------
# the oracles


def cone_triangulation(sigma):
    """Placing triangulation on the ray order as given, every placed prefix
    and every candidate simplex built as a Cone."""
    if sigma.is_simplicial:
        return [sigma]
    pieces, placed = [], []
    for r in sigma.rays:
        if not placed:
            pieces = [tb.cone_from_rays(sigma.ambient_rank, [r])]
        else:
            current = tb.cone_from_rays(sigma.ambient_rank, placed)
            if all(dot(w, r) == 0 for w in current.span_normals):
                new_pieces = list(pieces)
                for u in current.facet_normals:
                    if dot(u, r) >= 0:
                        continue
                    for piece in pieces:
                        boundary = [x for x in piece.rays if dot(u, x) == 0]
                        if len(boundary) == piece.dim - 1:
                            cand = tb.cone_from_rays(sigma.ambient_rank, boundary + [r])
                            if cand not in new_pieces:
                                new_pieces.append(cand)
                pieces = new_pieces
            else:
                pieces = [tb.cone_from_rays(sigma.ambient_rank, list(p.rays) + [r]) for p in pieces]
        placed.append(r)
    return pieces


def pairwise_walls(fan):
    """The diagonal walls with one kernel per pair of span representatives."""
    spans = {}
    for c, key in fan.cone_spans.items():
        spans.setdefault(key, c.rays)
    pairs = itertools.combinations_with_replacement(spans.values(), 2)
    walls = (tb.lattice.rational_kernel(fan.ambient_rank, A + B) for A, B in pairs)
    return tuple(dict.fromkeys(w for w in walls if w))


def smith_simplex_multiplicity(rays):
    """The product of the Smith invariants of the rays."""
    if not rays:
        return 1
    r = tb.lattice.snf(rays)
    out = 1
    for d in r.diagonal[: r.rank]:
        out *= d
    return out


def fraction_divide_exact(poly, form):
    """Long division by the form over Fraction; integrality checked at the end."""
    n = poly.num_vars
    pivot = next(i for i, c in enumerate(form) if c != 0)
    c_piv = form[pivot]
    rest_terms = {}
    for i, c in enumerate(form):
        if c != 0 and i != pivot:
            rest_terms[tuple(int(j == i) for j in range(n))] = Fraction(c)
    R = {e: Fraction(c) for e, c in poly.terms.items()}
    Q = {}
    while R:
        k = max(e[pivot] for e in R)
        if k < 1:
            return None
        moved = {e: R.pop(e) for e in [e for e in R if e[pivot] == k]}
        chunk = {e[:pivot] + (k - 1,) + e[pivot + 1 :]: c / c_piv for e, c in moved.items()}
        for e, c in chunk.items():
            Q[e] = Q.get(e, 0) + c
            if Q[e] == 0:
                del Q[e]
        for e1, c1 in chunk.items():
            for e2, c2 in rest_terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                R[e] = R.get(e, Fraction(0)) - c1 * c2
                if R[e] == 0:
                    del R[e]
    if any(c.denominator != 1 for c in Q.values()):
        return None
    return Polynomial(n, {e: int(c) for e, c in Q.items()})


def repeated_pass_canonical(num, den, content):
    """LinearFraction's parts, its forms divided out in passes repeated
    until one changes nothing."""
    den = {form: mult for form, mult in den.items() if mult}
    if content < 0:
        num, content = -num, -content
    if num.is_zero():
        return num, {}, 1
    changed = num.degree() > 0
    while changed:
        changed = False
        for form, mult in list(den.items()):
            while mult > 0:
                q = fraction_divide_exact(num, form)
                if q is None:
                    break
                num, mult, changed = q, mult - 1, True
            if mult == 0:
                del den[form]
            else:
                den[form] = mult
    g = math.gcd(num.content(), content)
    if g > 1:
        num = Polynomial(num.num_vars, {e: c // g for e, c in num.terms.items()})
        content //= g
    return num, den, content


def sum_over_every_form(x, y):
    """The parts of x + y, each numerator multiplied by every form of the
    common denominator, to the power 0 too."""
    if x.is_zero() or y.is_zero():
        z = y if x.is_zero() else x
        return z.num, z.den, z.content
    target = {f: max(x.den.get(f, 0), y.den.get(f, 0)) for f in set(x.den) | set(y.den)}
    content = math.lcm(x.content, y.content)
    nx, ny = x.num * (content // x.content), y.num * (content // y.content)
    for f, mult in target.items():
        nx = nx * Polynomial.linear_form(f) ** (mult - x.den.get(f, 0))
        ny = ny * Polynomial.linear_form(f) ** (mult - y.den.get(f, 0))
    return repeated_pass_canonical(nx + ny, target, content)


# ---------------------------------------------------------------------------
# differential tests


def seeded_polytope_cones(rng):
    """Cones over seeded lattice k-gons (1, t, t^2), cyclic polytopes
    (1, t, t^2, t^3) and polytopes on random points of {1} x {-1, 0, 1}^3,
    each in a shuffled ray order."""
    ray_lists = []
    for k in (4, 5, 6, 7):
        ray_lists.append([(1, t, t * t) for t in rng.sample(range(-5, 6), k)])
    for k in (5, 6, 7, 8):
        ray_lists.append([(1, t, t * t, t**3) for t in rng.sample(range(-4, 5), k)])
    for k in (5, 6, 7, 8):
        ray_lists.append([(1,) + p for p in rng.sample(list(itertools.product((-1, 0, 1), repeat=3)), k)])
    cones = []
    for rays in ray_lists:
        cone = tb.cone_from_rays(len(rays[0]), rays)
        order = list(cone.rays)
        rng.shuffle(order)
        cones += [cone, tb.cone_from_rays(cone.ambient_rank, order)]
    return cones


def test_triangulation_matches_cone_oracle():
    cones = [c for fan in fixture_and_ladder_fans() for c in fan.cones]
    cones += seeded_polytope_cones(random.Random(17))
    assert sum(not c.is_simplicial for c in cones) >= 30
    for sigma in cones:
        want = [piece.rays for piece in cone_triangulation(sigma)]
        assert triangulate_rays(sigma) == want, sigma
        assert [piece.rays for piece in tb.triangulate(sigma)] == want, sigma


def test_walls_match_pairwise_oracle():
    for fan in fixture_and_ladder_fans():
        assert fan.diagonal_walls == pairwise_walls(fan), fan


def test_walls_match_fourier_motzkin_dimensions():
    # every wall is a proper subspace of the dimension its normals say, and
    # each pair of cones not spanning Q^n lies on a wall of the pair's rank
    fans = [projective_space_fan(2), cube_fan(1), projective_space_fan(4)]
    for fan in fans:
        n = fan.ambient_rank
        dims = {}
        for normals in fan.diagonal_walls:
            dims[normals] = Polyhedron(n, equalities=[(u, 0) for u in normals]).dim
            assert dims[normals] == n - len(normals) < n
        for s1, s2 in itertools.combinations_with_replacement(fan.cones, 2):
            rays = s1.rays + s2.rays
            rank = rational_rank(rays)
            if rank < n:
                on = [w for w in dims if all(dot(u, r) == 0 for u in w for r in rays)]
                assert any(dims[w] == rank for w in on), (s1, s2)


def test_simplex_multiplicity_matches_smith_oracle():
    rng = random.Random(23)
    done = 0
    while done < 10_000:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        bound = rng.choice((1, 2, 5, 30))
        rays = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)]
        if any(not any(r) for r in rays) or rational_rank(rays) != k:
            continue
        rays = [tb.primitive(r) for r in rays]
        assert tb.fans.simplex_multiplicity(rays) == smith_simplex_multiplicity(rays), rays
        done += 1


def test_simplex_multiplicity_of_dependent_rays_is_an_invariant_violation():
    with pytest.raises(tb.InvariantViolation):
        tb.fans.simplex_multiplicity([(1, 0, 1), (0, 1, 0), (1, 1, 1)])


def random_polynomial(rng, n, degree, terms):
    exps = [tuple(rng.randint(0, degree) for _ in range(n)) for _ in range(terms)]
    return Polynomial(n, {e: rng.randint(-9, 9) for e in exps})


def test_divide_exact_matches_fraction_oracle():
    rng = random.Random(29)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        form = tuple(rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n))
        if not any(form):
            continue
        form = tb.primitive(form)
        q = random_polynomial(rng, n, 3, rng.randint(0, 6))
        product = q * Polynomial.linear_form(form)
        for poly in (product, product + random_polynomial(rng, n, 4, 1), random_polynomial(rng, n, 3, 4)):
            got, want = divide_exact(poly, form), fraction_divide_exact(poly, form)
            if want is None:
                assert got is None, (poly, form)
            else:
                assert list(got.terms.items()) == list(want.terms.items()), (poly, form)
            kinds.add(want is None)
        assert divide_exact(product, form) == q
    assert kinds == {True, False}


def test_linear_fraction_matches_repeated_pass_oracle():
    # numerators that some forms divide, to various powers, over sums and
    # differences of the simplex terms that residue tables add up
    rng = random.Random(31)
    forms = [tb.primitive(f) for f in itertools.product((-1, 0, 1, 2), repeat=3) if any(f)]
    forms = sorted({f if f > (0, 0, 0) else tuple(-a for a in f) for f in forms})
    cancelled = 0
    for _ in range(400):
        picked = rng.sample(forms, 3)
        den = {f: rng.randint(0, 2) for f in picked}
        num = random_polynomial(rng, 3, 2, rng.randint(0, 3))
        for f in rng.sample(picked, rng.randint(0, 3)):
            num = num * Polynomial.linear_form(f) ** rng.randint(1, 2)
        content = rng.choice((-6, -1, 1, 2, 4, 15))
        got = LinearFraction(num, den, content)
        want = repeated_pass_canonical(num, den, content)
        assert (got.num, got.den, got.content) == want, (num, den, content)
        cancelled += sum(den.values()) > sum(got.den.values())
        a = LinearFraction.inverse_of_primitive(3, rng.sample(forms, 2), Fraction(rng.choice((1, -2, 3)), 2))
        for x, y in ((got, a), (a, got), (got, -a)):
            total = x + y
            assert (total.num, total.den, total.content) == sum_over_every_form(x, y)
    assert cancelled > 100


# ---------------------------------------------------------------------------
# work counts


def test_wall_kernel_counts(monkeypatch):
    # one kernel per distinct ray union: P^4 takes 32 (one per pair, 378)
    counts = {"kernels": 0}
    kernel = tb.fans.rational_kernel

    def counted_kernel(n, rows):
        counts["kernels"] += 1
        return kernel(n, rows)

    for fan, bound in ((projective_space_fan(4), 32), (cube_fan(), 31), (p1_cubed_fan(), 8)):
        fan.cone_spans
        monkeypatch.setattr(tb.fans, "rational_kernel", counted_kernel)
        counts["kernels"] = 0
        walls = fan.diagonal_walls
        monkeypatch.setattr(tb.fans, "rational_kernel", kernel)
        assert counts["kernels"] <= bound, fan
        assert walls == pairwise_walls(fan)


def test_cold_residue_tables_build_no_cone_and_no_smith_form(monkeypatch):
    fan = cube_fan(1)
    assert tb.is_complete(fan) and not fan.residue_tables
    counts = {"cones": 0, "smith forms": 0}
    cone_init, snf_cached = tb.fans.Cone.__init__, tb.lattice._snf_cached

    def counted_cone_init(self, *args):
        counts["cones"] += 1
        cone_init(self, *args)

    def counted_snf(A):
        counts["smith forms"] += 1
        return snf_cached(A)

    monkeypatch.setattr(tb.fans.Cone, "__init__", counted_cone_init)
    monkeypatch.setattr(tb.lattice, "_snf_cached", counted_snf)
    tb.equivariant._residue_table(fan, fan.cones[0])
    assert len(fan.residue_tables) == len(fan.cones)
    assert counts == {"cones": 0, "smith forms": 0}
