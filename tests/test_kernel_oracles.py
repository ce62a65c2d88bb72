"""The cold-path kernels against the plainer routines they replace.

Each oracle below is the earlier, straightforward form of a library routine:
the placing triangulation built from full Cones, one wall kernel per pair of
span representatives, simplex multiplicities from a Smith form, exact
division over Fraction, cone bases from Smith forms, and displacement
indices and wall parameters from the cones' sublattices.  The library's
forms must give identical results, down to ray order, piece order and wall
order.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import torbun as tb
from torbun.cli import main
from torbun.fans import triangulate_rays
from torbun.lattice import dot, rational_rank
from torbun.polynomials import LinearFraction, Polynomial, divide_exact

from conftest import (
    FIXTURES,
    P1_CUBED_RAYS,
    cube_fan,
    p1_cubed_fan,
    projective_space_fan,
    projective_space_rays,
    shear,
)
from fm_oracle import Polyhedron
from test_equivariant import all_pairs_check_pp, fixture_and_ladder_fans, pl_function, random_compatible_pp
from test_fans import clear_torbun_memos

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
    """The diagonal walls with one kernel per pair of span representatives,
    each span keyed by the integer rows of its reduced row echelon form."""
    spans = {}
    for c in fan.cones:
        spans.setdefault(tuple(map(tuple, tb.lattice._rref(c.rays)[0])), c.rays)
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


def smith_cone_basis(cone):
    """(dim, span_normals, sublattice basis) by Smith forms, from the
    saturated span of the sorted rays."""
    L = tb.saturated_span(cone.ambient_rank, sorted(cone.rays))
    return L.rank, tuple(tb.perp_basis(L)), L.basis


def smith_pair_index(s1, s2):
    """[N : N_s1 + N_s2] from the two cones' sublattices."""
    return tb.lattice_index(s1.ambient_rank, s1.sublattice.basis + s2.sublattice.basis)


def cone_basis_fans():
    """The fixtures, the 12 sheared (P^1)^3, the cube under x_1 += x_2 and
    x_1 -= x_2, P^4 and sheared P^4, and (P^1)^4."""
    return fixture_and_ladder_fans() + [cube_fan(-1), projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1))]


def seeded_ray_sets(rng, count):
    """Ray sets in Z^1..Z^4 spanning subspaces of every rank: random
    integer combinations of 1 to n random generators in Z^n."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        k = rng.randint(1, n + 2)
        rays = [tuple(sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(n)) for _ in range(k)]
        rays = [r for r in rays if any(r)]
        if rays:
            out.append((n, rays))
    return out


def test_cone_bases_match_smith_route():
    # dim and span_normals come from one kernel when the perp has rank <= 1,
    # and the sublattice on first read; all must be the Smith route's
    ranks = Counter()
    cones = [c for fan in cone_basis_fans() for c in fan.cones] + [tb.zero_cone(n) for n in range(5)]
    for n, rays in seeded_ray_sets(random.Random(37), 1500):
        try:
            cones.append(tb.cone_from_rays(n, rays))
        except tb.NotStronglyConvex:
            continue
    for cone in cones:
        dim, span_normals = cone.dim, cone.span_normals
        assert (dim, span_normals, cone.sublattice.basis) == smith_cone_basis(cone), cone
        ranks[cone.ambient_rank, len(span_normals)] += 1
    assert all(ranks[n, k] for n in range(1, 5) for k in range(n + 1)), ranks


def test_pair_index_from_perp_bases_matches_sublattices():
    # every candidate pair a certified vector decides on the complete fans,
    # then seeded random pairs of saturated sublattices spanning Q^n
    decided = 0
    for fan in cone_basis_fans():
        if not (tb.is_complete(fan) and fan.ambient_rank):
            continue
        v, _attempts = tb.find_generic_vector(fan, random.Random(0))
        for tau in fan.cones:
            tb.displacement_pairs(fan, tau, v)
        for (tau, s1, s2), index in fan._tables["displacement_table"][1].items():
            if index is not None:
                assert index == smith_pair_index(s1, s2), (fan, s1, s2)
                decided += 1
    assert decided > 1000, decided
    rng = random.Random(41)
    indices = Counter()
    while sum(indices.values()) < 5000:
        # two proper subspaces of Q^n, 2 <= n <= 4, of ranks adding up to >= n
        n = rng.randint(2, 4)
        k1 = rng.randint(1, n - 1)
        sides = []
        for k in (k1, rng.randint(n - k1, n - 1)):
            rays = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
            if any(not any(r) for r in rays) or rational_rank(rays) != k:
                break
            sides.append(tb.cone_from_rays(n, rays))
        if len(sides) < 2 or rational_rank(sides[0].rays + sides[1].rays) != n:
            continue
        s1, s2 = sides
        index = tb.fans.simplex_multiplicity(s1.span_normals + s2.span_normals)
        assert index == smith_pair_index(s1, s2), (s1, s2)
        indices[len(s1.span_normals), len(s2.span_normals), index > 1] += 1
    assert all(indices[k1, k2, True] > 30 for k1 in (1, 2, 3) for k2 in (1, 2, 3) if k1 + k2 <= 4), indices


def test_check_pp_on_non_complete_fans_matches_sublattice_oracle():
    # the all-pairs fallback takes its parameters from a rational basis of
    # each common face's span; the oracle from the face's sublattice.  Each
    # complete fan loses one maximal cone, so every pair is scanned; the
    # cone over a square is not complete already
    rng = random.Random(43)
    checked = Counter()
    for fan in cone_basis_fans():
        if fan.ambient_rank == 0:
            continue
        degree = rng.randint(1, 3)
        f = random_compatible_pp(fan, rng, degree)
        dropped = rng.choice(fan.maximal_cones)
        keys = [fan.cone_key(c) for c in fan.maximal_cones if c != dropped]
        sub = tb.fan_from_ray_lists(fan.ambient_rank, fan.rays, keys) if tb.is_complete(fan) else fan
        assert not tb.is_complete(sub)
        g = tb.PiecewisePolynomial(sub, degree, {c: f.pieces[c] for c in sub.maximal_cones})
        cases = [g]
        for _ in range(3):
            sigma = rng.choice(sub.maximal_cones)
            bump = Polynomial.linear_form([rng.randint(-3, 3) for _ in range(sub.ambient_rank)]) ** degree
            cases.append(tb.PiecewisePolynomial(sub, degree, {**g.pieces, sigma: g.pieces[sigma] + bump}))
        for h in cases:
            violations = tb.check_pp(h)
            assert violations == all_pairs_check_pp(h), sub
            checked["incompatible" if violations else "compatible"] += 1
    assert min(checked.values()) > 15, checked


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
        monkeypatch.setattr(tb.fans, "rational_kernel", counted_kernel)
        counts["kernels"] = 0
        walls = fan.diagonal_walls
        monkeypatch.setattr(tb.fans, "rational_kernel", kernel)
        assert counts["kernels"] <= bound, fan
        assert walls == pairwise_walls(fan)


def test_cold_residue_tables_build_no_cone_and_no_smith_form(monkeypatch):
    fan = cube_fan(1)
    assert tb.is_complete(fan) and "residue_tables" not in fan._tables
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
    assert len(fan._tables["residue_tables"][1]) == len(fan.cones)
    assert counts == {"cones": 0, "smith forms": 0}


def cold_ladder_operation(fan, divisors=None, ray_values=None):
    """One cold rank-ladder operation on a built fan: certify a vector, then
    multiply two Poincare duals of divisors, or two limits of piecewise
    linear functions with these ray values."""
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [(h, p1.zero(), -h)[i % 3] for i in range(fan.ambient_rank)])
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    if divisors is not None:
        W1, W2 = (tb.poincare_dual_mw(fan, mix, [i]) for i in divisors)
    else:
        W1, W2 = (tb.pp_to_mw(pl_function(fan, values), mix) for values in ray_values)
    return tb.mw_product(W1, W2, v)


def test_cold_operation_smith_form_counts(monkeypatch, capsys):
    # Smith forms only for cone lattices whose perp has rank >= 2: none for
    # the displacement indices, the wall parameters or a rank-2 fan
    snf_ext = tb.lattice._snf_ext
    calls = Counter()

    def counted_snf_ext(A):
        calls["snf"] += 1
        return snf_ext(A)

    monkeypatch.setattr(tb.lattice, "_snf_ext", counted_snf_ext)
    cube_values = [[a + 1 for a, _, _ in cube_fan().rays], [b - c + 2 for _, b, c in cube_fan().rays]]
    rungs = [
        (lambda i=i, j=j, s=s: p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s)), {"divisors": (0, 2)}, 6)
        for i, j in itertools.permutations(range(3), 2) for s in (1, -1)
    ]
    rungs += [(lambda s=s: cube_fan(s), {"ray_values": cube_values}, 8) for s in (1, -1)]
    rungs += [(lambda: projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1)), {"divisors": (0, 1)}, 21)]
    for build, weights, bound in rungs:
        clear_torbun_memos()
        calls.clear()
        fan = build()
        cold_ladder_operation(fan, **weights)
        assert calls["snf"] <= bound, (fan.rays, calls)
    clear_torbun_memos()
    calls.clear()
    assert main(["check-fan", str(FIXTURES / "f1_bundle.json")]) == 0
    capsys.readouterr()
    assert calls["snf"] == 0, calls


def test_cone_sublattice_is_computed_once(monkeypatch):
    saturated_span = tb.fans.saturated_span
    calls = Counter()

    def counted_saturated_span(n, rays):
        calls["saturated_span"] += 1
        return saturated_span(n, rays)

    monkeypatch.setattr(tb.fans, "saturated_span", counted_saturated_span)
    # a perp of rank 1 leaves the sublattice to the first read; a perp of
    # rank 2 reads it at construction
    for rays, at_init in (([(1, 2, 0), (0, 1, 3)], 0), ([(2, 1, -1)], 1)):
        cone = tb.cone_from_rays(3, rays)
        assert calls["saturated_span"] == at_init
        first = cone.sublattice
        assert cone.sublattice is first
        assert calls["saturated_span"] == 1 and first.basis == smith_cone_basis(cone)[2]
        calls.clear()
