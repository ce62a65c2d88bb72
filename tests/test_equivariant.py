"""Equivariant multiplicities, residue sums, and the limit to weights."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torbun as tb
from torbun.equivariant import _simplices, cone_equivariant_multiplicity
from torbun.lattice import dot
from torbun.polynomials import LinearFraction, Polynomial
from torbun.problem import parse_problem

from conftest import (
    F1_MAX_CONES,
    F1_RAYS,
    FIXTURES,
    P1_CUBED_RAYS,
    cube_fan,
    p1_cubed_fan,
    p1_fourth_fan,
    projective_space_fan,
    shear,
)
from quotient_oracle import quotient_map
from test_fans import fan_product, fan_spec


def x(i, n=2):
    return Polynomial.variable(n, i)


def lf_inv(*forms, n=2, scale=1):
    return LinearFraction.inverse_of_product(n, forms, scale=Fraction(scale))


@pytest.fixture(scope="module")
def f1_pp(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    return tb.PiecewisePolynomial(f1_fan, 2, {s12: x(1) * x(1), s23: x(0) * x(0)})


# ---------------------------------------------------------------------------
# compatibility checks


def test_check_pp_passes(f1_pp):
    assert tb.check_pp(f1_pp) == []


def test_check_pp_detects_mismatch(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    bad = tb.PiecewisePolynomial(f1_fan, 2, {s12: x(1) * x(1), s23: x(1) * x(1)})
    violations = tb.check_pp(bad)
    tau3 = f1_fan.cone_by_ray_indices([2])
    assert any(t == tau3 for _, _, t in violations)


def test_check_pp_global_polynomial(f1_fan):
    f = tb.PiecewisePolynomial(
        f1_fan, 1, {c: x(0) + 2 * x(1) for c in f1_fan.maximal_cones}
    )
    assert tb.check_pp(f) == []


def test_pp_rejects_wrong_degree(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    with pytest.raises(ValueError):
        tb.PiecewisePolynomial(f1_fan, 2, {s12: x(0)})


# ---------------------------------------------------------------------------
# equivariant multiplicities


def test_equivariant_multiplicities_f1(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    t1 = f1_fan.cone_by_ray_indices([0])
    t2 = f1_fan.cone_by_ray_indices([1])
    t3 = f1_fan.cone_by_ray_indices([2])
    z = f1_fan.zero_cone()
    e = lambda s, t: tb.equivariant_multiplicity(f1_fan, s, t)
    assert e(s12, z) == lf_inv((1, -1), (0, 1))
    assert e(s12, t1) == lf_inv((0, 1))
    assert e(s12, t2) == lf_inv((1, -1))
    assert e(s23, z) == lf_inv((1, 0), (-1, 1))
    assert e(s23, t2) == lf_inv((-1, 1))
    assert e(s23, t3) == lf_inv((1, 0))


def test_equivariant_multiplicity_degree(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    for tau, want in [([0, 1], 0), ([0], -1), ([], -2)]:
        cone = f1_fan.cone_by_ray_indices(tau)
        assert tb.equivariant_multiplicity(f1_fan, s12, cone).degree() == want


def test_equivariant_multiplicity_requires_face(f1_fan):
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    t3 = f1_fan.cone_by_ray_indices([2])
    with pytest.raises(ValueError):
        tb.equivariant_multiplicity(f1_fan, s12, t3)


def test_singular_cone_formula_matches_subdivision():
    sing = tb.cone_from_rays(2, [(1, 0), (1, 2)])
    z = tb.zero_cone(2)
    direct = cone_equivariant_multiplicity(sing, z)
    assert direct == lf_inv((0, 1), (2, -1), scale=Fraction(1, 2))
    left = cone_equivariant_multiplicity(tb.cone_from_rays(2, [(1, 0), (1, 1)]), z)
    right = cone_equivariant_multiplicity(tb.cone_from_rays(2, [(1, 1), (1, 2)]), z)
    assert left + right == direct


def test_smooth_euler_class_shape(f1_fan):
    # smooth case: content 1 and denominator exactly the dual-basis characters
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    e = tb.equivariant_multiplicity(f1_fan, s12, f1_fan.zero_cone())
    assert abs(e.num.terms[(0, 0)]) == 1
    assert e.content == 1
    assert sum(e.den.values()) == 2


def test_triangulation_order_independence_3d():
    orders = [
        [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
        [(0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1)],
        [(1, 0, 1), (0, 1, 1), (0, 1, 0), (1, 0, 0)],
    ]
    z = tb.zero_cone(3)
    values = {cone_equivariant_multiplicity(tb.cone_from_rays(3, rays), z) for rays in orders}
    assert len(values) == 1


def test_subdivision_additivity_3d():
    square = tb.cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    z = tb.zero_cone(3)
    whole = cone_equivariant_multiplicity(square, z)
    total = LinearFraction.zero(3)
    for piece in tb.triangulate(square):
        total = total + cone_equivariant_multiplicity(piece, z)
    assert total == whole


def fixture_and_ladder_fans():
    """Each fixture's fan once, the 12 shears of (P^1)^3, both cube fans,
    P^4 and (P^1)^4."""
    fans = list(dict.fromkeys(parse_problem(path.read_text()).fan for path in sorted(FIXTURES.glob("*.json"))))
    fans += [p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s)) for i, j in itertools.permutations(range(3), 2) for s in (1, -1)]
    return fans + [cube_fan(), cube_fan(1), projective_space_fan(4), p1_fourth_fan()]


def star_route_multiplicity(sigma, tau):
    """e(sigma, tau) in the quotient lattice, the oracle: triangulate the
    image of sigma in N/N_tau, lift each simplex's rays to N, and invert
    their pairing with the basis of perp(tau)."""
    n = sigma.ambient_rank
    if sigma == tau:
        return LinearFraction(Polynomial.constant(n, 1))
    q = quotient_map(tau.sublattice)
    image = tb.cone_from_rays(q.quotient_rank, [v for v in map(q.project, sigma.rays) if any(v)])
    assert image.dim == q.quotient_rank
    mtau = tau.span_normals
    total = LinearFraction.zero(n)
    for piece in tb.triangulate(image):
        lifts = [q.lift(w) for w in piece.rays]
        inv = tb.lattice.invert_rational([[dot(m, w) for w in lifts] for m in mtau])
        # the j-th dual form is sum_i inv[j][i] * mtau[i]
        forms = [tuple(sum(inv[j][i] * m[k] for i, m in enumerate(mtau)) for k in range(n)) for j in range(len(lifts))]
        total = total + LinearFraction.inverse_of_product(n, forms, scale=Fraction(tb.multiplicity(piece)))
    return total


def seeded_full_cones(rng):
    """Seeded full-dimensional cones of ranks 2 to 4, most of them singular
    and not simplicial: cones over k-gons (1, t, t^2) and over polytopes on
    random points of {1} x {-1, 0, 1}^3."""
    cones = []
    for rank, ks in ((2, (2, 2)), (3, (4, 5, 6)), (4, (5, 6, 7))):
        for k in ks:
            if rank == 4:
                rays = [(1,) + p for p in rng.sample(list(itertools.product((-1, 0, 1), repeat=3)), k)]
            else:
                rays = [tuple(t**e for e in range(rank)) for t in rng.sample(range(-4, 5), k)]
            cone = tb.cone_from_rays(rank, rays)
            if cone.dim == rank:
                cones.append(cone)
    return cones


def test_multiplicities_match_star_route():
    # the triangulation of sigma in N and the one of its image in the star
    # of tau differ, but a LinearFraction is canonical, so the values agree
    cones = [c for fan in fixture_and_ladder_fans() for c in fan.maximal_cones if c.dim == fan.ambient_rank]
    rng = random.Random(7)
    for cone in seeded_full_cones(rng):
        rays = list(cone.rays)
        rng.shuffle(rays)
        cones += [cone, tb.cone_from_rays(cone.ambient_rank, rays)]
    shapes = set()
    for sigma in cones:
        for tau in tb.faces_of(sigma):
            assert cone_equivariant_multiplicity(sigma, tau) == star_route_multiplicity(sigma, tau), (sigma, tau)
            shapes.add((sigma.ambient_rank, sigma.is_simplicial, tau.is_simplicial))
    # non-simplicial cones along simplicial and non-simplicial faces
    assert {(3, False, True), (3, False, False), (4, False, True), (4, False, False)} <= shapes, shapes


def four_cube_fan(rng=None):
    """Face fan of the 4-cube [-1,1]^4: eight cones over 3-cubes, each pair
    of neighbours meeting in a cone over a square.  Given an rng, each cone
    lists its rays in a shuffled order."""
    corners = list(itertools.product((1, -1), repeat=4))
    cones = [[i for i, r in enumerate(corners) if r[k] == sign] for k in range(4) for sign in (1, -1)]
    for ix in cones if rng else ():
        rng.shuffle(ix)
    return tb.fan_from_ray_lists(4, corners, cones)


def restriction(simplices, tau):
    """The simplices that a triangulation of a cone, as kept by
    _simplices, cuts out of its face tau."""
    on_tau = (frozenset(r for r in rays if r in tau.rays) for rays, _, _ in simplices)
    return {t for t in on_tau if len(t) == tau.dim}


def test_kept_triangulations_agree_on_common_faces():
    # a fan built from ray lists builds each cone on its rays in sorted
    # order, one global order whatever order the input lists them in; a
    # placing triangulation for a global order restricts to each face as
    # that face's placing triangulation (De Loera, Rambau and Santos,
    # Triangulations, ch. 4), so the triangulations kept on two maximal
    # cones cut their common face into the same simplices
    p1 = tb.fan_from_ray_lists(1, [(1,), (-1,)], [(0,), (1,)])
    fans = fixture_and_ladder_fans() + [four_cube_fan(), four_cube_fan(random.Random(5))]
    fans.append(tb.fan_from_ray_lists(*fan_spec(fan_product(cube_fan(), p1))))
    non_simplicial = 0
    for fan in fans:
        full = [s for s in fan.maximal_cones if s.dim == fan.ambient_rank]
        for s1, s2 in itertools.combinations(full, 2):
            tau = fan.common_face(s1, s2)
            first, second = (restriction(_simplices(s), tau) for s in (s1, s2))
            assert first == second and first, (fan, s1, s2)
            non_simplicial += not tau.is_simplicial
    # 24 squares in each 4-cube fan, and 6 cones over squares in cube x P^1
    assert non_simplicial == 2 * 24 + 6, non_simplicial


# ---------------------------------------------------------------------------
# residue sums


def test_residues_f1(f1_fan, f1_pp):
    expected = {
        (): Polynomial.constant(2, -1),
        (0,): x(1),
        (1,): -x(0) - x(1),
        (2,): x(0),
        (3,): Polynomial.zero(2),
        (0, 1): x(1) * x(1),
        (1, 2): x(0) * x(0),
        (0, 3): Polynomial.zero(2),
        (2, 3): Polynomial.zero(2),
    }
    for cone in f1_fan.cones:
        assert tb.residue_sum(f1_pp, cone) == expected[f1_fan.cone_key(cone)]


def test_residue_degree_bookkeeping(f1_fan, f1_pp):
    for cone in f1_fan.cones:
        r = tb.residue_sum(f1_pp, cone)
        want = f1_pp.degree - f1_fan.codim(cone)
        if want < 0:
            assert r.is_zero()
        else:
            assert r.is_homogeneous_of(want)


def pl_function(fan, values):
    """The piecewise linear function taking these values on the fan's rays,
    times the least positive integer making every piece integral; None when
    no linear function on some maximal cone takes them."""
    value = dict(zip(fan.rays, values))
    forms = {}
    for sigma in fan.maximal_cones:
        basis = tb.triangulate(sigma)[0].rays  # sigma is full-dimensional
        inv = tb.lattice.invert_rational([[Fraction(c) for c in r] for r in basis])
        form = [sum(a * value[r] for a, r in zip(row, basis)) for row in inv]
        if any(dot(form, r) != value[r] for r in sigma.rays):
            return None
        forms[sigma] = form
    scale = math.lcm(*(c.denominator for form in forms.values() for c in form))
    pieces = {sigma: Polynomial.linear_form([int(c * scale) for c in form]) for sigma, form in forms.items()}
    return tb.PiecewisePolynomial(fan, 1, pieces)


def _courant(fan, ray_index):
    """Piecewise linear function equal to 1 on one ray and 0 on the others
    (scaled to integral pieces), or None."""
    return pl_function(fan, [int(i == ray_index) for i in range(len(fan.rays))])


def random_compatible_pp(fan, rng, degree):
    """Random integer combination of products of ray support functions and
    global linear forms, homogeneous of the given degree."""
    courants = [_courant(fan, i) for i in range(len(fan.rays))]
    if None in courants:  # the cube fans: linear functions and this one span them
        courants = [pl_function(fan, [1] * len(fan.rays))]
    globals_ = [
        tb.PiecewisePolynomial(
            fan, 1, {c: Polynomial.variable(fan.ambient_rank, i) for c in fan.maximal_cones}
        )
        for i in range(fan.ambient_rank)
    ]
    gens = courants + globals_
    zero_pieces = {
        c: Polynomial.zero(fan.ambient_rank) for c in fan.maximal_cones
    }
    if degree == 0:
        const = rng.randint(-3, 3)
        return tb.PiecewisePolynomial(
            fan, 0, {c: Polynomial.constant(fan.ambient_rank, const) for c in fan.maximal_cones}
        )
    total = tb.PiecewisePolynomial(fan, degree, zero_pieces)
    for _ in range(rng.randint(1, 4)):
        term = None
        for _ in range(degree):
            g = gens[rng.randrange(len(gens))]
            term = g if term is None else term * g
        coeff = rng.randint(-3, 3)
        scaled = tb.PiecewisePolynomial(
            fan, degree, {c: term.pieces[c] * coeff for c in fan.maximal_cones}
        )
        total = tb.PiecewisePolynomial(
            fan,
            degree,
            {c: total.pieces[c] + scaled.pieces[c] for c in fan.maximal_cones},
        )
    return total


def all_pairs_check_pp(f):
    """The differential oracle for check_pp: every pair of maximal cones
    restricted to its common face of dimension >= 1."""
    fan = f.fan
    violations = []
    for s1, s2 in itertools.combinations(fan.maximal_cones, 2):
        tau = fan.common_face(s1, s2)
        if tau.dim == 0:
            continue
        basis = tau.sublattice.basis
        params = [Polynomial.linear_form([b[i] for b in basis]) for i in range(fan.ambient_rank)]
        if not (f.pieces[s1] - f.pieces[s2]).compose(params).is_zero():
            violations.append((s1, s2, tau))
    return violations


def test_check_pp_matches_all_pairs_scan():
    # the wall check against the all-pairs scan, whole violation lists: on
    # compatible piecewise polynomials and on copies changed at one maximal
    # cone by a power of a random form or of a facet normal of that cone
    # (which leaves the pieces agreeing across that facet's wall)
    rng = random.Random(29)
    fans = fixture_and_ladder_fans()
    assert sum(map(tb.is_complete, fans)) == len(fans) - 1  # the cone over a square is not
    checked = {"compatible": 0, "incompatible": 0}
    for fan in fans:
        n = fan.ambient_rank
        for degree in range(4) if n else (0,):
            f = random_compatible_pp(fan, rng, degree)
            cases = [f]
            for _ in range(3):
                sigma = rng.choice(fan.maximal_cones)
                forms = [[rng.randint(-3, 3) for _ in range(n)]] + [list(u) for u in sigma.facet_normals]
                bump = Polynomial.linear_form(rng.choice(forms)) ** degree
                cases.append(tb.PiecewisePolynomial(fan, degree, {**f.pieces, sigma: f.pieces[sigma] + bump}))
            for g in cases:
                violations = tb.check_pp(g)
                assert violations == all_pairs_check_pp(g), (fan, degree)
                checked["incompatible" if violations else "compatible"] += 1
    assert min(checked.values()) > 60, checked


def test_residue_not_polynomial_on_incompatible_input(f1_fan):
    # pieces that disagree across a face cannot telescope
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    bad = tb.PiecewisePolynomial(f1_fan, 2, {s12: x(1) * x(1), s23: x(1) * x(1)})
    tau3 = f1_fan.cone_by_ray_indices([2])
    with pytest.raises(tb.ResidueNotPolynomial):
        tb.residue_sum(bad, tau3)


def test_residue_not_polynomial_message(f1_fan):
    # the message renders the reduced fraction, as `torbun residue` prints it
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    bad = tb.PiecewisePolynomial(f1_fan, 2, {s12: x(0) * x(0) + x(1) * x(1), s23: x(0) * x(0)})
    with pytest.raises(tb.ResidueNotPolynomial) as info:
        tb.residue_sum(bad, f1_fan.zero_cone())
    assert str(info.value) == "residue at () is (x1^2 - x1*x2 + x2^2) / (x2 * (x1 - x2))"


def test_residue_content_that_does_not_divide():
    # every e(sigma, tau) has content 1: the dual characters of a simplex
    # have orders whose product is a multiple of its index.  So only a
    # hand-made table, here D_() doubled, reaches the last division
    fan = tb.fan_from_ray_lists(2, F1_RAYS, F1_MAX_CONES)
    f = tb.PiecewisePolynomial(
        fan, 2, {fan.cone_by_ray_indices([0, 1]): x(1) * x(1), fan.cone_by_ray_indices([1, 2]): x(0) * x(0)}
    )
    z = fan.zero_cone()
    assert tb.residue_sum(f, z) == Polynomial.constant(2, -1)
    tables = fan._tables["residue_tables"][1]
    den, content, numerators = tables[z]
    assert content == 1
    tables[z] = (den, 2, numerators)
    with pytest.raises(tb.ResidueNotPolynomial) as info:
        tb.residue_sum(f, z)
    assert str(info.value) == "residue at () is -1 / 2"


WRONG_DEGREE_RESIDUES = """
import sys
import torbun as tb
from torbun.polynomials import Polynomial

fan = tb.fan_from_ray_lists(2, [(1, 0), (1, 1), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
f = tb.PiecewisePolynomial(fan, 1, {c: Polynomial.variable(2, 0) for c in fan.maximal_cones})
# every residue sum comes out as x1^2, whatever its expected degree
tb.equivariant.sum_of_products = lambda num_vars, pairs: Polynomial.constant(num_vars, 1)
tb.equivariant.divide_out = lambda total, den: (Polynomial.variable(2, 0) ** 2, {})
print(sys.flags.optimize)
for key in ([], [1], [0, 1]):
    try:
        tb.residue_sum(f, fan.cone_by_ray_indices(key))
    except tb.InvariantViolation as exc:
        print(exc)
"""


def test_residue_degree_invariant_fires_under_optimize():
    # the degree checks of residue_sum build their messages only on failure;
    # they still raise, naming the cone, in a process under python -O
    src = str(Path(tb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_DEGREE_RESIDUES], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1",
        "residue at () is nonzero below degree 0",
        "residue at (1,) is not of degree 0",
        "residue at (0, 1) is not of degree 1",
    ]


def test_residue_polynomial_on_random_compatible(f1_fan):
    rng = random.Random(99)
    for _ in range(50):
        f = random_compatible_pp(f1_fan, rng, rng.randint(0, 2))
        assert tb.check_pp(f) == []
        for cone in f1_fan.cones:
            tb.residue_sum(f, cone)  # must not raise


def fraction_residue_sum(f, tau, mult):
    """The residue sum fraction by fraction, the oracle: each piece times
    e(sigma, tau), added up as LinearFractions; `mult` maps (sigma, tau) to
    cone_equivariant_multiplicity(sigma, tau)."""
    fan = f.fan
    total = LinearFraction.zero(fan.ambient_rank)
    for sigma in fan.cones_containing(tau):
        if sigma in f.pieces and not f.pieces[sigma].is_zero():
            total = total + mult[sigma, tau].poly_mul(f.pieces[sigma])
    return total


def test_residue_sums_match_fraction_sums():
    # the one-denominator route against the fraction-by-fraction sum at every
    # cone, and every residue table entry N_sigma / D_tau against the
    # per-call multiplicity
    rng = random.Random(13)
    for fan in filter(tb.is_complete, fixture_and_ladder_fans()):
        maxes = set(fan.maximal_cones)
        mult = {
            (sigma, tau): cone_equivariant_multiplicity(sigma, tau)
            for tau in fan.cones
            for sigma in fan.cones_containing(tau)
            if sigma in maxes
        }
        for degree in range(4) if fan.ambient_rank else (0,):
            f = random_compatible_pp(fan, rng, degree)
            assert tb.check_pp(f) == []
            for tau in fan.cones:
                want = fraction_residue_sum(f, tau, mult)
                assert want.is_polynomial(), (fan, tau)
                assert tb.residue_sum(f, tau) == want.as_polynomial(), (fan, degree, tau)
        tables = fan._tables["residue_tables"][1]
        assert set(tables) == set(fan.cones)
        for tau, (den, content, numerators) in tables.items():
            assert [sigma for sigma, _ in numerators] == [s for s in fan.cones_containing(tau) if s in maxes]
            for sigma, N in numerators:
                assert LinearFraction(N, den, content) == mult[sigma, tau], (fan, sigma, tau)


# ---------------------------------------------------------------------------
# the limit map


def test_pp_to_mw_table(f1_fan, f1_pp, mixing, base_algebra, a1, a2):
    W = tb.pp_to_mw(f1_pp, mixing)
    one = base_algebra.one()
    expected = {
        (): -one,
        (0,): a2,
        (1,): -a1 - a2,
        (2,): a1,
        (0, 1): a2 * a2,
        (1, 2): a1 * a1,
    }
    for cone in f1_fan.cones:
        want = expected.get(f1_fan.cone_key(cone), base_algebra.zero())
        assert W.value(cone) == want
    assert W.codim == 2


def test_pp_to_mw_constant_is_unit(f1_fan, mixing, base_algebra):
    f = tb.PiecewisePolynomial(
        f1_fan, 0, {c: Polynomial.constant(2, 1) for c in f1_fan.maximal_cones}
    )
    assert tb.pp_to_mw(f, mixing) == tb.unit_weight(f1_fan, base_algebra, mixing)


def test_pp_to_mw_global_linear(f1_fan, mixing, base_algebra, a2):
    f = tb.PiecewisePolynomial(
        f1_fan, 1, {c: Polynomial.variable(2, 1) for c in f1_fan.maximal_cones}
    )
    W = tb.pp_to_mw(f, mixing)
    expected = tb.module_action(a2, tb.unit_weight(f1_fan, base_algebra, mixing))
    assert W == expected


def test_pp_to_mw_is_ring_map(f1_fan, f1_pp, mixing):
    g = _courant(f1_fan, 1)
    assert tb.check_pp(g) == []
    left = tb.pp_to_mw(f1_pp * g, mixing)
    right = tb.mw_product(tb.pp_to_mw(f1_pp, mixing), tb.pp_to_mw(g, mixing), (2, 1))
    assert left == right


def test_pp_to_mw_equals_dual_of_square(f1_fan, f1_pp, mixing):
    assert tb.pp_to_mw(f1_pp, mixing) == tb.poincare_dual_mw(f1_fan, mixing, [1, 1])


# ---------------------------------------------------------------------------
# the same pipeline over a complete fan with a singular cone


@pytest.fixture(scope="module")
def singular_fan():
    return tb.fan_from_ray_lists(
        2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


@pytest.fixture(scope="module")
def singular_phi(singular_fan):
    # twice the support function of the first ray's divisor (doubling keeps
    # the piece on the singular cone integral)
    fan = singular_fan
    x1, x2 = x(0), x(1)
    zero = Polynomial.zero(2)
    pieces = {
        fan.cone_by_ray_indices([0, 1]): 2 * x1 - x2,
        fan.cone_by_ray_indices([1, 2]): zero,
        fan.cone_by_ray_indices([2, 3]): zero,
        fan.cone_by_ray_indices([0, 3]): 2 * x1,
    }
    return tb.PiecewisePolynomial(fan, 1, pieces)


def test_singular_fan_residues(singular_fan, singular_phi):
    fan = singular_fan
    assert tb.is_complete(fan) and not fan.is_smooth()
    assert tb.check_pp(singular_phi) == []
    expected = {
        (): Polynomial.zero(2),
        (0,): Polynomial.constant(2, -1),
        (1,): Polynomial.constant(2, 1),
        (2,): Polynomial.zero(2),
        (3,): Polynomial.constant(2, 2),
        (0, 1): 2 * x(0) - x(1),
        (0, 3): 2 * x(0),
        (1, 2): Polynomial.zero(2),
        (2, 3): Polynomial.zero(2),
    }
    for cone in fan.cones:
        assert tb.residue_sum(singular_phi, cone) == expected[fan.cone_key(cone)]


def test_singular_fan_limit_weights_balance(singular_fan, singular_phi, mixing):
    # pp_to_mw asserts balancing internally, including for products of pieces
    W = tb.pp_to_mw(singular_phi, mixing)
    assert tb.check_balancing(W).ok
    assert tb.check_balancing(tb.pp_to_mw(singular_phi * singular_phi, mixing)).ok


def test_singular_fan_limit_is_ring_map(singular_fan, singular_phi, mixing):
    fan = singular_fan
    g = tb.PiecewisePolynomial(fan, 1, {c: x(0) + x(1) for c in fan.maximal_cones})
    v, _ = tb.find_generic_vector(fan, random.Random(0))
    left = tb.pp_to_mw(singular_phi * g, mixing)
    right = tb.mw_product(tb.pp_to_mw(singular_phi, mixing), tb.pp_to_mw(g, mixing), v)
    assert left == right


def test_singular_fan_index_two_displacement_coefficient(singular_fan, singular_phi, mixing):
    # the ray pair ((1,0), (1,2)) spans an index-2 sublattice; the square of
    # the support function pins that coefficient through the product rule
    fan = singular_fan
    v, _ = tb.find_generic_vector(fan, random.Random(0))
    pairs = tb.diagonal_class(fan, fan.zero_cone(), v)
    coeffs = {
        (fan.cone_key(s1), fan.cone_key(s2)): c for s1, s2, c in pairs
    }
    assert 2 in coeffs.values()
    W = tb.pp_to_mw(singular_phi, mixing)
    square = tb.mw_product(W, W, v)
    assert square == tb.pp_to_mw(singular_phi * singular_phi, mixing)
    assert square.value(fan.zero_cone()) == mixing.algebra.one() * (-2)


def test_4d_cube_cone_triangulation_additivity():
    cube_rays = [(a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    orders = [cube_rays, list(reversed(cube_rays))]
    z = tb.zero_cone(4)
    results = set()
    for rays in orders:
        cone = tb.cone_from_rays(4, rays)
        pieces = tb.triangulate(cone)
        assert sum(tb.multiplicity(p) for p in pieces) == 6
        total = LinearFraction.zero(4)
        for p in pieces:
            total = total + cone_equivariant_multiplicity(p, z)
        assert total == cone_equivariant_multiplicity(cone, z)
        results.add(total)
    assert len(results) == 1
