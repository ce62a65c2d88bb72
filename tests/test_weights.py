"""Minkowski weights: balancing, module action, displacement products."""

import gc
import importlib
import itertools
import math
import os
import pkgutil
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import torbun as tb
from torbun.problem import parse_problem

from conftest import (
    F1_MAX_CONES,
    F1_RAYS,
    FIXTURES,
    P1_CUBED_RAYS,
    cube_fan,
    p1_cubed_fan,
    projective_space_fan,
    projective_space_rays,
    shear,
)
from quotient_oracle import normal_generator
from test_equivariant import fixture_and_ladder_fans, pl_function, random_compatible_pp
from test_fans import fan_product


@pytest.fixture(scope="module")
def W1(f1_fan, mixing):
    return tb.poincare_dual_mw(f1_fan, mixing, [0])


@pytest.fixture(scope="module")
def W2(f1_fan, mixing):
    return tb.poincare_dual_mw(f1_fan, mixing, [1])


@pytest.fixture(scope="module")
def unit(f1_fan, base_algebra, mixing):
    return tb.unit_weight(f1_fan, base_algebra, mixing)


def weight_from_table(fan, algebra, mixing, codim, table):
    values = {fan.cone_by_ray_indices(k): v for k, v in table.items()}
    return tb.MinkowskiWeight(fan, algebra, mixing, codim, values)


def random_dual_weight(fan, mixing, rng, degree=None):
    """A random balanced weight, sampled as the dual of a random ring class."""
    algebra = mixing.algebra
    if degree is None:
        degree = rng.randint(0, 2)
    num_rays = rng.randint(0, degree)
    rays = tuple(rng.randrange(len(fan.rays)) for _ in range(num_rays))
    base_deg = degree - num_rays
    candidates = algebra.basis_of_degree(base_deg)
    coeffs = {rng.choice(candidates): rng.randint(-3, 3)}
    base = tb.AlgebraElement(algebra, coeffs)
    return tb.poincare_dual_mw(fan, mixing, rays, base)


# ---------------------------------------------------------------------------
# balancing


def test_balancing_spot_check(f1_fan, W2, a1, a2):
    tau2 = f1_fan.cone_by_ray_indices([1])
    lhs, rhs = tb.balancing_sides(W2, tau2, (1, -1))
    assert lhs == a2 - a1
    assert rhs == a2 - a1


def test_zero_weight_balances(f1_fan, base_algebra, mixing):
    W = tb.MinkowskiWeight(f1_fan, base_algebra, mixing, 1, {})
    assert tb.check_balancing(W).ok


def test_corrupted_weight_reports_violation(f1_fan, base_algebra, mixing, W2):
    table = {f1_fan.cone_key(c): v for c, v in W2.values.items()}
    table.pop((1, 2))  # drop the class on the cone spanned by rays 1,2
    bad = weight_from_table(f1_fan, base_algebra, mixing, 1, table)
    report = tb.check_balancing(bad)
    assert not report.ok
    tau2 = f1_fan.cone_by_ray_indices([1])
    spots = {(tau, tuple(m)) for tau, m, _, _ in report.violations}
    assert (tau2, (1, -1)) in spots


def test_balancing_requires_complete_fan(base_algebra, mixing):
    fan = tb.fan_from_ray_lists(2, [(1, 0), (0, 1)], [(0, 1)])
    W = tb.MinkowskiWeight(fan, base_algebra, mixing, 0, {})
    with pytest.raises(tb.FanNotComplete):
        tb.check_balancing(W)


def per_call_balancing(W):
    """The balancing report by the per-call route, the oracle: a fresh
    relation_at at every tau and every m of tau.span_normals, evaluated on
    every value of W, zero or not."""
    violations = []
    for tau in W.fan.cones:
        for m in tau.span_normals:
            relation = tb.weights.relation_at(W.fan, W.mixing, tau, m)
            lhs = W.algebra.zero()
            for sigma, coeff in relation.lhs.items():
                lhs = lhs + W.value(sigma) * coeff
            rhs = relation.rhs * W.value(tau)
            if lhs != rhs:
                violations.append((tau, m, lhs, rhs))
    return tb.BalancingReport(ok=not violations, violations=violations)


def perturbed(W, cone, rng):
    """W with a random nonzero class of the right degree added at `cone`,
    or None when no class has that degree."""
    candidates = W.algebra.basis_of_degree(W.codim - W.fan.codim(cone))
    if not candidates:
        return None
    el = tb.AlgebraElement(W.algebra, {rng.choice(candidates): rng.choice((-2, -1, 1, 2))})
    return tb.MinkowskiWeight(W.fan, W.algebra, W.mixing, W.codim, {**W.values, cone: W.value(cone) + el})


def next_to(fan, support):
    """The cones outside `support` one dimension above or below a cone in it."""
    def adjacent(c, s):
        return abs(c.dim - s.dim) == 1 and (c in fan.cones_containing(s) or s in fan.cones_containing(c))

    return [c for c in fan.cones if c not in support and any(adjacent(c, s) for s in support)]


def test_balancing_matches_per_call_relations():
    # the shared rows, evaluated only where the weight lives, against fresh
    # relations at every (tau, m): whole reports, on balanced limit weights
    # and on copies perturbed at a cone of the support and at cones just
    # outside it, under two unequal mixing maps taken in turn on each fan,
    # so that rows kept for the wrong mixing map would show
    rng = random.Random(17)
    base = tb.make_free_truncated([("a1", 1), ("a2", 1)], 2)
    images = [base.basis_element("a1"), base.basis_element("a2")]
    images += [images[0] - images[1], base.zero()]
    singular = tb.fan_from_ray_lists(2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    fans = [fan for fan in fixture_and_ladder_fans() + [singular] if tb.is_complete(fan)]
    assert not singular.is_smooth() and sum(not fan.is_simplicial() for fan in fans) == 2
    checked = {"balanced": 0, "unbalanced": 0}
    for fan in fans:
        n = fan.ambient_rank
        mixes = [tb.MixingMap(base, [rng.choice(images) for _ in range(n)]) for _ in range(2)]
        while n and mixes[0] == mixes[1]:
            mixes[1] = tb.MixingMap(base, [rng.choice(images) for _ in range(n)])
        weights = []  # (weight, whether it is a balanced one)
        for degree in range(1, 4) if n else (0,):
            f = random_compatible_pp(fan, rng, degree)
            for mix in mixes:
                W = tb.pp_to_mw(f, mix)
                weights.append((W, True))
                if not W.is_zero():
                    cones = [rng.choice(sorted(W.values, key=fan.cone_sort_key))] + next_to(fan, W.values)[:3]
                    weights += [(V, False) for V in (perturbed(W, c, rng) for c in cones) if V is not None]
        for W, balanced in weights:  # the weights alternate between the two mixing maps
            report = tb.check_balancing(W)
            assert report == per_call_balancing(W), fan
            assert report.ok or not balanced, fan
            checked["balanced" if report.ok else "unbalanced"] += 1
    assert min(checked.values()) > 100, checked


def two_sided_balancing(W):
    """The violations by the two-sided route, the oracle of the one-pass
    check: the shared rows where W lives, with both sides of every relation
    evaluated apart and compared."""
    fan, values = W.fan, W.values
    rows = tb.weights.relation_rows(fan, W.mixing)
    normals = fan.relation_normals()
    violations = []
    for tau in fan.cones:
        if tau in values or not values.keys().isdisjoint(normals[tau]):
            for relation in rows[tau]:
                lhs = W.algebra.combine((c, values[s], None) for s, c in relation.lhs.items() if s in values)
                rhs = relation.rhs * values[tau] if tau in values else W.algebra.zero()
                if lhs != rhs:
                    violations.append((tau, relation.m, lhs, rhs))
    return violations


def test_one_pass_balancing_matches_two_sided_route():
    # limit weights, and copies with one value perturbed at each cone of the
    # support and next to it, on the fixture fans and the rank-ladder fans:
    # the one-pass check lists exactly the violations of the two-sided route
    rng = random.Random(29)
    base = tb.make_free_truncated([("a1", 1), ("a2", 1)], 2)
    images = [base.basis_element("a1"), base.basis_element("a2")]
    images += [images[0] - images[1], base.zero()]
    fans = list(dict.fromkeys(parse_problem(path.read_text()).fan for path in sorted(FIXTURES.glob("*.json"))))
    fans += [p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1)), cube_fan(), cube_fan(1)]
    fans.append(projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1)))
    checked = {"balanced": 0, "unbalanced": 0}
    for fan in filter(tb.is_complete, fans):
        mix = tb.MixingMap(base, [rng.choice(images) for _ in range(fan.ambient_rank)])
        for degree in range(1, 4) if fan.ambient_rank else (0,):
            W = tb.pp_to_mw(random_compatible_pp(fan, rng, degree), mix)
            cones = sorted(W.values, key=fan.cone_sort_key) + next_to(fan, W.values)
            for V in [W] + [V for V in (perturbed(W, c, rng) for c in cones) if V is not None]:
                want = two_sided_balancing(V)
                assert tb.check_balancing(V).violations == want, fan
                checked["unbalanced" if want else "balanced"] += 1
    assert checked["unbalanced"] > 200 and checked["balanced"] > 20, checked


def test_balancing_error_messages_match_two_sided_route(monkeypatch):
    # the postconditions of the three weight constructors, with the inner
    # result made unbalanced, raise the message of the two-sided route's
    # first violation
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    W1, W2 = tb.poincare_dual_mw(fan, mix, [0]), tb.poincare_dual_mw(fan, mix, [2])
    f = pl_function(fan, [1, 0, 2, 0, 0, 1])
    rng = random.Random(4)
    real, made = tb.MinkowskiWeight, []

    def unbalanced(fan, algebra, mixing, codim, values):
        W = real(fan, algebra, mixing, codim, values)
        made.append(next(V for V in (perturbed(W, c, rng) for c in fan.cones if c.dim) if V is not None))
        return made[-1]

    for module in (tb.weights, tb.equivariant, tb.presentations):
        monkeypatch.setattr(module, "MinkowskiWeight", unbalanced)
    calls = {
        "mw_product": lambda: tb.mw_product(W1, W2, v),
        "pp_to_mw": lambda: tb.pp_to_mw(f * f, mix),
        "poincare_dual_mw": lambda: tb.poincare_dual_mw(fan, mix, [1, 4]),
    }
    for context, call in calls.items():
        made.clear()
        with pytest.raises(tb.BalancingError) as info:
            call()
        (V,) = made
        tau, m, lhs, rhs = two_sided_balancing(V)[0]
        assert str(info.value) == (
            f"{context} produced an unbalanced weight at {fan.cone_key(tau)}, m={m}: {lhs.render()} != {rhs.render()}"
        )


def relation_fans():
    """The fixture fans, (P^1)^3 under each of its twelve elementary shears,
    sheared P^4 and the cube fan (the singular fan is a fixture)."""
    fans = {path.stem: parse_problem(path.read_text()).fan for path in sorted(FIXTURES.glob("*.json"))}
    for i, j in itertools.permutations(range(3), 2):
        for s in (1, -1):
            fans[f"p1^3 x{i + 1} += {s} x{j + 1}"] = p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s))
    fans["p4 x1 += x2"] = projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1))
    fans["cube"] = cube_fan()
    return fans


def test_relation_coefficients_match_normal_generator():
    # the canonical minimal-norm lift of normal_generator is the oracle: on
    # perp(tau) every lift of n_sigma/tau gives the same coefficient
    checked = 0
    for name, fan in relation_fans().items():
        pt = tb.point_algebra()
        mix = tb.MixingMap(pt, [pt.zero()] * fan.ambient_rank)
        for tau in fan.cones:
            up = [s for s in fan.cones_containing(tau) if s.dim == tau.dim + 1]
            for m in tau.span_normals:
                want = {}
                for sigma in up:
                    interior = tuple(map(sum, zip(*sigma.rays)))  # the sum of the rays
                    n = normal_generator(tau.sublattice, sigma.sublattice, interior)
                    if tb.lattice.dot(m, n):
                        want[sigma] = tb.lattice.dot(m, n)
                got = tb.weights.relation_at(fan, mix, tau, m).lhs
                assert list(got.items()) == list(want.items()), (name, fan.cone_key(tau), m)
                checked += len(up)
            for r in tau.rays:
                with pytest.raises(ValueError):
                    tb.weights.relation_at(fan, mix, tau, r)
    assert checked > 1000, checked


def test_library_paths_skip_the_canonical_lift():
    # relation coefficients and equivariant multiplicities are taken in N:
    # the minimal-norm lift search and the quotient maps live only in the
    # test oracle, so no library path can run them
    assert not hasattr(tb.lattice, "_min_norm_rep") and not hasattr(tb.lattice, "QuotientMap")
    modules = [tb] + [importlib.import_module(f"torbun.{m.name}") for m in pkgutil.iter_modules(tb.__path__)]
    assert not [m.__name__ for m in modules if hasattr(m, "star_fan") or hasattr(m, "normal_generator")]
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    p4 = projective_space_fan(4)
    mix4 = tb.MixingMap(p1, [h, p1.zero(), -h, h])
    tb.homology_presentation(p4, mix4)
    W = tb.poincare_dual_mw(p4, mix4, [0, 1])
    assert tb.check_balancing(W).ok
    cube = cube_fan()
    mix3 = tb.MixingMap(p1, [h, p1.zero(), -h])
    tb.homology_presentation(cube, mix3)
    # the value <(0,1,-1), ray> + 2: on the cone over the face x_i = s it is
    # <(0,1,-1) + 2 s e_i, x>
    pieces = {}
    for i, s in itertools.product(range(3), (1, -1)):
        sigma = next(c for c in cube.maximal_cones if all(r[i] == s for r in c.rays))
        pieces[sigma] = tb.Polynomial.linear_form([(0, 1, -1)[k] + 2 * s * (k == i) for k in range(3)])
    f = tb.PiecewisePolynomial(cube, 1, pieces)
    assert tb.check_balancing(tb.pp_to_mw(f, mix3)).ok


# ---------------------------------------------------------------------------
# unit weight and module action


def test_unit_weight_values(f1_fan, unit, base_algebra):
    one = base_algebra.one()
    for cone in f1_fan.cones:
        expected = one if cone.dim == 2 else base_algebra.zero()
        assert unit.value(cone) == expected
    assert tb.check_balancing(unit).ok


def test_unit_weight_p1(p1_fan):
    pt = tb.point_algebra()
    mix = tb.MixingMap(pt, [pt.zero()])
    W = tb.unit_weight(p1_fan, pt, mix)
    assert all(W.value(c) == pt.one() for c in p1_fan.maximal_cones)
    assert tb.check_balancing(W).ok


def test_module_action(f1_fan, base_algebra, mixing, unit, a1, W1):
    assert tb.module_action(base_algebra.one(), W1) == W1
    aW = tb.module_action(a1, unit)
    assert aW.codim == 1
    for cone in f1_fan.maximal_cones:
        assert aW.value(cone) == a1
    assert tb.check_balancing(aW).ok
    deg2 = tb.module_action(a1, W1)
    assert deg2.codim == 2


# ---------------------------------------------------------------------------
# displacement product


def test_product_table(f1_fan, base_algebra, W1, W2, a1, a2):
    prod = tb.mw_product(W1, W2, (2, 1))
    one = base_algebra.one()
    expected = {
        (): one,
        (0,): a1 - a2,
        (1,): a2,
        (0, 1): a2 * (a1 - a2),
    }
    for cone in f1_fan.cones:
        want = expected.get(f1_fan.cone_key(cone), base_algebra.zero())
        assert prod.value(cone) == want, f1_fan.cone_key(cone)
    assert prod.codim == 2


def test_product_independent_of_vector(f1_fan, W1, W2):
    base = tb.mw_product(W1, W2, (2, 1))
    for v in [(3, 1), (1, 2), (5, 3), (-1, -3)]:
        assert tb.is_generic_diagonal(f1_fan, v)
        assert tb.mw_product(W1, W2, v) == base


def test_product_unit_identity(W1, W2, unit):
    for W in (W1, W2):
        assert tb.mw_product(unit, W, (2, 1)) == W
        assert tb.mw_product(W, unit, (2, 1)) == W


def test_product_rejects_nongeneric(W1, W2):
    with pytest.raises(tb.NonGenericVector):
        tb.mw_product(W1, W2, (1, 1))


def test_product_commutative_randomized(f1_fan, mixing):
    rng = random.Random(2024)
    pool = [random_dual_weight(f1_fan, mixing, rng) for _ in range(20)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
    for Wa, Wb in pairs:
        assert tb.mw_product(Wa, Wb, (2, 1)) == tb.mw_product(Wb, Wa, (2, 1))


def test_product_degree_additivity(f1_fan, mixing, W1, W2):
    prod = tb.mw_product(W1, W2, (2, 1))
    assert prod.codim == W1.codim + W2.codim
    for cone, el in prod.values.items():
        assert el.is_homogeneous_of(prod.codim - f1_fan.codim(cone))


def product_from_public_pairs(W1, W2, v):
    """The displacement product summed over every pair that the public
    displacement_pairs lists, whatever the weights' supports."""
    fan = W1.fan
    values = {}
    for tau in fan.cones:
        total = W1.algebra.zero()
        for s1, s2, index in tb.displacement_pairs(fan, tau, v):
            total = total + W1.value(s1) * W2.value(s2) * index
        values[tau] = total
    return tb.MinkowskiWeight(fan, W1.algebra, W1.mixing, W1.codim + W2.codim, values)


def ray_value_weight(fan, mixing, rng):
    """pp_to_mw of a piecewise-linear function given by its values on the
    rays, scaled so that every piece has integer coefficients.  The values
    are random on simplicial fans; otherwise they are <m, r> + k, which is
    piecewise linear on the face fan of a polytope with the rays as its
    vertices, such as the cube fan."""
    m = [rng.randint(-2, 2) for _ in range(fan.ambient_rank)]
    k = rng.randint(1, 2)
    simplicial = fan.is_simplicial()
    values = {r: rng.randint(-2, 2) if simplicial else tb.lattice.dot(m, r) + k for r in fan.rays}
    pieces = {}
    for sigma in fan.maximal_cones:
        solution = tb.lattice.solve_scaled(sigma.rays, [values[r] for r in sigma.rays])
        assert solution is not None, sigma
        pieces[sigma] = [Fraction(a, solution[1]) for a in solution[0]]
    scale = math.lcm(*(c.denominator for piece in pieces.values() for c in piece))
    pieces = {s: tb.Polynomial.linear_form([int(c * scale) for c in piece]) for s, piece in pieces.items()}
    return tb.pp_to_mw(tb.PiecewisePolynomial(fan, 1, pieces), mixing)


def certified_vectors(fan, count):
    """The first `count` distinct vectors of the seeded search, seeds 0, 1, ..."""
    if fan.ambient_rank == 0:
        return [()]
    vectors = []
    for seed in itertools.count():
        v, _attempts = tb.find_generic_vector(fan, random.Random(seed))
        if v not in vectors:
            vectors.append(v)
        if len(vectors) == count:
            return vectors


def test_product_matches_public_displacement_pairs():
    # the product decides only pairs in supp(W1) x supp(W2); the sum over
    # every pair of the public displacement_pairs is the oracle.  Each fan
    # is fresh, so the product runs first on a cold table
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    rng = random.Random(9)
    products = nonzero = 0
    for name, fan in relation_fans().items():
        mixing = tb.MixingMap(p1, [h * rng.randint(-1, 1) for _ in range(fan.ambient_rank)])
        zero = tb.MinkowskiWeight(fan, p1, mixing, 1, {})
        if not tb.is_complete(fan):
            with pytest.raises(tb.FanNotComplete):
                tb.mw_product(zero, zero, (1,) * fan.ambient_rank)
            continue
        unit = tb.unit_weight(fan, p1, mixing)
        pl = [ray_value_weight(fan, mixing, rng) for _ in range(2)] if fan.ambient_rank else [unit, unit]
        pairs = [(unit, pl[0]), (pl[0], pl[1]), (pl[1], pl[0]), (tb.module_action(h, unit), pl[1]), (zero, pl[0]), (pl[1], zero)]
        for v in certified_vectors(fan, 2):
            got = [tb.mw_product(Wa, Wb, v) for Wa, Wb in pairs]
            assert got == [product_from_public_pairs(Wa, Wb, v) for Wa, Wb in pairs], (name, v)
            products += len(pairs)
            nonzero += sum(not W.is_zero() for W in got[1:4])
    assert products > 240 and nonzero > 100, (products, nonzero)


def test_product_independent_of_call_order():
    # a table filled by the public pairs first, or by a product first,
    # gives the same product and the same pairs
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    rays = shear(projective_space_rays(4), 0, 1, 1)
    results = []
    for pairs_first in (True, False):
        fan = projective_space_fan(4, rays)
        mixing = tb.MixingMap(p1, [h, p1.zero(), -h, h])
        W1 = tb.poincare_dual_mw(fan, mixing, [0, 1])
        W2 = tb.poincare_dual_mw(fan, mixing, [2], h)
        v = certified_vectors(fan, 1)[0]
        if pairs_first:
            pairs = [tb.displacement_pairs(fan, tau, v) for tau in fan.cones]
        product = tb.mw_product(W1, W2, v)
        if not pairs_first:
            pairs = [tb.displacement_pairs(fan, tau, v) for tau in fan.cones]
        results.append((product.values, pairs))
    assert results[0] == results[1]
    assert results[0][0], "the product should not be zero"


def test_product_decides_only_supported_pairs(monkeypatch):
    # work counts: one cold (P^1)^3 product makes a pinned number of rational
    # solves, fewer than deciding every candidate pair at the same vector
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    counts = {"solves": 0}

    def counted_solve(rows, rhs):
        counts["solves"] += 1
        return tb.lattice.solve_scaled(rows, rhs)

    monkeypatch.setattr(tb.fans, "solve_scaled", counted_solve)
    fan = p1_cubed_fan()
    mixing = tb.MixingMap(p1, [h, h, p1.zero()])
    W1 = tb.poincare_dual_mw(fan, mixing, [0])
    W2 = tb.poincare_dual_mw(fan, mixing, [2])
    v = certified_vectors(fan, 1)[0]
    tb.mw_product(W1, W2, v)
    product_solves = counts["solves"]
    counts["solves"] = 0
    fan = p1_cubed_fan()
    for tau in fan.cones:
        tb.displacement_pairs(fan, tau, v)
    assert (product_solves, counts["solves"]) == (16, 352)
    assert product_solves < counts["solves"]


def test_zero_weight_product_certifies_the_vector(f1_fan, base_algebra, mixing, W1):
    # the vector is certified before any pair is decided, whatever the weights
    zero = tb.MinkowskiWeight(f1_fan, base_algebra, mixing, 1, {})
    for Wa, Wb in ((zero, W1), (W1, zero), (zero, zero)):
        with pytest.raises(tb.NonGenericVector):
            tb.mw_product(Wa, Wb, (1, 1))
    fan = tb.fan_from_ray_lists(2, F1_RAYS, F1_MAX_CONES)
    zero = tb.MinkowskiWeight(fan, base_algebra, mixing, 1, {})
    assert tb.mw_product(zero, zero, (2, 1)).is_zero()
    assert fan._tables["displacement_table"] == ((2, 1), {})


# ---------------------------------------------------------------------------
# the relative Kunneth property


def divisor_weights(fan, mixing):
    """The unit weight with the monomial (), then for each ray j the weight
    of its Courant function (1 on ray j, 0 on the other rays), scaled to
    integer pieces, with the monomial (j,): on a smooth fan the scale is 1
    and the weight is dual to D_j."""
    weights = [(tb.unit_weight(fan, mixing.algebra, mixing), ())]
    for j, ray in enumerate(fan.rays):
        pieces = {}
        for sigma in fan.maximal_cones:
            X, d = tb.lattice.solve_scaled(sigma.rays, [int(r == ray) for r in sigma.rays])
            pieces[sigma] = [Fraction(a, d) for a in X]
        scale = math.lcm(*(c.denominator for piece in pieces.values() for c in piece))
        pieces = {s: tb.Polynomial.linear_form([int(c * scale) for c in piece]) for s, piece in pieces.items()}
        weights.append((tb.pp_to_mw(tb.PiecewisePolynomial(fan, 1, pieces), mixing), (j,)))
    return weights


def exterior_product(W1, W2, product, mixing):
    """(W1 x W2)(tau1 x tau2) = W1(tau1) W2(tau2) on the product fan, whose
    rays are those of W1's fan followed by those of W2's."""
    shift = len(W1.fan.rays)
    values = {}
    for t1, a in W1.values.items():
        for t2, b in W2.values.items():
            key = W1.fan.cone_key(t1) + tuple(shift + j for j in W2.fan.cone_key(t2))
            values[product.cone_by_ray_indices(key)] = a * b
    return tb.MinkowskiWeight(product, mixing.algebra, mixing, W1.codim + W2.codim, values)


def test_products_over_one_base_satisfy_relative_kunneth():
    # the relative Kunneth property: over one base, here P^3 with random
    # mixing rows, the pullbacks p1*w1 = w1 x [fan2] and p2*w2 = [fan1] x w2
    # multiply to the exterior product w1 x w2, and every exterior weight is
    # balanced; on a smooth product, w1 x w2 is also the ring oracle's dual
    # of the product monomial
    rng = random.Random(6)
    p3 = tb.projective_space_algebra(3, "h")
    h = p3.basis_element("h")
    f1 = tb.fan_from_ray_lists(2, F1_RAYS, F1_MAX_CONES)
    p1, p2 = projective_space_fan(1), projective_space_fan(2)
    singular = parse_problem((FIXTURES / "singular_fan.json").read_text()).fan
    checked = Counter()
    for fan1, fan2 in ((f1, p2), (f1, p1), (p2, p2), (singular, p1), (singular, f1)):
        rows1, rows2 = ([h * rng.randint(-2, 2) for _ in range(fan.ambient_rank)] for fan in (fan1, fan2))
        mix1, mix2, mix = tb.MixingMap(p3, rows1), tb.MixingMap(p3, rows2), tb.MixingMap(p3, rows1 + rows2)
        product = fan_product(fan1, fan2)
        v, _attempts = tb.find_generic_vector(product, rng)
        weights1, weights2 = divisor_weights(fan1, mix1), divisor_weights(fan2, mix2)
        unit1, unit2 = weights1[0][0], weights2[0][0]
        for w1, monomial1 in weights1:
            for w2, monomial2 in weights2:
                pullbacks = exterior_product(w1, unit2, product, mix), exterior_product(unit1, w2, product, mix)
                want = exterior_product(w1, w2, product, mix)
                assert all(tb.check_balancing(W).ok for W in (*pullbacks, want))
                assert tb.mw_product(*pullbacks, v) == want, (product, w1, w2)
                checked["products"] += 1
                if product.is_smooth():
                    monomial = monomial1 + tuple(len(fan1.rays) + j for j in monomial2)
                    assert tb.poincare_dual_mw(product, mix, monomial) == want, (product, monomial)
                    checked["smooth"] += 1
    assert checked == {"products": 5 * 4 + 5 * 3 + 4 * 4 + 5 * 3 + 5 * 5, "smooth": 5 * 4 + 5 * 3 + 4 * 4}


# ---------------------------------------------------------------------------
# diagonal classes


def test_diagonal_class_maximal(f1_fan):
    sigma = f1_fan.cone_by_ray_indices([0, 1])
    assert tb.diagonal_class(f1_fan, sigma, (2, 1)) == [(sigma, sigma, 1)]


def test_diagonal_class_origin(f1_fan):
    pairs = tb.diagonal_class(f1_fan, f1_fan.zero_cone(), (2, 1))
    key = f1_fan.cone_key
    got = sorted((key(a), key(b), c) for a, b, c in pairs)
    assert got == [
        ((), (2, 3), 1),
        ((0,), (3,), 1),
        ((0, 1), (), 1),
        ((1,), (2,), 1),
    ]
    assert all(c == 1 for _, _, c in pairs)


def test_diagonal_class_p1(p1_fan):
    pairs = tb.diagonal_class(p1_fan, p1_fan.zero_cone(), (1,))
    key = p1_fan.cone_key
    got = sorted((key(a), key(b), c) for a, b, c in pairs)
    assert got == [((), (1,), 1), ((0,), (), 1)]


def test_diagonal_class_matches_product_enumeration(f1_fan):
    for tau in f1_fan.cones:
        assert tb.diagonal_class(f1_fan, tau, (2, 1)) == tb.displacement_pairs(
            f1_fan, tau, (2, 1)
        )


# ---------------------------------------------------------------------------
# subbundle classes


def test_subbundle_identity(f1_fan):
    out = tb.subbundle_class(f1_fan, tb.full_sublattice(2), (1, 1))
    assert out.terms == {f1_fan.zero_cone(): 1}


def test_subbundle_diagonal_p1p1(p1p1_fan):
    out = tb.subbundle_class(p1p1_fan, tb.Sublattice(2, ((1, 1),)), (1, 0))
    got = {p1p1_fan.cone_key(c): v for c, v in out.terms.items()}
    assert got == {(0,): 1, (3,): 1}


def test_subbundle_skew_index_two(p1p1_fan):
    out = tb.subbundle_class(p1p1_fan, tb.Sublattice(2, ((1, 2),)), (1, 0))
    got = {p1p1_fan.cone_key(c): v for c, v in out.terms.items()}
    assert got == {(0,): 2, (3,): 1}
    # the coefficient is the same index the brute-force coset count gives
    assert tb.lattice_index(2, [(1, 0), (1, 2)]) == 2


def test_subbundle_rejects_nongeneric(p1p1_fan):
    with pytest.raises(tb.NonGenericVector):
        tb.subbundle_class(p1p1_fan, tb.Sublattice(2, ((1, 1),)), (0, 0))


def test_subbundle_rejects_unsaturated_sublattice(p1p1_fan):
    with pytest.raises(tb.NotSaturated):
        tb.subbundle_class(p1p1_fan, tb.Sublattice(2, ((2, 2),)), (1, 0))


def test_subbundle_indices_match_smith_sublattices_in_rank_3_and_4():
    # the coefficients are gcds of minors of span normals and perp(N); the
    # oracle is [N : N_cone + N] from the cone's Smith-form sublattice, for
    # seeded saturated N of every rank 1..n-1
    rng = random.Random(24)
    fans = [
        p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1)),
        cube_fan(1),
        projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1)),
    ]
    checked = Counter()
    for fan in fans:
        n = fan.ambient_rank
        for _ in range(60):
            k = rng.randint(1, n - 1)
            N = tb.saturated_span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
            if N.rank != k:
                continue
            u, _attempts = tb.find_generic_vector(fan, rng, lambda f, u: tb.sigma_v_set(f, N, u).generic)
            for cone, c in tb.subbundle_class(fan, N, u).terms.items():
                assert c == tb.lattice_index(n, tb.saturated_span(n, sorted(cone.rays)).basis + N.basis), (N, cone)
                checked[n, k, c > 1] += 1
    assert sum(checked.values()) > 400 and sum(v for key, v in checked.items() if key[2]) > 250, checked
    assert {(n, k) for n, k, _ in checked} == {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}, checked


def test_subbundle_work_counts(monkeypatch):
    # work counts, not wall time: with the Smith-form memo warm, a subbundle
    # class takes one kernel per distinct cone span, one solve per cone of
    # dimension codim N off every wall and one index per cone in its support
    cases = {
        "(P^1)^3": (p1_cubed_fan(), tb.Sublattice(3, ((1, 1, 1),))),
        "cube": (cube_fan(), tb.Sublattice(3, ((1, 2, 3),))),
    }
    counts = Counter()
    for name in ("rational_kernel", "solve_scaled", "lattice_index"):
        def counted(*args, name=name, real=getattr(tb.fans, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(tb.fans, name, counted)
    got = {}
    for label, (fan, N) in cases.items():
        u, _attempts = tb.find_generic_vector(fan, random.Random(0), lambda f, u: tb.sigma_v_set(f, N, u).generic)
        counts.clear()
        tb.subbundle_class(fan, N, u)
        got[label] = (counts["rational_kernel"], counts["solve_scaled"], counts["lattice_index"])
    assert got == {"(P^1)^3": (8, 12, 3), "cube": (12, 12, 3)}


def test_subbundle_cone_off_every_wall_must_meet(monkeypatch, p1p1_fan):
    # a cone of dimension codim N off every wall meets span(N) + v in one
    # point; a solve that finds none is an invariant violation, not a cone
    # silently dropped, and the check runs under python -O too
    monkeypatch.setattr(tb.fans, "solve_scaled", lambda rows, rhs: None)
    with pytest.raises(tb.InvariantViolation):
        tb.subbundle_class(p1p1_fan, tb.Sublattice(2, ((1, 1),)), (1, 0))


# ---------------------------------------------------------------------------
# weight construction validation


def test_weight_rejects_inhomogeneous(f1_fan, base_algebra, mixing, a1):
    sigma = f1_fan.cone_by_ray_indices([0, 1])
    with pytest.raises(ValueError):
        tb.MinkowskiWeight(f1_fan, base_algebra, mixing, 1, {sigma: a1 + a1 * a1})


def test_weight_rejects_out_of_band(f1_fan, base_algebra, mixing):
    tau = f1_fan.cone_by_ray_indices([0])
    with pytest.raises(ValueError):
        tb.MinkowskiWeight(f1_fan, base_algebra, mixing, 0, {tau: base_algebra.one()})


def test_displacement_work_counts(monkeypatch, f1_fan, mixing):
    # work counts, not wall time: a second product at the same vector reuses
    # the fan's displacement pairs, and no Fourier-Motzkin module is loaded
    # by importing torbun, building fans, genericity, products or subbundles
    p1_cubed = tb.fan_from_ray_lists(
        3,
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    )
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    cases = [
        (f1_fan, mixing, tb.Sublattice(2, ((1, 1),))),
        (p1_cubed, tb.MixingMap(p1, [h, h, p1.zero()]), tb.Sublattice(3, ((1, 1, 1),))),
    ]
    counts = {"solves": 0}

    def counted_solve(rows, rhs):
        counts["solves"] += 1
        return tb.lattice.solve_scaled(rows, rhs)

    monkeypatch.setattr(tb.fans, "solve_scaled", counted_solve)
    for fan, mix, N in cases:
        W1 = tb.poincare_dual_mw(fan, mix, [0])
        W2 = tb.poincare_dual_mw(fan, mix, [2])
        counts["solves"] = 0
        v, _attempts = tb.find_generic_vector(fan, random.Random(0))
        first = tb.mw_product(W1, W2, v)
        u, _attempts = tb.find_generic_vector(fan, random.Random(0), lambda f, u: tb.sigma_v_set(f, N, u).generic)
        tb.subbundle_class(fan, N, u)
        assert fan is f1_fan or counts["solves"] > 0  # the session's F1 may have the pairs already
        counts["solves"] = 0
        assert tb.mw_product(W1, W2, v) == first
        assert counts == {"solves": 0}
    script = """
import random, sys
import torbun as tb
cube = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
fan = tb.fan_from_ray_lists(3, cube, [[i for i, r in enumerate(cube) if r[k] == s] for k in range(3) for s in (1, -1)])
p4 = tb.fan_from_ray_lists(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
                           [[j for j in range(5) if j != i] for i in range(5)])
for f in (fan, p4):
    v, _attempts = tb.find_generic_vector(f, random.Random(0))
    for tau in f.cones:
        tb.displacement_pairs(f, tau, v)
    tb.sigma_v_set(f, tb.Sublattice(f.ambient_rank, ((1,) + (0,) * (f.ambient_rank - 1),)), v)
print(sorted(m for m in sys.modules if "polyhedr" in m or "fm_oracle" in m or "fourier" in m.lower()))
"""
    src = str(Path(tb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert not hasattr(tb, "Polyhedron") and not hasattr(tb.fans, "cone_shift_intersect")


def test_warm_arithmetic_work_counts(monkeypatch):
    # work counts, not wall time: a warm pp_to_mw (with its balancing
    # postcondition) and one more check_balancing on (P^1)^3 build few base
    # classes and polynomials, since sums add into one coefficient dict
    fan = p1_cubed_fan()
    alg = tb.make_free_truncated([("a1", 1), ("a2", 1)], 2)
    a1, a2 = alg.basis_element("a1"), alg.basis_element("a2")
    mix = tb.MixingMap(alg, [a1, a2, a1 - a2])
    courant = [pl_function(fan, [int(i == k) for i in range(6)]) for k in range(6)]
    f = tb.PiecewisePolynomial(fan, 2, {
        s: (courant[0] * courant[2]).pieces[s] - 2 * (courant[4] * courant[5]).pieces[s] + (courant[1] * courant[4]).pieces[s]
        for s in fan.maximal_cones
    })
    W = tb.pp_to_mw(f, mix)  # fills the residue tables and relation rows
    counts = {"__mul__": 0, "elements": 0, "polynomials": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every element and polynomial is built by __init__ or _trusted
    AlgebraElement, Polynomial = tb.AlgebraElement, tb.Polynomial
    monkeypatch.setattr(AlgebraElement, "__mul__", counted("__mul__", AlgebraElement.__mul__))
    for cls, key in ((AlgebraElement, "elements"), (Polynomial, "polynomials")):
        monkeypatch.setattr(cls, "__init__", counted(key, cls.__init__))
        monkeypatch.setattr(cls, "_trusted", classmethod(counted(key, cls._trusted.__func__)))
    again = tb.pp_to_mw(f, mix)
    assert tb.check_balancing(again).ok and again == W
    assert counts["__mul__"] <= 46, counts
    assert counts["elements"] <= 79, counts
    assert counts["polynomials"] <= 81, counts


def test_weights_on_equal_fans_and_cones_outside():
    # fans are equal by value: weights on two fans built alike multiply, and
    # a cone of another fan is refused
    fan, twin = p1_cubed_fan(), p1_cubed_fan()
    assert fan is not twin and fan == twin and fan == fan and fan != p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    W1, W2 = tb.poincare_dual_mw(fan, mix, [0]), tb.poincare_dual_mw(twin, mix, [2])
    assert tb.mw_product(W1, W2, v) == tb.poincare_dual_mw(fan, mix, [0, 2])
    outside = tb.cone_from_rays(3, [(1, 1, 0)])
    with pytest.raises(ValueError):
        tb.MinkowskiWeight(fan, p1, mix, 2, {outside: p1.one()})
    with pytest.raises(ValueError):
        tb.diagonal_class(fan, outside, v)


def test_residue_table_work_counts_and_lifetime(monkeypatch):
    # work counts, not wall time: the residue tables live on the fan, so a
    # second pp_to_mw triangulates no cone (test_fan_tables_die_with_the_fan
    # checks that they die with the fan)
    counts = {"triangulations": 0}

    def counted_triangulate(sigma):
        counts["triangulations"] += 1
        return tb.fans.triangulate_rays(sigma)

    monkeypatch.setattr(tb.equivariant, "triangulate_rays", counted_triangulate)
    fan = cube_fan()
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    # 1 on every ray: s * x_k on the cone over the face x_k = s of the cube
    pieces = {}
    for sigma in fan.maximal_cones:
        k, s = next((k, s) for k in range(3) for s in (1, -1) if all(r[k] == s for r in sigma.rays))
        pieces[sigma] = tb.Polynomial.linear_form([s * int(i == k) for i in range(3)])
    f = tb.PiecewisePolynomial(fan, 1, pieces)
    first = tb.pp_to_mw(f * f, mix)
    assert counts["triangulations"] == len(fan.maximal_cones)
    counts["triangulations"] = 0
    assert tb.pp_to_mw(f * f, mix) == first
    assert tb.pp_to_mw(f, mix).codim == 1
    assert counts == {"triangulations": 0}


def test_relation_rows_work_counts_and_lifetime(monkeypatch):
    # work counts, not wall time: the relation rows live on the fan for the
    # last mixing map, so a second balancing check or a presentation under a
    # mixing map equal in value builds no relation, and an unequal one
    # rebuilds them all (test_fan_tables_die_with_the_fan checks that they
    # die with the fan)
    counts = {"relations": 0}
    relation_at = tb.weights.relation_at

    def counted_relation_at(*args):
        counts["relations"] += 1
        return relation_at(*args)

    monkeypatch.setattr(tb.weights, "relation_at", counted_relation_at)
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    every_row = sum(len(tau.span_normals) for tau in fan.cones)
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    W = tb.poincare_dual_mw(fan, mix, [0, 2])  # its postcondition builds the rows
    assert counts == {"relations": every_row} and every_row == 27
    counts["relations"] = 0
    assert tb.check_balancing(W).ok
    same = tb.MixingMap(p1, [h, p1.zero(), -h])
    assert same == mix and same is not mix
    assert tb.check_balancing(tb.MinkowskiWeight(fan, p1, same, W.codim, W.values)).ok
    tb.homology_presentation(fan, same)
    tb.equivariant_presentation(fan, mix)
    assert counts == {"relations": 0}
    other = tb.MixingMap(p1, [h, h, p1.zero()])
    assert not tb.check_balancing(tb.MinkowskiWeight(fan, p1, other, W.codim, W.values)).ok
    assert counts == {"relations": every_row}
    assert tb.check_balancing(W).ok
    assert counts == {"relations": 2 * every_row}


def test_oracle_and_wall_tables_work_counts_and_lifetime(monkeypatch):
    # work counts, not wall time: the dual characters of the ring oracle and
    # the walls of the compatibility check live on the fan, so a second
    # poincare_dual_mw inverts no dual basis and a second check_pp builds no
    # wall table (test_fan_tables_die_with_the_fan checks that both die with
    # the fan)
    counts = {"dual_bases": 0, "restrictions": 0}
    dual_basis, parameter_forms = tb.presentations.dual_basis, tb.equivariant._parameter_forms

    def counted_dual_basis(rows):
        counts["dual_bases"] += 1
        return dual_basis(rows)

    def counted_parameter_forms(tau):
        counts["restrictions"] += 1
        return parameter_forms(tau)

    monkeypatch.setattr(tb.presentations, "dual_basis", counted_dual_basis)
    monkeypatch.setattr(tb.equivariant, "_parameter_forms", counted_parameter_forms)
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    W = tb.poincare_dual_mw(fan, mix, [0, 0, 2])
    assert counts["dual_bases"] == len(fan._tables["dual_characters"][1]) > 0
    counts["dual_bases"] = 0
    assert tb.poincare_dual_mw(fan, mix, [0, 0, 2]) == W
    # the entries do not depend on the mixing map
    assert tb.poincare_dual_mw(fan, tb.MixingMap(p1, [h, h, p1.zero()]), [0, 0, 2]).codim == 3
    assert counts["dual_bases"] == 0
    walls = [c for c in fan.cones if c.dim == 2]
    f = random_compatible_pp(fan, random.Random(3), 2)
    assert tb.check_pp(f) == [] and counts["restrictions"] == len(walls) == 12
    assert [wall for wall, *_ in fan._tables["walls"][1]] == walls
    counts["restrictions"] = 0
    assert tb.check_pp(f) == [] and tb.pp_to_mw(f, mix).codim == 2
    assert counts["restrictions"] == 0


def test_triangulation_work_counts(monkeypatch):
    # work counts, not wall time: the triangulation is kept on the Cone
    # object, so repeated multiplicities on one cone triangulate it once;
    # equal cones built apart, in any ray order, are other objects, keep
    # triangulations of their own, and give the same e(sigma, tau)
    counts = {"triangulations": 0}

    def counted_triangulate(sigma):
        counts["triangulations"] += 1
        return tb.fans.triangulate_rays(sigma)

    monkeypatch.setattr(tb.equivariant, "triangulate_rays", counted_triangulate)
    square = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]  # a cone over a square: two triangulations
    sigma = tb.cone_from_rays(3, square)
    faces = tb.faces_of(sigma)
    first = [tb.cone_equivariant_multiplicity(sigma, tau) for tau in faces]
    assert [tb.cone_equivariant_multiplicity(sigma, tau) for tau in faces] == first
    assert counts == {"triangulations": 1}
    cones = [tb.cone_from_rays(3, order) for order in itertools.permutations(square)]
    assert len(set(map(id, cones))) == len(cones) and all(c == sigma for c in cones)
    for cone in cones:
        assert [tb.cone_equivariant_multiplicity(cone, tau) for tau in faces] == first
    assert counts == {"triangulations": 1 + len(cones)}
    diagonals = {frozenset(frozenset(rays) for rays, _mult, _duals in c._simplices) for c in cones}
    assert len(diagonals) == 2


def test_candidate_table_work_counts_and_lifetime(monkeypatch):
    # work counts, not wall time: the candidate pairs at each cone live on
    # the fan, so a second product lists no cone's containing cones again
    # (test_fan_tables_die_with_the_fan checks that they die with the fan)
    counts = {"containing": 0}
    cones_containing = tb.Fan.cones_containing

    def counted_containing(fan, tau):
        counts["containing"] += 1
        return cones_containing(fan, tau)

    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    W1, W2 = tb.poincare_dual_mw(fan, mix, [0]), tb.poincare_dual_mw(fan, mix, [2, 4])
    monkeypatch.setattr(tb.Fan, "cones_containing", counted_containing)
    first = tb.mw_product(W1, W2, v)
    assert counts["containing"] == len(fan._tables["pair_candidates"][1]) == len(fan.cones)
    counts["containing"] = 0
    assert tb.mw_product(W1, W2, v) == first
    for tau in fan.cones:
        assert tb.weights._candidates(fan)[tau] is fan._tables["pair_candidates"][1][tau]
        tb.displacement_pairs(fan, tau, v)
    assert counts == {"containing": 0}


P1 = tb.projective_space_algebra(1, "h")
MIX = tb.MixingMap(P1, [P1.basis_element("h"), P1.zero(), -P1.basis_element("h")])

# every table a fan keeps, with one call that builds it on a smooth complete fan
TABLE_USES = {
    "relation_normals": lambda fan: fan.relation_normals(),
    "relation_rows": lambda fan: tb.homology_presentation(fan, MIX),
    "displacement_table": lambda fan: tb.displacement_pairs(fan, fan.zero_cone(), (1, 2, 4)),
    "pair_candidates": lambda fan: tb.displacement_pairs(fan, fan.zero_cone(), (1, 2, 4)),
    "residue_tables": lambda fan: tb.residue_sum(random_compatible_pp(fan, random.Random(3), 2), fan.zero_cone()),
    "walls": lambda fan: tb.check_pp(random_compatible_pp(fan, random.Random(3), 2)),
    "dual_characters": lambda fan: tb.reduce_product(fan, MIX, [0, 0, 2]),
    "normal_forms": lambda fan: tb.reduce_product(fan, MIX, [0, 0, 2]),
}


def test_table_uses_cover_every_table():
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    assert fan._tables == {}
    for use in TABLE_USES.values():
        use(fan)
    assert set(fan._tables) == set(TABLE_USES)


@pytest.mark.parametrize("name", sorted(TABLE_USES))
def test_fan_tables_die_with_the_fan(name):
    # no table a fan keeps, and no module-level memo, holds on to the fan;
    # nor does a table refer back to its fan, so the fan goes as soon as its
    # last reference does, with no cycle left for the collector
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    TABLE_USES[name](fan)
    assert name in fan._tables
    ref = weakref.ref(fan)
    gc.disable()
    try:
        del fan
        freed_at_once = ref() is None
    finally:
        gc.enable()
    gc.collect()
    assert ref() is None
    assert freed_at_once


def test_cones_die_with_their_fan(monkeypatch):
    # a fan owns every cone built for it: no module-level memo keeps one, so
    # each cone, with the triangulation kept on it, goes with the fan
    refs = []
    init = tb.Cone.__init__

    def recorded_init(cone, *args):
        init(cone, *args)
        refs.append(weakref.ref(cone))

    monkeypatch.setattr(tb.Cone, "__init__", recorded_init)
    fan = cube_fan(shear=2)
    tb.pp_to_mw(random_compatible_pp(fan, random.Random(3), 2), MIX)
    assert all(sigma._simplices is not None for sigma in fan.maximal_cones)
    assert len(refs) > len(fan.cones)
    del fan
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []


def test_cone_outside_the_fan_raises_cone_not_in_fan():
    # the per-fan tables are built for every cone at once; a cone outside
    # the fan still raises ConeNotInFan, before the tables are built and after
    fan = p1_cubed_fan()
    W = tb.MinkowskiWeight(fan, P1, MIX, 1, {})
    f = random_compatible_pp(fan, random.Random(3), 1)
    calls = {
        "balancing_sides": lambda tau: tb.balancing_sides(W, tau, (1, -1, 0)),
        "relation_normals": lambda tau: fan.relation_normals()[tau],
        "displacement_pairs": lambda tau: tb.displacement_pairs(fan, tau, (1, 2, 4)),
        "residue_sum": lambda tau: tb.residue_sum(f, tau),
    }
    outside = tb.cone_from_rays(3, [(1, 1, 0)])
    assert fan._tables == {}
    for name, call in calls.items():
        with pytest.raises(tb.ConeNotInFan) as info:
            call(outside)
        assert str(info.value) == "Cone((1, 1, 0),) in Z^3 not in fan", name
        call(fan.zero_cone())
        with pytest.raises(tb.ConeNotInFan) as info:
            call(outside)
        assert str(info.value) == "Cone((1, 1, 0),) in Z^3 not in fan", name
    assert {"relation_normals", "displacement_table", "pair_candidates", "residue_tables"} <= set(fan._tables)


def test_failed_certification_keeps_the_decided_pairs(monkeypatch):
    # a vector on a wall raises NonGenericVector and stores nothing: the
    # pairs decided under the last certified vector stay, so a repeat
    # product under it makes no rational solve
    counts = {"solves": 0}

    def counted_solve(rows, rhs):
        counts["solves"] += 1
        return tb.lattice.solve_scaled(rows, rhs)

    monkeypatch.setattr(tb.fans, "solve_scaled", counted_solve)
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    v, _attempts = tb.find_generic_vector(fan, random.Random(0))
    W1, W2 = tb.poincare_dual_mw(fan, MIX, [0]), tb.poincare_dual_mw(fan, MIX, [2, 4])
    first = tb.mw_product(W1, W2, v)
    assert counts["solves"] > 0
    decided = fan._tables["displacement_table"]
    on_a_wall = (1, 0, 0)  # a ray of the fan
    assert not tb.is_generic_diagonal(fan, on_a_wall)
    with pytest.raises(tb.NonGenericVector):
        tb.mw_product(W1, W2, on_a_wall)
    assert fan._tables["displacement_table"] is decided
    counts["solves"] = 0
    assert tb.mw_product(W1, W2, v) == first
    assert counts == {"solves": 0}


def test_normal_form_work_counts(monkeypatch):
    # work counts, not wall time: the ring oracle's normal forms live on the
    # fan for the last mixing map, so a second poincare_dual_mw or
    # reduce_product under a mixing map equal in value runs no elimination
    # step; an unequal one rebuilds the memo, and switching back gives the
    # same weights from a memo built again
    counts = {"eliminations": 0}
    elimination = tb.presentations._elimination

    def counted_elimination(*args):
        counts["eliminations"] += 1
        return elimination(*args)

    monkeypatch.setattr(tb.presentations, "_elimination", counted_elimination)
    fan = p1_cubed_fan(shear(P1_CUBED_RAYS, 0, 1, 1))
    W = tb.poincare_dual_mw(fan, MIX, [0, 0, 2])
    cold = counts["eliminations"]
    assert cold > 0
    counts["eliminations"] = 0
    h = P1.basis_element("h")
    same = tb.MixingMap(P1, [h, P1.zero(), -h])
    assert same == MIX and same is not MIX
    assert tb.poincare_dual_mw(fan, same, [0, 0, 2]) == W
    assert tb.reduce_product(fan, same, [2, 0, 0]) == tb.reduce_product(fan, MIX, [0, 2, 0])
    assert counts == {"eliminations": 0}
    assert tb.poincare_dual_mw(fan, tb.MixingMap(P1, [h, h, P1.zero()]), [0, 0, 2]).codim == 3
    assert counts["eliminations"] > 0
    counts["eliminations"] = 0
    assert tb.poincare_dual_mw(fan, MIX, [0, 0, 2]) == W
    assert counts == {"eliminations": cold}


def test_monomial_images_work_counts_and_bound(monkeypatch):
    # work counts, not wall time: the images of monomials are kept on the
    # mixing map, one per monomial up to the algebra's top degree and none
    # above it, so a repeated delta_extend multiplies no class; every result
    # equals the images multiplied out term by term
    rng = random.Random(11)
    alg = tb.make_free_truncated([("a1", 1), ("a2", 1)], 3)
    a1, a2 = alg.basis_element("a1"), alg.basis_element("a2")
    counts = {"__mul__": 0}
    mul = tb.AlgebraElement.__mul__

    def counted_mul(a, b):
        counts["__mul__"] += 1
        return mul(a, b)

    for images in ([a1, a2, a1 - a2], [a1, alg.zero(), -a2, a1 + 2 * a2]):
        mix = tb.MixingMap(alg, images)
        n, top = len(images), alg.top_degree
        polys = []
        for _ in range(150):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(rng.randint(0, top + 2)):
                    exps[rng.randrange(n)] += 1
                terms[tuple(exps)] = rng.choice((-3, -1, 1, 2))
            polys.append(tb.Polynomial(n, terms))
        for f in polys:
            want = alg.zero()
            for exps, c in f.terms.items():
                term = alg.one()
                for el, k in zip(images, exps):
                    term = term * el ** k
                want = want + term * c
            assert mix.delta_extend(f) == want
            assert len(mix._monomial_images) <= math.comb(n + top, n)
        assert all(sum(exps) <= top for exps in mix._monomial_images)
        assert len(mix._monomial_images) > math.comb(n + top, n) // 2
        with monkeypatch.context() as patch:
            patch.setattr(tb.AlgebraElement, "__mul__", counted_mul)
            again = [mix.delta_extend(f) for f in polys]
        assert counts == {"__mul__": 0}
        assert again == [mix.delta_extend(f) for f in polys]
