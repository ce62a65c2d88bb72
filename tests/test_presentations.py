"""Homology presentations and the intersection ring oracle."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torbun as tb
from torbun.errors import ConeNotInFan
from torbun.lattice import dot
from torbun.problem import parse_problem

from conftest import (
    FIXTURES,
    P1_CUBED_RAYS,
    cube_fan,
    p1_cubed_fan,
    p1_fourth_fan,
    projective_space_fan,
    shear,
)


def find_relation(pres, fan, tau_key, m):
    for r in pres.relations:
        if fan.cone_key(r.tau) == tau_key and r.m == m:
            return r
    raise AssertionError(f"no relation at {tau_key}, {m}")


# ---------------------------------------------------------------------------
# presentations


def test_divisor_relations(f1_fan, mixing, a1, a2):
    pres = tb.homology_presentation(f1_fan, mixing)
    key = f1_fan.cone_key
    r1 = find_relation(pres, f1_fan, (), (1, 0))
    assert {key(c): v for c, v in r1.lhs.items()} == {(0,): 1, (1,): 1, (3,): -1}
    assert r1.rhs == a1
    assert r1.equivariant_part is None
    r2 = find_relation(pres, f1_fan, (), (0, 1))
    assert {key(c): v for c, v in r2.lhs.items()} == {(1,): 1, (2,): 1, (3,): -1}
    assert r2.rhs == a2


def test_relation_count_and_generators(f1_fan, mixing, base_algebra):
    pres = tb.homology_presentation(f1_fan, mixing)
    assert len(pres.generators) == 9
    # one relation per cone per perp-basis vector: 2 + 4*1 + 4*0
    assert len(pres.relations) == 6
    degrees = {f1_fan.cone_key(c): d for c, d in pres.generators}
    assert degrees[()] == base_algebra.top_degree + 2
    assert degrees[(0, 1)] == base_algebra.top_degree


def test_equivariant_presentation(f1_fan, mixing, a1):
    epres = tb.equivariant_presentation(f1_fan, mixing)
    r1 = find_relation(epres, f1_fan, (), (1, 0))
    assert r1.equivariant_part == (1, 0)
    assert r1.rhs == a1


def test_equivariant_limit_recovers_ordinary(f1_fan, mixing):
    pres = tb.homology_presentation(f1_fan, mixing)
    epres = tb.equivariant_presentation(f1_fan, mixing)
    assert len(pres.relations) == len(epres.relations)
    for r, er in zip(pres.relations, epres.relations):
        assert r.tau == er.tau and r.m == er.m
        assert r.lhs == er.lhs and r.rhs == er.rhs
        assert er.equivariant_part == er.m and r.equivariant_part is None


HISTORY_SCRIPT = """
import itertools, sys
import torbun as tb
rays = [tuple(int(k == i) for k in range(4)) for i in range(4)] + [(-1,) * 4]
rays = [(r[0] + r[1],) + r[1:] for r in rays]  # P^4 under x1 += x2
fan = tb.fan_from_ray_lists(4, rays, list(itertools.combinations(range(5), 4)))
p1 = tb.projective_space_algebra(1, "h")
h = p1.basis_element("h")
if sys.argv[1] == "reversed":
    for c in fan.cones:
        tb.cone_from_rays(4, c.rays[::-1]).sublattice
for r in tb.homology_presentation(fan, tb.MixingMap(p1, [h, p1.zero(), -h, h])).relations:
    print(fan.cone_key(r.tau), r.m, [(fan.cone_key(s), c) for s, c in r.lhs.items()], r.rhs.render())
"""


def test_presentation_independent_of_earlier_calls():
    # a cone's sublattice comes from its sorted rays, so asking first for
    # the sublattices of equal cones with reversed rays changes nothing; a
    # memo keyed by cone equality returned the first caller's basis
    src = str(Path(tb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for mode in ("plain", "reversed"):
        done = subprocess.run(
            [sys.executable, "-c", HISTORY_SCRIPT, mode], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert outputs[0] == outputs[1]
    assert "(2, 3) (0, 1, 0, 0) [((1, 2, 3), 1), ((2, 3, 4), -1)] 0" in outputs[0]


def test_presentations_copy_the_shared_rows(f1_fan, mixing):
    # both presentations read the rows the fan keeps, each relation a fresh
    # copy: the equivariant one marks only its own copies, and changing a
    # returned relation changes no later presentation
    cube = cube_fan(1)
    one_cone = tb.fan_from_ray_lists(2, [(1, 0), (1, 2)], [(0, 1)])
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    cases = [(f1_fan, mixing), (cube, tb.MixingMap(p1, [h, p1.zero(), -h])), (one_cone, tb.MixingMap(p1, [h, h]))]
    for fan, mix in cases:
        def row_by_row(equivariant):
            rows = [tb.weights.relation_at(fan, mix, tau, m) for tau in fan.cones for m in tau.span_normals]
            for r in rows:
                r.equivariant_part = r.m if equivariant else None
            return rows

        generators = [(c, mix.algebra.top_degree + fan.codim(c)) for c in fan.cones]
        epres = tb.equivariant_presentation(fan, mix)
        pres = tb.homology_presentation(fan, mix)
        assert all(r.equivariant_part is None for r in pres.relations)
        assert pres.relations == row_by_row(False) and epres.relations == row_by_row(True)
        assert pres.generators == epres.generators == generators
        for r in pres.relations + epres.relations:
            r.lhs.clear()
            r.equivariant_part = (7,) * fan.ambient_rank
        assert tb.homology_presentation(fan, mix).relations == row_by_row(False)
        assert tb.equivariant_presentation(fan, mix).relations == row_by_row(True)


def test_point_fan_presentation():
    fan = tb.fan_from_ray_lists(0, [], [])
    pt = tb.point_algebra()
    mix = tb.MixingMap(pt, [])
    pres = tb.homology_presentation(fan, mix)
    assert len(pres.generators) == 1
    assert pres.relations == []


# ---------------------------------------------------------------------------
# the ring oracle


def test_reduce_squarefree_face(f1_fan, mixing):
    nf = tb.reduce_product(f1_fan, mixing, [0, 1])
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    assert nf.terms == {s12: mixing.algebra.one()}


def test_reduce_nonface(f1_fan, mixing):
    assert tb.reduce_product(f1_fan, mixing, [0, 2]).terms == {}


def test_reduce_rejects_out_of_range_rays(f1_fan, mixing):
    for monomial in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError):
            tb.reduce_product(f1_fan, mixing, monomial)


def test_reduce_repeated_factor(f1_fan, mixing, a1, a2):
    nf = tb.reduce_product(f1_fan, mixing, [0, 0, 1])
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    assert nf.terms == {s12: a1 - a2}


def test_reduce_confluent_under_reordering(f1_fan, mixing):
    for monomial in [(0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1, 0), (2, 2, 1)]:
        outs = [
            tb.reduce_product(f1_fan, mixing, list(p))
            for p in set(itertools.permutations(monomial))
        ]
        assert all(o == outs[0] for o in outs)


def test_reduce_requires_smooth_complete(mixing):
    singular = tb.fan_from_ray_lists(
        2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    pt = tb.point_algebra()
    mix = tb.MixingMap(pt, [pt.zero(), pt.zero()])
    with pytest.raises(tb.OracleRequiresSmoothComplete):
        tb.reduce_product(singular, mix, [0])
    incomplete = tb.fan_from_ray_lists(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(tb.OracleRequiresSmoothComplete):
        tb.reduce_product(incomplete, mix, [0])


def worklist_reduce(fan, mixing, ray_indices, base=None):
    """The differential oracle: reduce_product by a worklist of (monomial,
    coefficient) pairs, each carrying its whole product of coefficients, and
    nothing shared between monomials or calls."""
    algebra = mixing.algebra
    base = base if base is not None else algebra.one()
    result = tb.RingElement(fan, algebra)
    work = [(tuple(sorted(ray_indices)), base)]
    while work:
        monomial, coeff = work.pop()
        if coeff.is_zero():
            continue
        try:
            cone = fan.cone_by_ray_indices(set(monomial))
        except ConeNotInFan:
            continue
        if len(set(monomial)) == len(monomial):
            result = result.add_term(cone, coeff)
            continue
        rep = next(i for i in monomial if monomial.count(i) > 1)
        rest = list(monomial)
        rest.remove(rep)
        rest = tuple(rest)
        sigma_star = next(s for s in fan.cones_containing(cone) if s.dim == fan.ambient_rank)
        col = tb.lattice.dual_basis(sigma_star.rays)[sigma_star.rays.index(fan.rays[rep])]
        m = tuple(int(c) for c in col)
        work.append((rest, coeff * mixing.delta(m)))
        for j, u in enumerate(fan.rays):
            c = dot(m, u)
            if j != rep and c != 0:
                work.append((tuple(sorted(rest + (j,))), coeff * (-c)))
    return result


def worklist_dual_values(fan, mixing, ray_indices, base):
    """poincare_dual_mw's values from worklist_reduce, one cone at a time."""
    values = {}
    for cone in fan.cones:
        val = tb.pushforward_to_base(worklist_reduce(fan, mixing, list(ray_indices) + list(fan.cone_key(cone)), base))
        if not val.is_zero():
            values[cone] = val
    return values


def oracle_cases():
    """(fan, mixing map, monomials to reduce, monomials to dualise): F1, the
    (P^1)^2 fixtures, (P^1)^3 and its twelve shears over P^1, (P^1)^3 over a
    two-generator base, and P^4 and (P^1)^4 over P^1 with seeded samples."""
    rng = random.Random(23)
    f1 = tb.make_free_truncated([("a1", 1), ("a2", 1)], 4)
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    twist = tb.make_free_truncated([("a1", 1), ("a2", 1)], 2)
    a1, a2 = twist.basis_element("a1"), twist.basis_element("a2")

    def every(fan, length):
        return [m for k in range(length + 1) for m in itertools.combinations_with_replacement(range(len(fan.rays)), k)]

    def sample(fan, length, count):
        return [tuple(rng.randrange(len(fan.rays)) for _ in range(rng.randint(0, length))) for _ in range(count)]

    cases = []
    for name in ("f1_bundle", "p1p1_diagonal", "p1p1_skew"):
        problem = parse_problem((FIXTURES / f"{name}.json").read_text())
        cases.append((problem.fan, problem.mixing, every(problem.fan, 3), every(problem.fan, 2)))
    for rays in [P1_CUBED_RAYS] + [shear(P1_CUBED_RAYS, i, j, s) for i, j in itertools.permutations(range(3), 2) for s in (1, -1)]:
        fan = p1_cubed_fan(rays)
        cases.append((fan, tb.MixingMap(p1, [h, p1.zero(), -h]), sample(fan, 4, 6), sample(fan, 2, 3)))
    fan = p1_cubed_fan()
    cases.append((fan, tb.MixingMap(twist, [a1, a2, a1 - a2]), every(fan, 3), every(fan, 1)))
    for fan in (projective_space_fan(4), p1_fourth_fan()):
        cases.append((fan, tb.MixingMap(p1, [h, -h, p1.zero(), h]), sample(fan, 5, 8), sample(fan, 2, 3)))
    return cases


def test_oracle_matches_worklist():
    # the memoised normal forms against the worklist, with every basis
    # element of the base as the base class
    checked = {"reduce": 0, "eliminated": 0, "dual": 0}
    for fan, mix, reduce_monomials, dual_monomials in oracle_cases():
        algebra = mix.algebra
        bases = [tb.AlgebraElement(algebra, {i: 1}) for i in range(len(algebra.names))]
        for monomial, base in itertools.product(reduce_monomials, bases):
            nf = tb.reduce_product(fan, mix, list(monomial), base)
            assert nf == worklist_reduce(fan, mix, monomial, base), (fan, monomial, base)
            checked["reduce"] += 1
            checked["eliminated"] += len(set(monomial)) < len(monomial) and bool(nf.terms)
        for monomial, base in itertools.product(dual_monomials, bases):
            W = tb.poincare_dual_mw(fan, mix, list(monomial), base)
            assert W.codim == len(monomial) + algebra.degrees[next(iter(base.coeffs))]
            assert W.values == worklist_dual_values(fan, mix, monomial, base), (fan, monomial, base)
            checked["dual"] += 1
    assert checked["reduce"] > 1000 and checked["eliminated"] > 250 and checked["dual"] > 350, checked


def test_oracle_long_monomials_vanish_quickly(f1_fan, mixing):
    # a monomial longer than the rank plus the top degree is 0, found
    # without an elimination step
    start = time.perf_counter()
    assert tb.reduce_product(f1_fan, mixing, [0] * 2000).terms == {}
    W = tb.poincare_dual_mw(f1_fan, mixing, [0] * 2000)
    assert W.values == {} and W.codim == 2000
    assert time.perf_counter() - start < 2
    # one factor fewer than the bound still reduces, to the worklist's answer
    longest = [0] * (f1_fan.ambient_rank + mixing.algebra.top_degree)
    assert tb.reduce_product(f1_fan, mixing, longest) == worklist_reduce(f1_fan, mixing, longest)


# ---------------------------------------------------------------------------
# Poincare-dual weights


def test_dual_weight_tables(f1_fan, mixing, base_algebra, a1, a2):
    one = base_algebra.one()
    W1 = tb.poincare_dual_mw(f1_fan, mixing, [0])
    expected1 = {(1,): one, (3,): one, (0, 1): a1 - a2, (0, 3): a1 - a2}
    assert {f1_fan.cone_key(c): v for c, v in W1.values.items()} == expected1
    W2 = tb.poincare_dual_mw(f1_fan, mixing, [1])
    expected2 = {(0,): one, (1,): -one, (2,): one, (0, 1): a2, (1, 2): a1}
    assert {f1_fan.cone_key(c): v for c, v in W2.values.items()} == expected2


def test_dual_of_one_is_unit(f1_fan, mixing, base_algebra):
    assert tb.poincare_dual_mw(f1_fan, mixing, []) == tb.unit_weight(
        f1_fan, base_algebra, mixing
    )


def test_dual_weights_balance(f1_fan, mixing):
    for rays in [[0], [1], [2], [3], [0, 1], [1, 1], [2, 2, 3]]:
        W = tb.poincare_dual_mw(f1_fan, mixing, rays)
        assert tb.check_balancing(W).ok


def test_oracle_equivalence_all_pairs(f1_fan, mixing):
    classes = {"1": [], "D1": [0], "D2": [1], "D3": [2], "D4": [3]}
    duals = {k: tb.poincare_dual_mw(f1_fan, mixing, v) for k, v in classes.items()}
    for k1, k2 in itertools.combinations_with_replacement(classes, 2):
        lhs = tb.mw_product(duals[k1], duals[k2], (2, 1))
        rhs = tb.poincare_dual_mw(f1_fan, mixing, classes[k1] + classes[k2])
        assert lhs == rhs, (k1, k2)


def test_dual_with_base_coefficient(f1_fan, mixing, base_algebra, a1):
    W = tb.poincare_dual_mw(f1_fan, mixing, [], a1)
    expected = tb.module_action(a1, tb.unit_weight(f1_fan, base_algebra, mixing))
    assert W == expected


def test_oracle_equivalence_rank_three_fibre():
    import random

    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    maxes = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    fan = tb.fan_from_ray_lists(3, rays, maxes)
    assert tb.is_complete(fan) and fan.is_smooth()
    alg = tb.make_free_truncated([("a1", 1)], 2)
    mix = tb.MixingMap(alg, [alg.basis_element("a1"), alg.zero(), alg.zero()])
    v, _ = tb.find_generic_vector(fan, random.Random(0))
    D1 = tb.poincare_dual_mw(fan, mix, [0])
    D3 = tb.poincare_dual_mw(fan, mix, [2])
    D5 = tb.poincare_dual_mw(fan, mix, [4])
    pair = tb.mw_product(D1, D3, v)
    assert pair == tb.poincare_dual_mw(fan, mix, [0, 2])
    assert tb.mw_product(pair, D5, v) == tb.poincare_dual_mw(fan, mix, [0, 2, 4])
    assert tb.mw_product(D1, D1, v) == tb.poincare_dual_mw(fan, mix, [0, 0])


def test_oracle_equivalence_p2_fibre_over_curve_base():
    # projective-plane fibre fan over a curve-like base ring with a
    # nontrivial twist in the first coordinate only
    import random

    fan = tb.fan_from_ray_lists(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    assert tb.is_complete(fan) and fan.is_smooth()
    alg = tb.projective_space_algebra(1)
    mix = tb.MixingMap(alg, [alg.basis_element("h"), alg.zero()])
    v, _ = tb.find_generic_vector(fan, random.Random(1))
    duals = {k: tb.poincare_dual_mw(fan, mix, rays) for k, rays in
             [("1", []), ("D1", [0]), ("D2", [1]), ("D3", [2])]}
    for W in duals.values():
        assert tb.check_balancing(W).ok
    for n1 in duals:
        for n2 in duals:
            rays = {"1": [], "D1": [0], "D2": [1], "D3": [2]}
            lhs = tb.mw_product(duals[n1], duals[n2], v)
            rhs = tb.poincare_dual_mw(fan, mix, rays[n1] + rays[n2])
            assert lhs == rhs, (n1, n2)
