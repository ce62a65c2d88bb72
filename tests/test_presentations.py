"""Homology presentations and the intersection ring oracle."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torbun as tb

from conftest import cube_fan


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
        tb.cone_sublattice(tb.cone_from_rays(4, c.rays[::-1]))
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
