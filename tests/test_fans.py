"""Cones, fans, stars, completeness, triangulation, genericity."""

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import torbun as tb
from torbun.problem import parse_problem

from torbun.lattice import dot

from conftest import (
    F1_MAX_CONES,
    F1_RAYS,
    FIXTURES,
    P1_CUBED_RAYS,
    cube_fan,
    p1_cubed_fan,
    p1_fourth_fan,
    projective_space_fan,
    projective_space_rays,
    shear,
)
from fm_oracle import _contained_in_cone, cone_shift_intersect, single_point_pairs
from quotient_oracle import star_fan


# ---------------------------------------------------------------------------
# cone construction


def contains(cone, point) -> bool:
    """Exact membership of an integer or rational point in a cone."""
    point = tuple(Fraction(c) for c in point)
    return all(dot(w, point) == 0 for w in cone.span_normals) and all(
        dot(u, point) >= 0 for u in cone.facet_normals
    )


def test_cone_facets_2d():
    c = tb.cone_from_rays(2, [(1, 0), (1, 1)])
    assert c.dim == 2
    assert sorted(c.facet_normals) == [(0, 1), (1, -1)]


def test_zero_cone():
    c = tb.cone_from_rays(2, [])
    assert c.is_zero and c.dim == 0
    assert contains(c, (0, 0)) and not contains(c, (1, 0))


def test_not_strongly_convex():
    with pytest.raises(tb.NotStronglyConvex):
        tb.cone_from_rays(2, [(1, 0), (-1, 0)])
    with pytest.raises(tb.NotStronglyConvex):
        tb.cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])


def test_ray_normalization_and_redundancy():
    c = tb.cone_from_rays(2, [(2, 0), (1, 1), (3, 2), (1, 0)])
    # (3,2) is interior, (2,0) duplicates (1,0) after primitivization
    assert sorted(c.rays) == [(1, 0), (1, 1)]


def test_equal_cones_hash_equal():
    # the hash is taken once, from the sorted rays, so the order in which
    # the rays were given does not matter
    rays = [(1, 0, 0), (1, 1, 0), (0, 1, 1)]
    cones = [tb.cone_from_rays(3, p) for p in itertools.permutations(rays)]
    assert len({id(c) for c in cones}) > 1
    assert all(c == cones[0] and hash(c) == hash(cones[0]) for c in cones)
    made = tb.fans.Cone(3, rays[::-1], cones[0].facet_normals)
    assert made == cones[0] and hash(made) == hash(cones[0])
    assert len({cones[0], made, tb.cone_from_rays(3, rays[:2])}) == 2


def test_rank_cap():
    with pytest.raises(tb.RankCapExceeded):
        tb.cone_from_rays(5, [(1, 0, 0, 0, 0)])


def test_cone_membership():
    c = tb.cone_from_rays(2, [(1, 0), (1, 2)])
    assert contains(c, (1, 1)) and contains(c, (3, 0))
    assert not contains(c, (0, 1))
    assert contains(c, (Fraction(1, 2), Fraction(1, 3)))


# ---------------------------------------------------------------------------
# faces


def test_is_face_examples():
    sigma = tb.cone_from_rays(2, [(1, 0), (1, 1)])
    assert tb.is_face(tb.zero_cone(2), sigma)
    assert tb.is_face(tb.cone_from_rays(2, [(1, 0)]), sigma)
    assert tb.is_face(sigma, sigma)
    square = tb.cone_from_rays(2, [(1, 0), (0, 1)])
    assert not tb.is_face(tb.cone_from_rays(2, [(1, 1)]), square)


def test_faces_of_simplex():
    sigma = tb.cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    faces = tb.faces_of(sigma)
    assert len(faces) == 8  # all subsets of three rays
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


def test_faces_of_cone_over_square():
    sigma = tb.cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    faces = tb.faces_of(sigma)
    # 1 zero + 4 rays + 4 two-dimensional facet-adjacent faces + itself
    assert sorted(f.dim for f in faces) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


# ---------------------------------------------------------------------------
# fans


def test_fan_face_closure(f1_fan):
    assert len(f1_fan.cones) == 9
    assert len(f1_fan.maximal_cones) == 4
    # face relation is reflexive and transitive
    for a in f1_fan.cones:
        above = f1_fan.cones_containing(a)
        assert a in above
        for b in above:
            assert set(f1_fan.cones_containing(b)) <= set(above)


def test_fan_rejects_improper_intersections():
    with pytest.raises(tb.InvalidFan):
        tb.fan_from_ray_lists(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])


def test_fan_rejects_improper_intersections_rank_3():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # a ray through the interior of a 3-cone, given as its own cone
    with pytest.raises(tb.InvalidFan):
        tb.fan_from_ray_lists(3, e + [(1, 1, 1)], [(0, 1, 2), (3,)])
    # the same ray as a face of a 2-cone, so it is not maximal
    with pytest.raises(tb.InvalidFan):
        tb.fan_from_ray_lists(3, e + [(1, 1, 1), (-1, 0, 0)], [(0, 1, 2), (3, 4)])
    # two 2-cones crossing inside the plane x3 = 0
    with pytest.raises(tb.InvalidFan):
        tb.fan_from_ray_lists(3, [(1, 0, 0), (1, 2, 0), (1, 1, 0), (0, 1, 0)], [(0, 1), (2, 3)])


def test_fan_requires_primitive_distinct_rays():
    with pytest.raises(ValueError):
        tb.fan_from_ray_lists(2, [(2, 0)], [(0,)])
    with pytest.raises(ValueError):
        tb.fan_from_ray_lists(2, [(1, 0), (1, 0)], [(0,), (1,)])


def test_is_complete(f1_fan, p1_fan):
    assert tb.is_complete(f1_fan)
    assert tb.is_complete(p1_fan)
    point = tb.fan_from_ray_lists(0, [], [])
    assert tb.is_complete(point)


def test_removing_any_maximal_cone_breaks_completeness():
    rays = [(1, 0), (1, 1), (0, 1), (-1, -1)]
    maxes = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for drop in range(4):
        kept = [c for i, c in enumerate(maxes) if i != drop]
        partial = tb.fan_from_ray_lists(2, rays, kept)
        assert not tb.is_complete(partial)


# ---------------------------------------------------------------------------
# the face lattice


def assert_lattice_matches_is_face_sweeps(fan):
    cones = fan.cones
    assert fan.maximal_cones == [
        c for c in cones if not any(c != d and tb.is_face(c, d) for d in cones)
    ]
    for tau in cones:
        assert fan.cones_containing(tau) == [s for s in cones if tb.is_face(tau, s)]
    assert {(t, s) for t in cones for s in fan.cones_containing(t)} == {
        (t, s) for t in cones for s in cones if tb.is_face(t, s)
    }


def test_face_lattice_matches_is_face_sweeps(f1_fan):
    p1_cubed = p1_cubed_fan()
    cube = cube_fan()
    assert (len(p1_cubed.cones), len(p1_cubed.maximal_cones)) == (27, 8)
    assert (len(cube.cones), len(cube.maximal_cones)) == (27, 6)
    for fan in (f1_fan, p1_cubed, cube):
        assert_lattice_matches_is_face_sweeps(fan)
    with pytest.raises(tb.ConeNotInFan):
        f1_fan.cones_containing(tb.cone_from_rays(2, [(2, 1)]))


def _valid_on_all_pairs(fan, memo):
    """The definition of a fan, checked on every pair of cones of the closure
    (pair results memoised across fans).  A face meets its cone in itself."""
    for c1, c2 in itertools.combinations(fan.cones, 2):
        if tb.is_face(c1, c2):
            continue
        if (c1, c2) not in memo:
            common = [f for f in tb.faces_of(c1) if tb.is_face(f, c2)]
            memo[c1, c2] = _contained_in_cone(c1, c2, max(common, key=lambda f: f.dim))
        if not memo[c1, c2]:
            return False
    return True


RAY_POOLS = {
    1: [(1,), (-1,)],
    2: [r for r in itertools.product(range(-2, 3), repeat=2) if any(r) and tb.primitive(r) == r],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (1, 1, 1), (1, 1, 0), (-1, -1, -1), (0, 1, -1)],
    4: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
        (0, 0, 0, -1), (1, 1, 1, 1), (-1, -1, -1, -1), (1, 1, 0, 0), (0, 1, -1, 0)],
}


def test_fan_validation_matches_all_pairs_oracle():
    # validation checks pairs of maximal cones only; random candidate fans
    # must be accepted or rejected exactly as the all-pairs definition says
    rng = random.Random(3)
    memo = {}
    outcomes = Counter()
    for rank, count in ((2, 150), (3, 60), (4, 40)):
        for _ in range(count):
            rays = rng.sample(RAY_POOLS[rank], rng.randint(rank + 1, rank + 2))
            cones = [rng.sample(range(len(rays)), rng.randint(2, rank)) for _ in range(3)]
            try:
                candidate = [tb.cone_from_rays(rank, [rays[i] for i in ix]) for ix in cones]
            except tb.NotStronglyConvex:
                continue
            want = _valid_on_all_pairs(tb.Fan(rank, candidate, rays=rays, validate=False), memo)
            try:
                fan = tb.fan_from_ray_lists(rank, rays, cones)
            except tb.InvalidFan:
                fan = None
            assert (fan is not None) == want, (rays, cones)
            if fan is not None:
                assert_lattice_matches_is_face_sweeps(fan)
            outcomes[rank, want] += 1
    assert outcomes[2, False] + outcomes[3, False] >= 50, outcomes
    assert min(outcomes.values()) >= 5, outcomes


def random_cone_pairs(rng, rank, count):
    """Seeded pairs of cones from RAY_POOLS, the second sharing some rays
    with the first, so that they have common faces beyond 0."""
    pool = RAY_POOLS[rank]
    pairs = []
    while len(pairs) < count:
        first = rng.sample(pool, rng.randint(1, min(len(pool), rank + 1)))
        second = rng.sample(first, rng.randint(0, len(first))) + rng.sample(pool, rng.randint(0, 2))
        try:
            pairs.append((tb.cone_from_rays(rank, first), tb.cone_from_rays(rank, second)))
        except tb.NotStronglyConvex:
            continue
    return pairs


def test_meet_in_face_matches_fourier_motzkin():
    # validation decides whether two cones meet in a common face modulo that
    # face; Fourier-Motzkin decides it in the ambient space.  Every common
    # face of seeded pairs in ranks 1-4, and of all pairs of faces of the
    # cube fan (non-simplicial, lower-dimensional)
    rng = random.Random(8)
    pairs = [p for rank, count in ((1, 6), (2, 60), (3, 60), (4, 40)) for p in random_cone_pairs(rng, rank, count)]
    cube = cube_fan(1)
    pairs += [(c1, c2) for c1 in cube.cones for c2 in cube.cones if c1.dim >= 2 and c2.dim >= 2]
    verdicts = Counter()
    for c1, c2 in pairs:
        common = set(tb.faces_of(c1)) & set(tb.faces_of(c2))
        for tau in common:
            got = tb.fans._meet_in_face(c1, c2, tau)
            assert got == _contained_in_cone(c1, c2, tau), (c1, c2, tau)
            verdicts[c1.ambient_rank, c1.is_simplicial and c2.is_simplicial, got] += 1
    for rank in (2, 3, 4):
        assert verdicts[rank, True, True] and verdicts[rank, True, False], verdicts
    assert verdicts[3, False, True] and verdicts[3, False, False], verdicts
    assert verdicts[1, True, False], verdicts


def count_meet_routes(monkeypatch, certified=None):
    """Count the maximal pairs validation decides, and those of them left to
    the enumeration; append each pair the certificate settles to `certified`."""
    counts = Counter()
    meet, enumeration = tb.fans._meet_in_face, tb.fans._meet_by_enumeration

    def counted_meet(s1, s2, tau):
        counts["pairs"] += 1
        before = counts["enumerated"]
        verdict = meet(s1, s2, tau)
        if certified is not None and counts["enumerated"] == before:
            certified.append((s1, s2, tau))
        return verdict

    def counted_enumeration(s1, s2, tau):
        counts["enumerated"] += 1
        verdict = enumeration(s1, s2, tau)
        counts["enumerated", verdict] += 1
        return verdict

    monkeypatch.setattr(tb.fans, "_meet_in_face", counted_meet)
    monkeypatch.setattr(tb.fans, "_meet_by_enumeration", counted_enumeration)
    return counts


def test_fan_validation_settles_pairs_by_certificate_and_by_enumeration(monkeypatch):
    # a separating functional settles most valid pairs; the enumeration
    # settles the rest, and every invalid one.  What the certificate settles
    # Fourier-Motzkin confirms
    certified = []
    counts = count_meet_routes(monkeypatch, certified)
    rng = random.Random(4)
    for rank, count in ((2, 60), (3, 30), (4, 20)):
        for _ in range(count):
            rays = rng.sample(RAY_POOLS[rank], rng.randint(rank + 1, rank + 2))
            cones = [rng.sample(range(len(rays)), rng.randint(2, rank)) for _ in range(3)]
            try:
                tb.fan_from_ray_lists(rank, rays, cones)
            except (tb.NotStronglyConvex, tb.InvalidFan):
                pass
    assert len(certified) == counts["pairs"] - counts["enumerated"]
    assert certified and counts["enumerated", True] and counts["enumerated", False], counts
    for s1, s2, tau in certified:
        assert _contained_in_cone(s1, s2, tau), (s1, s2, tau)


def test_meet_in_face_falls_back_when_neither_sum_separates(monkeypatch):
    counts = count_meet_routes(monkeypatch)
    s1 = tb.cone_from_rays(2, [(1, 0), (1, 1)])
    s2 = tb.cone_from_rays(2, [(0, 1), (-1, 5)])
    zero = tb.zero_cone(2)
    # s1's sum (1, 0) vanishes on the ray (0, 1) of s2, and s2's sum (4, 1)
    # is positive on the ray (1, 0) of s1; yet the cones meet only in 0
    assert tb.fans._normal_sum(s1, ()) == (1, 0) and tb.fans._normal_sum(s2, ()) == (4, 1)
    assert tb.fans._meet_in_face(s1, s2, zero)
    assert _contained_in_cone(s1, s2, zero)
    assert counts == {"pairs": 1, "enumerated": 1, ("enumerated", True): 1}
    fan = tb.fan_from_ray_lists(2, [(1, 0), (1, 1), (0, 1), (-1, 5)], [(0, 1), (2, 3)])
    assert len(fan.maximal_cones) == 2 and counts["enumerated"] == 2
    # two cones crossing: no certificate exists, and the enumeration rejects
    with pytest.raises(tb.InvalidFan):
        tb.fan_from_ray_lists(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])
    assert counts["enumerated", False] == 1


def clear_torbun_memos():
    """Empty every module-level memo of torbun, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "torbun" or name.startswith("torbun."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# rational eliminations of one cold (P^1)^3 build under a shear: 8 for each
# maximal cone, 2 more for the zero cone's
COLD_P1_CUBED_RREF_CALLS = 66


def test_cold_sheared_p1_cubed_build_work_counts(monkeypatch):
    # faces come from their maximal cones, with no elimination, and a
    # separating functional settles every maximal pair
    counts = count_meet_routes(monkeypatch)
    rref = tb.lattice._rref
    calls = Counter()

    def counted_rref(rows):
        calls["rref"] += 1
        return rref(rows)

    monkeypatch.setattr(tb.lattice, "_rref", counted_rref)
    for i, j in itertools.permutations(range(3), 2):
        for s in (1, -1):
            clear_torbun_memos()
            calls.clear()
            p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s))
            assert calls["rref"] <= COLD_P1_CUBED_RREF_CALLS, (i, j, s, calls)
    assert counts == {"pairs": 12 * 28}, counts


# each ladder fan, with the rational eliminations of one cold build and one
# generic-vector search: the given cones are kept, no zero cone is built
# twice, and span keys are the kernels the cones already took
LADDER_RREF_CALLS = {
    "F1": (lambda: tb.fan_from_ray_lists(2, F1_RAYS, F1_MAX_CONES), 25),
    "(P^1)^3": (p1_cubed_fan, 59),
    "P^4": (lambda: projective_space_fan(4), 83),
    "cube": (cube_fan, 124),
    "(P^1)^4": (p1_fourth_fan, 161),
}


@pytest.mark.parametrize("name", sorted(LADDER_RREF_CALLS))
def test_one_cone_object_per_cone(monkeypatch, name):
    build, bound = LADDER_RREF_CALLS[name]
    calls, given = Counter(), []
    rref, init, cone_from_rays = tb.lattice._rref, tb.Cone.__init__, tb.fans.cone_from_rays

    def counted_rref(rows):
        calls["rref"] += 1
        return rref(rows)

    def counted_init(cone, *args):
        calls["cones"] += 1
        init(cone, *args)

    def recorded_cone_from_rays(*args):
        given.append(cone_from_rays(*args))
        return given[-1]

    monkeypatch.setattr(tb.lattice, "_rref", counted_rref)
    monkeypatch.setattr(tb.Cone, "__init__", counted_init)
    monkeypatch.setattr(tb.fans, "cone_from_rays", recorded_cone_from_rays)
    clear_torbun_memos()
    fan = build()
    assert calls["cones"] == len(fan.cones), calls
    tb.find_generic_vector(fan, random.Random(0))
    assert calls["rref"] <= bound, calls
    assert given and all(c is fan.cone_by_ray_indices(fan.cone_key(c)) for c in given)
    assert fan.zero_cone() is fan.cones[0] and fan.zero_cone().is_zero
    for c in fan.cones:
        assert list(c.rays) == sorted(c.rays), c
        assert c.kernel == tb.lattice.rational_kernel(fan.ambient_rank, c.rays), c
    n = fan.ambient_rank
    outside = tb.cone_from_rays(n, [(1,) * n, (2,) + (1,) * (n - 1)])
    with pytest.raises(tb.ConeNotInFan):
        fan.cone_key(outside)


def test_fan_given_no_cone_has_the_zero_cone():
    for n in range(3):
        for cones in ([], iter([])):
            fan = tb.Fan(n, cones)
            assert fan.cones == (tb.zero_cone(n),) and fan.zero_cone() is fan.cones[0]
            assert tb.is_complete(fan) == (n == 0)


# ---------------------------------------------------------------------------
# faces built from their maximal cones


def test_faces_match_cone_from_rays():
    # every cone of a fan is built from the first cone it is a face of; it
    # must be the cone cone_from_rays builds on its rays.  Facet normals of a
    # lower-dimensional cone are defined modulo its perp, so there only
    # their zero sets on the rays and their signs must agree
    fans = [fixture_fan(path.stem) for path in sorted(FIXTURES.glob("*.json"))]
    fans += [p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s)) for i, j in itertools.permutations(range(3), 2) for s in (1, -1)]
    fans += [cube_fan(), cube_fan(1), projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1)), p1_fourth_fan()]
    full = 0
    for fan in fans:
        for cone in fan.cones:
            want = tb.cone_from_rays(fan.ambient_rank, cone.rays)
            assert (cone.rays, cone.dim, cone.sublattice.basis, cone.span_normals) == (
                want.rays, want.dim, want.sublattice.basis, want.span_normals
            )
            values = [[dot(u, r) for r in cone.rays] for u in cone.facet_normals]
            assert all(e >= 0 for row in values for e in row), cone
            zero_sets = lambda c: [frozenset(r for r in c.rays if dot(u, r) == 0) for u in c.facet_normals]
            assert len(cone.facet_normals) == len(want.facet_normals), cone
            assert set(zero_sets(cone)) == set(zero_sets(want)), cone
            if cone.dim == fan.ambient_rank:
                assert sorted(cone.facet_normals) == sorted(want.facet_normals), cone
                full += 1
    assert full >= 12 * 8 + 2 * 6 + 5 + 16


def subset_walk_faces(sigma, built):
    """The faces of sigma by the walk over all 2^k subsets of its k rays,
    the face enumeration the closure replaced, kept as its oracle: ray set
    -> (sorted rays, facet normals).  The smallest face containing a subset
    is where _normal_sum of the subset vanishes.  A face not yet in `built`
    is added there, with as facet normals the first of sigma's normals
    giving each inclusion-maximal proper zero set on the face."""
    faces = {}
    for k in range(len(sigma.rays) + 1):
        for subset in itertools.combinations(sigma.rays, k):
            total = tb.fans._normal_sum(sigma, subset)
            face = frozenset(r for r in sigma.rays if dot(total, r) == 0)
            if face in faces:
                continue
            if face not in built:
                rays = tuple(sorted(face))
                zeros = {}
                for u in sigma.facet_normals:
                    z = frozenset(r for r in rays if dot(u, r) == 0)
                    if len(z) < len(rays):
                        zeros.setdefault(z, u)
                built[face] = (rays, tuple(u for z, u in zeros.items() if not any(z < other for other in zeros)))
            faces[face] = built[face]
    return faces


def assert_faces_match_subset_walk(rank, rays, cones):
    """faces_of each input cone, and every cone of the fan on them, have
    exactly the subset walk's ray sets, and its facet normals in the same
    order; each face of the fan comes from the first input cone it is a
    face of, taken on its rays in sorted order.  is_face agrees with the
    walk on every set of at most two rays."""
    fan = tb.fan_from_ray_lists(rank, rays, cones)
    built = {}
    for ix in cones:
        sigma = tb.cone_from_rays(rank, [rays[i] for i in ix])
        subset_walk_faces(tb.cone_from_rays(rank, sorted(sigma.rays)), built)
        faces = tb.faces_of(sigma)
        got = {frozenset(f.rays): (f.rays, f.facet_normals) for f in faces}
        want = subset_walk_faces(sigma, {})
        assert got == want and len(faces) == len(want), sigma
        for k in range(3):
            for subset in itertools.combinations(sigma.rays, k):
                tau = tb.cone_from_rays(rank, subset)
                assert tb.is_face(tau, sigma) == (frozenset(subset) in want), (tau, sigma)
    built.setdefault(frozenset(), ((), ()))
    assert {frozenset(c.rays): (c.rays, c.facet_normals) for c in fan.cones} == built
    return fan


def fan_spec(fan):
    """(rank, rays, maximal cones by ray index) of a fan."""
    return fan.ambient_rank, list(fan.rays), [fan.cone_key(c) for c in fan.maximal_cones]


def seeded_polytope_cones(rng):
    """Seeded cones over polytopes of at most 10 vertices, each with its
    negative, as (rank, rays, cones), all under random shears: k-gons
    (1, t, t^2), cyclic polytopes (1, t, t^2, t^3), and polytopes on random
    points (1, a, b, c) of {1} x {-1, 0, 1}^3, many with non-simplicial
    facets."""
    specs = []
    for rank, kind, ks in ((3, "moment", range(3, 11)), (4, "moment", range(4, 11)), (4, "cube", range(5, 11))):
        for k in ks:
            if kind == "cube":
                points = rng.sample(list(itertools.product((-1, 0, 1), repeat=3)), k)
                rays = [(1,) + p for p in points]
            else:
                rays = [tuple(t**e for e in range(rank)) for t in rng.sample(range(-6, 7), k)]
            for _ in range(3):
                i, j = rng.sample(range(rank), 2)
                rays = shear(rays, i, j, rng.choice((1, -1)))
            rays = tb.cone_from_rays(rank, rays).rays
            negated = [tuple(-c for c in r) for r in rays]
            specs.append((rank, list(rays) + negated, [range(len(rays)), range(len(rays), 2 * len(rays))]))
    return specs


def test_faces_match_subset_walk():
    specs = []
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text())
        specs.append((raw["lattice_rank"], [tuple(r) for r in raw["rays"]], raw["cones"]))
    fans = [p1_cubed_fan(shear(P1_CUBED_RAYS, i, j, s)) for i, j in itertools.permutations(range(3), 2) for s in (1, -1)]
    fans += [p1_cubed_fan(), cube_fan(), cube_fan(1), projective_space_fan(3), projective_space_fan(4),
             projective_space_fan(4, shear(projective_space_rays(4), 0, 1, 1)), p1_fourth_fan()]
    specs += [fan_spec(fan) for fan in fans]
    specs += seeded_polytope_cones(random.Random(12))
    shapes = Counter()
    for rank, rays, cones in specs:
        fan = assert_faces_match_subset_walk(rank, rays, cones)
        for cone in fan.cones:
            shapes[cone.dim, cone.is_simplicial] += 1
    # non-simplicial cones of every dimension they can have
    assert shapes[3, False] and shapes[4, False], shapes


# ---------------------------------------------------------------------------
# star fans


def test_star_fan_of_ray_is_p1(f1_fan):
    tau2 = f1_fan.cone_by_ray_indices([1])
    star, q = star_fan(tau2, f1_fan)
    assert star.ambient_rank == 1
    assert sorted(star.rays) == [(-1,), (1,)]
    assert tb.is_complete(star)
    assert len(star.cones) == len(f1_fan.cones_containing(tau2))


def test_star_fan_of_zero_cone(f1_fan):
    star, q = star_fan(f1_fan.zero_cone(), f1_fan)
    assert star == f1_fan


def test_star_fan_of_maximal_cone(f1_fan):
    sigma = f1_fan.cone_by_ray_indices([0, 1])
    star, q = star_fan(sigma, f1_fan)
    assert star.ambient_rank == 0
    assert len(star.cones) == 1


def test_star_fan_requires_membership(f1_fan):
    with pytest.raises(tb.ConeNotInFan):
        star_fan(tb.cone_from_rays(2, [(2, 1)]), f1_fan)


# ---------------------------------------------------------------------------
# shifted intersections and genericity


def test_cone_shift_intersect_examples(f1_fan):
    z = f1_fan.zero_cone()
    p = cone_shift_intersect(z, z, (0, 0))
    assert p.is_single_point
    s12 = f1_fan.cone_by_ray_indices([0, 1])
    s23 = f1_fan.cone_by_ray_indices([1, 2])
    s34 = f1_fan.cone_by_ray_indices([2, 3])
    assert not cone_shift_intersect(s12, s23, (2, 1)).is_empty
    assert cone_shift_intersect(s34, s12, (2, 1)).is_empty


def test_zero_shift_contains_origin(f1_fan):
    for s1 in f1_fan.cones:
        for s2 in f1_fan.cones:
            assert not cone_shift_intersect(s1, s2, (0, 0)).is_empty


def test_is_generic_diagonal_examples(f1_fan):
    assert tb.is_generic_diagonal(f1_fan, (2, 1))
    assert not tb.is_generic_diagonal(f1_fan, (1, 1))
    assert not tb.is_generic_diagonal(f1_fan, (0, 0))


def test_genericity_against_analytic_oracle(f1_fan):
    # for this fan a vector is generic exactly when it avoids the ray spans,
    # the lines x1 = 0, x2 = 0 and x1 = x2
    rng = random.Random(42)
    for _ in range(100):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        expected = v[0] != 0 and v[1] != 0 and v[0] != v[1]
        assert tb.is_generic_diagonal(f1_fan, v) == expected, v


def test_find_generic_vector_deterministic(f1_fan):
    v1, att1 = tb.find_generic_vector(f1_fan, random.Random(0))
    v2, att2 = tb.find_generic_vector(f1_fan, random.Random(0))
    assert v1 == v2 and att1 == att2
    assert tb.is_generic_diagonal(f1_fan, v1)


def fm_is_generic_diagonal(fan, v):
    """The Fourier-Motzkin certifier the wall test replaced: no pair in
    single_point_pairs(fan, v) has non-complementary dimensions.  Only those
    pairs are computed, which is several times faster."""
    n = fan.ambient_rank
    return all(
        cone_shift_intersect(s1, s2, v).dim != 0
        for s1 in fan.cones
        for s2 in fan.cones
        if s1.dim + s2.dim != n
    )


def fm_displacement_pairs(fan, tau, v):
    """Cone pairs over tau of complementary codimension whose shifted
    intersection is non-empty, by Fourier-Motzkin."""
    containing = fan.cones_containing(tau)
    return [
        (s1, s2)
        for s1 in containing
        for s2 in containing
        if fan.codim(s1) + fan.codim(s2) == fan.codim(tau)
        and not cone_shift_intersect(s1, s2, v).is_empty
    ]


def fixture_fan(name):
    return parse_problem((FIXTURES / f"{name}.json").read_text()).fan


@pytest.fixture(scope="module")
def complete_fans(f1_fan):
    return {
        "f1": f1_fan,
        "singular_fan": fixture_fan("singular_fan"),
        "p1p1_skew": fixture_fan("p1p1_skew"),
        "p1^3": p1_cubed_fan(),
        "cube": cube_fan(),
        "sheared cube": cube_fan(1),
    }


def test_walls_match_fm_certifier(complete_fans):
    # on complete fans the wall test and the Fourier-Motzkin test agree;
    # Fourier-Motzkin takes up to seconds per generic vector in rank 3
    rng = random.Random(11)
    verdicts = Counter()
    for name in ("f1", "singular_fan", "p1p1_skew", "p1^3", "cube"):
        fan = complete_fans[name]
        n = fan.ambient_rank
        vectors = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range({2: 8, 3: 1}[n])]
        vectors.append(tb.find_generic_vector(fan, random.Random(0))[0])
        for v in vectors:
            walls = tb.is_generic_diagonal(fan, v)
            assert walls == fm_is_generic_diagonal(fan, v), (name, v)
            verdicts[n, walls] += 1
    assert all(verdicts[n, walls] for n in (2, 3) for walls in (True, False))


def test_displacement_pairs_match_fm(complete_fans):
    for name, fan in complete_fans.items():
        v, _attempts = tb.find_generic_vector(fan, random.Random(0))
        for tau in fan.cones:
            got = [(s1, s2) for s1, s2, _index in tb.displacement_pairs(fan, tau, v)]
            assert got == fm_displacement_pairs(fan, tau, v), (name, v, tau)


def test_displacement_pairs_reject_wall_vector(f1_fan):
    # (1, 1) spans the ray of (1, 1): the pair (ray, ray) at the origin is on a wall
    with pytest.raises(tb.NonGenericVector):
        tb.displacement_pairs(f1_fan, f1_fan.zero_cone(), (1, 1))


def test_walls_stricter_than_fm_off_complete_fans():
    # the cone over a square is not complete.  (3, 2, 2) = 3 (1,0,0) + 2 (0,1,1)
    # lies on the wall spanned by those two rays, yet no shifted intersection
    # is a single point of cones of the wrong dimensions, so only the wall
    # test rejects it
    fan = fixture_fan("cone_over_square")
    assert not tb.is_generic_diagonal(fan, (3, 2, 2))
    assert fm_is_generic_diagonal(fan, (3, 2, 2))


# ---------------------------------------------------------------------------
# sigma_v_set


def test_sigma_v_full_sublattice(f1_fan):
    res = tb.sigma_v_set(f1_fan, tb.full_sublattice(2), (0, 0))
    assert res.cones == [f1_fan.zero_cone()]
    assert res.generic
    res2 = tb.sigma_v_set(f1_fan, tb.full_sublattice(2), (2, 1))
    assert res2.cones == [f1_fan.zero_cone()] and res2.generic


def test_sigma_v_diagonal_p1p1(p1p1_fan):
    N = tb.Sublattice(2, ((1, 1),))
    res = tb.sigma_v_set(p1p1_fan, N, (1, 0))
    keys = sorted(p1p1_fan.cone_key(c) for c in res.cones)
    assert keys == [(0,), (3,)]  # the rays (1,0) and (0,-1)
    assert res.generic


def test_sigma_v_nongeneric_zero(p1p1_fan):
    N = tb.Sublattice(2, ((1, 1),))
    res = tb.sigma_v_set(p1p1_fan, N, (0, 0))
    assert not res.generic
    assert p1p1_fan.zero_cone() in res.offending


def fan_product(f1, f2):
    """Product fan in the direct-sum lattice (no revalidation needed)."""
    n1, n2 = f1.ambient_rank, f2.ambient_rank
    rays = [tuple(r) + (0,) * n2 for r in f1.rays] + [(0,) * n1 + tuple(r) for r in f2.rays]
    cones = []
    for c1 in f1.cones:
        for c2 in f2.cones:
            lifted = [tuple(r) + (0,) * n2 for r in c1.rays] + [(0,) * n1 + tuple(r) for r in c2.rays]
            cones.append(tb.cone_from_rays(n1 + n2, lifted))
    return tb.Fan(n1 + n2, cones, rays=rays, validate=False)


def test_sigma_v_matches_single_point_pairs(f1_fan):
    # the diagonal restatement: cones of the product fan meeting the shifted
    # diagonal in one point correspond to single-point shifted intersections
    v = (2, 1)
    product = fan_product(f1_fan, f1_fan)
    diag = tb.Sublattice(4, ((1, 0, 1, 0), (0, 1, 0, 1)))
    res = tb.sigma_v_set(product, diag, (v[0], v[1], 0, 0))
    got = set()
    for cone in res.cones:
        first = frozenset(r[:2] for r in cone.rays if any(r[:2]))
        second = frozenset(r[2:] for r in cone.rays if any(r[2:]))
        got.add((first, second))
    expected = set()
    for s1, s2 in single_point_pairs(f1_fan, v):
        expected.add((frozenset(s1.rays), frozenset(s2.rays)))
    assert got == expected
    assert res.generic


# ---------------------------------------------------------------------------
# triangulation and multiplicity


def test_triangulate_simplicial_identity():
    sigma = tb.cone_from_rays(2, [(1, 0), (1, 2)])
    assert tb.triangulate(sigma) == [sigma]
    z = tb.zero_cone(3)
    assert tb.triangulate(z) == [z]


def test_triangulate_cone_over_square():
    sigma = tb.cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    pieces = tb.triangulate(sigma)
    assert len(pieces) == 2
    assert all(p.is_simplicial and p.dim == 3 for p in pieces)
    assert all(set(p.rays) <= set(sigma.rays) for p in pieces)
    # pairwise intersection is a common face (face-to-face)
    a, b = pieces
    shared = [f for f in tb.faces_of(a) if tb.is_face(f, b)]
    top = max(shared, key=lambda f: f.dim)
    assert top.dim == 2
    # coverage: random nonnegative combinations of rays land in some piece
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(0, 20), rng.randint(1, 7)) for _ in sigma.rays]
        pt = tuple(sum(c * r[i] for c, r in zip(coeffs, sigma.rays)) for i in range(3))
        assert any(contains(p, pt) for p in pieces)


def test_triangulation_multiplicity_sum_order_invariant():
    orders = [
        [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
        [(0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1)],
        [(1, 0, 1), (0, 1, 1), (0, 1, 0), (1, 0, 0)],
    ]
    sums = set()
    for rays in orders:
        pieces = tb.triangulate(tb.cone_from_rays(3, rays))
        sums.add(sum(tb.multiplicity(p) for p in pieces))
    assert sums == {2}


def test_multiplicity_examples():
    assert tb.multiplicity(tb.cone_from_rays(2, [(1, 0), (1, 1)])) == 1
    assert tb.multiplicity(tb.cone_from_rays(2, [(1, 0), (1, 2)])) == 2
    assert tb.multiplicity(tb.cone_from_rays(2, [(1, 2)])) == 1
    with pytest.raises(tb.NotSimplicial):
        tb.multiplicity(tb.cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]))
