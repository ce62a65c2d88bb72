"""Rational polyhedral cones and fans.

Cones are given by primitive ray generators; facet structure is computed by
brute-force hyperplane enumeration, which is exact and adequate up to the
declared ambient-rank cap of 4.  Fans are closed under faces and verified to
intersect pairwise in common faces.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConeNotInFan,
    InvalidFan,
    NonGenericVector,
    NotSaturated,
    NotSimplicial,
    NotStronglyConvex,
    RankCapExceeded,
)
from .lattice import (
    Sublattice,
    Vec,
    dot,
    is_saturated,
    is_zero,
    perp_basis,
    primitive,
    quotient_map,
    rational_rank,
    saturated_span,
    snf,
    vec_add,
    vec_neg,
)
from .polyhedra import Polyhedron

RANK_CAP = 4
GENERIC_SEARCH_ATTEMPTS = 1000


class Cone:
    """A strongly convex rational polyhedral cone."""

    __slots__ = ("ambient_rank", "rays", "dim", "facet_normals", "span_normals", "_key")

    def __init__(self, ambient_rank, rays, dim, facet_normals, span_normals):
        self.ambient_rank = ambient_rank
        self.rays = tuple(rays)
        self.dim = dim
        self.facet_normals = tuple(facet_normals)
        self.span_normals = tuple(span_normals)
        self._key = (ambient_rank, tuple(sorted(self.rays)))

    def __eq__(self, other):
        return isinstance(other, Cone) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Cone{self.rays} in Z^{self.ambient_rank}"

    @property
    def is_zero(self) -> bool:
        return not self.rays

    @property
    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def contains(self, point) -> bool:
        """Exact membership for integer or rational points."""
        point = tuple(Fraction(c) for c in point)
        return all(dot(w, point) == 0 for w in self.span_normals) and all(
            dot(u, point) >= 0 for u in self.facet_normals
        )

    def interior_point(self) -> Vec:
        """A lattice point in the relative interior (sum of the rays)."""
        out = (0,) * self.ambient_rank
        for r in self.rays:
            out = vec_add(out, r)
        return out


def zero_cone(ambient_rank: int) -> Cone:
    return cone_from_rays(ambient_rank, ())


def cone_from_rays(ambient_rank: int, rays) -> Cone:
    """Build a cone: primitivize and deduplicate rays, keep only the extreme
    ones, compute facet normals, and verify strong convexity."""
    if ambient_rank > RANK_CAP:
        raise RankCapExceeded(f"facet enumeration capped at ambient rank {RANK_CAP}")
    prims = []
    for r in rays:
        p = primitive(tuple(r))
        if p not in prims:
            prims.append(p)
    return _cone_from_primitive_rays(ambient_rank, tuple(prims))


@lru_cache(maxsize=None)
def _cone_from_primitive_rays(ambient_rank: int, prims: tuple) -> Cone:
    span = saturated_span(ambient_rank, prims)
    d = span.rank
    span_normals = tuple(perp_basis(span))
    facets = _facet_normals(ambient_rank, prims, d, span_normals)
    all_normals = list(facets.values()) + list(span_normals)
    if rational_rank([list(map(Fraction, v)) for v in all_normals] or [[Fraction(0)] * ambient_rank]) != ambient_rank:
        if ambient_rank > 0:
            raise NotStronglyConvex(f"cone on {prims} contains a line")
    extreme = []
    for r in prims:
        vanishing = [u for u in all_normals if dot(u, r) == 0]
        if rational_rank([list(map(Fraction, v)) for v in vanishing] or [[Fraction(0)] * ambient_rank]) == ambient_rank - 1:
            extreme.append(r)
    return Cone(ambient_rank, extreme, d, tuple(facets.values()), span_normals)


def _facet_normals(ambient_rank, prims, d, span_normals):
    """Facet normals keyed by the frozenset of rays they annihilate."""
    facets = {}
    if d == 0:
        return facets
    for subset in itertools.combinations(prims, d - 1):
        if subset and rational_rank([list(map(Fraction, v)) for v in subset]) != d - 1:
            continue
        K = perp_basis(saturated_span(ambient_rank, subset))
        candidate = None
        for u in K:
            evals = [dot(u, r) for r in prims]
            if any(e != 0 for e in evals):
                candidate = (u, evals)
                break
        if candidate is None:
            continue
        u, evals = candidate
        if all(e >= 0 for e in evals):
            pass
        elif all(e <= 0 for e in evals):
            u = vec_neg(u)
            evals = [-e for e in evals]
        else:
            continue
        vanishing = frozenset(r for r, e in zip(prims, evals) if e == 0)
        if vanishing not in facets:
            facets[vanishing] = primitive(u)
    return facets


@lru_cache(maxsize=None)
def cone_sublattice(cone: Cone) -> Sublattice:
    """The saturated sublattice generated by the cone's lattice points."""
    return saturated_span(cone.ambient_rank, cone.rays)


@lru_cache(maxsize=None)
def is_face(tau: Cone, sigma: Cone) -> bool:
    """True iff tau is cut out of sigma by a supporting normal (tau=sigma ok)."""
    if tau.ambient_rank != sigma.ambient_rank:
        raise ValueError("ambient rank mismatch")
    tau_rays = set(tau.rays)
    sigma_rays = set(sigma.rays)
    if not tau_rays <= sigma_rays:
        return False
    return _minimal_face_rays(sigma, frozenset(tau.rays)) == frozenset(tau.rays)


def _minimal_face_rays(sigma: Cone, subset: frozenset) -> frozenset:
    """Rays of the smallest face of sigma containing the given rays."""
    total = (0,) * sigma.ambient_rank
    found = False
    for u in sigma.facet_normals:
        if all(dot(u, r) == 0 for r in subset):
            total = vec_add(total, u)
            found = True
    if not found:
        return frozenset(sigma.rays)
    return frozenset(r for r in sigma.rays if dot(total, r) == 0)


def faces_of(sigma: Cone):
    """All faces of a cone, as cones (including itself and the zero cone)."""
    seen = {}
    for k in range(len(sigma.rays) + 1):
        for subset in itertools.combinations(sigma.rays, k):
            face_rays = _minimal_face_rays(sigma, frozenset(subset))
            if face_rays not in seen:
                seen[face_rays] = cone_from_rays(sigma.ambient_rank, tuple(sorted(face_rays)))
    return list(seen.values())


def _cone_pair_polyhedron(c1: Cone, c2: Cone, shift=None) -> Polyhedron:
    n = c1.ambient_rank
    shift = shift or (0,) * n
    ineqs = [(u, 0) for u in c1.facet_normals]
    eqs = [(w, 0) for w in c1.span_normals]
    ineqs += [(u, dot(u, shift)) for u in c2.facet_normals]
    eqs += [(w, dot(w, shift)) for w in c2.span_normals]
    return Polyhedron(n, ineqs, eqs)


def cone_shift_intersect(sigma1: Cone, sigma2: Cone, v) -> Polyhedron:
    """The polyhedron sigma1 intersect (sigma2 + v)."""
    if sigma1.ambient_rank != sigma2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return _cone_pair_polyhedron(sigma1, sigma2, tuple(v))


@lru_cache(maxsize=None)
def _shift_dim(sigma1: Cone, sigma2: Cone, v: Vec) -> int:
    return cone_shift_intersect(sigma1, sigma2, v).dim


class Fan:
    """A fan: cones closed under faces, intersecting in common faces."""

    def __init__(self, ambient_rank, cones, rays=None, validate=True):
        self.ambient_rank = ambient_rank
        closure = {}
        for c in cones:
            for f in faces_of(c):
                closure[f] = None
        z = zero_cone(ambient_rank)
        closure.setdefault(z, None)
        if rays is None:
            rays = []
            for c in closure:
                for r in c.rays:
                    if r not in rays:
                        rays.append(r)
            rays.sort()
        self.rays = tuple(tuple(r) for r in rays)
        self._ray_index = {r: i for i, r in enumerate(self.rays)}
        for c in closure:
            for r in c.rays:
                if r not in self._ray_index:
                    raise ValueError(f"cone ray {r} missing from fan ray list")
        self.cones = tuple(sorted(closure, key=self.cone_sort_key))
        if validate:
            self._validate()
        self.face_relations = frozenset(
            (t, s) for t in self.cones for s in self.cones if is_face(t, s)
        )
        self._containing = {}

    # -- bookkeeping -----------------------------------------------------------

    def cone_key(self, cone: Cone):
        return tuple(sorted(self._ray_index[r] for r in cone.rays))

    def cone_sort_key(self, cone: Cone):
        return (cone.dim, self.cone_key(cone))

    def cone_by_ray_indices(self, indices) -> Cone:
        want = frozenset(self.rays[i] for i in indices)
        for c in self.cones:
            if frozenset(c.rays) == want:
                return c
        raise ConeNotInFan(f"no cone on rays {sorted(indices)}")

    def _validate(self):
        for c1, c2 in itertools.combinations(self.cones, 2):
            common = [f for f in faces_of(c1) if is_face(f, c2)]
            best = max(common, key=lambda f: f.dim)
            if not _contained_in_cone(c1, c2, best):
                raise InvalidFan(
                    f"cones {self.cone_key(c1)} and {self.cone_key(c2)} do not meet in a face"
                )

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and frozenset(self.cones) == frozenset(other.cones)
        )

    def __hash__(self):
        return hash((self.ambient_rank, frozenset(self.cones)))

    def __repr__(self):
        return f"Fan(rank {self.ambient_rank}, {len(self.cones)} cones)"

    # -- queries ---------------------------------------------------------------

    @property
    def maximal_cones(self):
        return [c for c in self.cones if not any(c != d and is_face(c, d) for d in self.cones)]

    def cones_containing(self, tau: Cone):
        if tau not in self._containing:
            if tau not in set(self.cones):
                raise ConeNotInFan(f"{tau} not in fan")
            self._containing[tau] = [s for s in self.cones if is_face(tau, s)]
        return self._containing[tau]

    def codim(self, cone: Cone) -> int:
        return self.ambient_rank - cone.dim

    def zero_cone(self) -> Cone:
        return zero_cone(self.ambient_rank)

    def is_smooth(self) -> bool:
        return all(c.is_simplicial and multiplicity(c) == 1 for c in self.cones)

    def is_simplicial(self) -> bool:
        return all(c.is_simplicial for c in self.cones)


def fan_from_ray_lists(ambient_rank, rays, cones_as_indices) -> Fan:
    rays = [tuple(r) for r in rays]
    for r in rays:
        if is_zero(r):
            raise ValueError("zero ray")
        if primitive(r) != r:
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    cones = [cone_from_rays(ambient_rank, [rays[i] for i in ixs]) for ixs in cones_as_indices]
    return Fan(ambient_rank, cones, rays=rays)


def _contained_in_cone(c1: Cone, c2: Cone, target: Cone) -> bool:
    """Exact check that c1 intersect c2 is contained in target."""
    base = _cone_pair_polyhedron(c1, c2)
    n = c1.ambient_rank
    checks = []
    for u in target.facet_normals:
        checks.append([(tuple(-a for a in u), 1)])
    for w in target.span_normals:
        checks.append([(w, 1)])
        checks.append([(tuple(-a for a in w), 1)])
    for extra in checks:
        ineqs = [(c, b) for (c, b, _s) in base.rows] + extra
        if not Polyhedron(n, ineqs).is_empty:
            return False
    return True


def is_complete(fan: Fan) -> bool:
    """Support covers the whole space: pure, every ridge in exactly two
    maximal cones, and the maximal cones connected through shared ridges."""
    n = fan.ambient_rank
    maxes = fan.maximal_cones
    if not maxes:
        return False
    if any(c.dim != n for c in maxes):
        return False
    ridges = [c for c in fan.cones if c.dim == n - 1]
    adjacency = {id(c): set() for c in maxes}
    for ridge in ridges:
        owners = [c for c in maxes if is_face(ridge, c)]
        if len(owners) != 2:
            return False
        adjacency[id(owners[0])].add(id(owners[1]))
        adjacency[id(owners[1])].add(id(owners[0]))
    seen = {id(maxes[0])}
    frontier = [id(maxes[0])]
    while frontier:
        cur = frontier.pop()
        for nbr in adjacency[cur]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == len(maxes)


def star_fan(tau: Cone, fan: Fan):
    """The fan of images of cones containing tau in the quotient lattice.

    Returns (star, quotient) where quotient is the QuotientMap by the
    saturated span of tau.
    """
    if tau not in set(fan.cones):
        raise ConeNotInFan(f"{tau} not in fan")
    q = quotient_map(cone_sublattice(tau))
    cones = []
    for sigma in fan.cones_containing(tau):
        cones.append(star_image_cone(q, sigma))
    return Fan(q.quotient_rank, cones, validate=False), q


def star_image_cone(q, sigma: Cone) -> Cone:
    images = [q.project(r) for r in sigma.rays]
    return cone_from_rays(q.quotient_rank, [v for v in images if not is_zero(v)])


def multiplicity(sigma: Cone) -> int:
    """Index of the span of the primitive rays inside the cone's lattice."""
    if not sigma.is_simplicial:
        raise NotSimplicial("multiplicity needs a simplicial cone")
    if sigma.is_zero:
        return 1
    r = snf(sigma.rays)
    out = 1
    for d in r.diagonal[: r.rank]:
        out *= d
    return out


def triangulate(sigma: Cone):
    """Placing triangulation on the ray order as given.

    Returns simplicial cones using only sigma's rays, pairwise face-to-face,
    whose union is sigma.
    """
    if sigma.is_simplicial:
        return [sigma]
    pieces: list[Cone] = []
    placed: list[Vec] = []
    current = None
    for r in sigma.rays:
        if not placed:
            pieces = [cone_from_rays(sigma.ambient_rank, [r])]
        else:
            current = cone_from_rays(sigma.ambient_rank, placed)
            if all(dot(w, r) == 0 for w in current.span_normals):
                # same span: attach r across visible facets
                new_pieces = list(pieces)
                for u in current.facet_normals:
                    if dot(u, r) >= 0:
                        continue
                    for piece in pieces:
                        boundary = [x for x in piece.rays if dot(u, x) == 0]
                        if len(boundary) == piece.dim - 1:
                            cand = cone_from_rays(sigma.ambient_rank, boundary + [r])
                            if cand not in new_pieces:
                                new_pieces.append(cand)
                pieces = new_pieces
            else:
                pieces = [cone_from_rays(sigma.ambient_rank, list(p.rays) + [r]) for p in pieces]
        placed.append(r)
    return pieces


# ---------------------------------------------------------------------------
# genericity of displacement vectors


def single_point_pairs(fan: Fan, v):
    """Ordered cone pairs whose shifted intersection is a single point."""
    v = tuple(v)
    out = []
    for s1 in fan.cones:
        for s2 in fan.cones:
            if _shift_dim(s1, s2, v) == 0:
                out.append((s1, s2))
    return out


@lru_cache(maxsize=None)
def is_generic_diagonal(fan: Fan, v: tuple) -> bool:
    """A displacement vector is generic when every single-point shifted
    intersection comes from cones of complementary dimension."""
    n = fan.ambient_rank
    for s1, s2 in single_point_pairs(fan, v):
        if s1.dim + s2.dim != n:
            return False
    return True


def find_generic_vector(fan: Fan, rng, is_generic=None):
    """Sample nonzero integer vectors until `is_generic(fan, v)` holds
    (default: is_generic_diagonal); the sampling box doubles every 25 attempts.

    Returns (v, attempts).  Raises NonGenericVector when the budget runs out.
    """
    is_generic = is_generic or is_generic_diagonal
    bound = 7
    attempts = 0
    while attempts < GENERIC_SEARCH_ATTEMPTS:
        v = tuple(rng.randint(-bound, bound) for _ in range(fan.ambient_rank))
        attempts += 1
        if is_zero(v):
            continue
        if is_generic(fan, v):
            return v, attempts
        if attempts % 25 == 0:
            bound *= 2
    raise NonGenericVector(f"no generic vector found in {GENERIC_SEARCH_ATTEMPTS} attempts")


class SigmaVResult:
    """Cones meeting an affine translate of a subspace in a single point."""

    def __init__(self, cones, generic, offending):
        self.cones = cones
        self.generic = generic
        self.offending = offending


def sigma_v_set(fan: Fan, N: Sublattice, v) -> SigmaVResult:
    """Cones of the fan whose intersection with the affine subspace
    span(N) + v is a single point, plus a genericity report
    (every such cone must have dimension equal to the codimension of N)."""
    v = tuple(v)
    n = fan.ambient_rank
    if N.ambient_rank != n:
        raise ValueError("sublattice ambient rank mismatch")
    if not is_saturated(N):
        raise NotSaturated("the subbundle sublattice must be saturated")
    codim = n - N.rank
    hits = []
    for cone in fan.cones:
        # parametrize points v + sum(t_i b_i) and intersect with the cone
        ineqs = []
        eqs = []
        for u in cone.facet_normals:
            coeffs = [Fraction(dot(u, b)) for b in N.basis]
            ineqs.append((coeffs, -dot(u, v)))
        for w in cone.span_normals:
            coeffs = [Fraction(dot(w, b)) for b in N.basis]
            eqs.append((coeffs, -dot(w, v)))
        poly = Polyhedron(N.rank, ineqs, eqs)
        if poly.dim == 0:
            hits.append(cone)
    offending = [c for c in hits if c.dim != codim]
    return SigmaVResult(hits, not offending, offending)


def fan_product(f1: Fan, f2: Fan) -> Fan:
    """Product fan in the direct-sum lattice (no revalidation needed)."""
    n1, n2 = f1.ambient_rank, f2.ambient_rank
    rays = [tuple(r) + (0,) * n2 for r in f1.rays] + [(0,) * n1 + tuple(r) for r in f2.rays]
    cones = []
    for c1 in f1.cones:
        for c2 in f2.cones:
            lifted = [tuple(r) + (0,) * n2 for r in c1.rays] + [(0,) * n1 + tuple(r) for r in c2.rays]
            cones.append(cone_from_rays(n1 + n2, lifted))
    return Fan(n1 + n2, cones, rays=rays, validate=False)
