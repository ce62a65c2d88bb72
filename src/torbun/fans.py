"""Rational polyhedral cones and fans.

Cones are given by primitive ray generators; facet normals are computed by
brute-force hyperplane enumeration, exact and adequate up to the declared
ambient-rank cap of 4, and faces by closing the facets' zero sets under
intersection.  A fan is closed under faces; it keeps the cones it is given
and builds each other face once, from the first cone it is a face of, so
each cone is one object.  Validation checks that pairs of maximal cones
meet in common faces: by a separating functional made of either cone's
facet normals where that one separates, else by the same brute-force
enumeration modulo the common face; completeness reads the fan's ridges.
Genericity of displacement vectors is decided against walls computed once
per fan, spans keyed by their cones' kernels, one kernel per distinct union
of two cones' rays.  Placing triangulations work on ray tuples, with
kernels and facet normals only, and simplex multiplicities are gcds of
maximal minors, read off an integer echelon form.  A cone's dimension and
span normals come from its rational kernel, and a Smith form only where
its perp has rank >= 2; its sublattice is taken on first read, which only
that Smith route makes: displacement and subbundle indices are gcds of
minors of span normals.  What is derived from a cone is kept on the Cone,
and what is derived from a fan on the Fan; a fan owns its cones, so both
die with the fan, and no module-level memo keeps cones.  All of it is
exact integer and rational linear algebra.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd

from .errors import (
    ConeNotInFan,
    InvalidFan,
    NonGenericVector,
    NotSaturated,
    NotSimplicial,
    NotStronglyConvex,
    RankCapExceeded,
    check_invariant,
)
from .lattice import (
    INFINITE,
    Sublattice,
    Vec,
    dot,
    is_saturated,
    is_zero,
    lattice_index,
    perp_basis,
    primitive,
    rational_kernel,
    rational_rank,
    saturated_span,
    sign_normalize,
    solve_scaled,
    vec_add,
    vec_neg,
)

RANK_CAP = 4
GENERIC_SEARCH_ATTEMPTS = 1000


class Cone:
    """A strongly convex rational polyhedral cone.

    Data derived from the cone lives on it.  Computed at construction: the
    facet normals; `kernel`, the rational kernel of the rays, which depends
    only on the span (a `kernel=` argument must be exactly that); and from
    it `dim` and `span_normals`, a lattice basis of the perp of the span.
    The perp is saturated, and a saturated lattice of rank 1 has exactly
    two bases, the primitive vectors +-m on its line, so a perp of rank 0
    or 1 has one basis up to sign: () or the sign-normalised kernel vector.
    Only a perp of rank >= 2 takes the Smith form route, perp_basis of
    `sublattice`.  Computed on first read: `sublattice`, the saturated
    sublattice spanned by the rays taken in sorted order (so equal cones
    have equal bases); and `_simplices`, None until
    `equivariant._simplices` first triangulates a full-dimensional cone,
    then that immutable tuple, on this object's ray order.
    """

    __slots__ = (
        "ambient_rank", "rays", "dim", "facet_normals", "kernel", "_sublattice", "span_normals", "_key", "_hash",
        "_simplices", "__weakref__",
    )

    def __init__(self, ambient_rank, rays, facet_normals, kernel=None):
        self.ambient_rank = ambient_rank
        self.rays = tuple(rays)
        self.facet_normals = tuple(facet_normals)
        self._key = (ambient_rank, tuple(sorted(self.rays)))
        self._hash = hash(self._key)
        self._sublattice = None
        self._simplices = None
        if kernel is None:
            kernel = rational_kernel(ambient_rank, self.rays)
        self.kernel = kernel
        self.dim = ambient_rank - len(kernel)
        if len(kernel) <= 1:
            self.span_normals = tuple(sign_normalize(m) for m in kernel)
        else:
            self.span_normals = tuple(perp_basis(self.sublattice))

    @property
    def sublattice(self) -> Sublattice:
        if self._sublattice is None:
            self._sublattice = saturated_span(self.ambient_rank, self._key[1])
        return self._sublattice

    def __eq__(self, other):
        return isinstance(other, Cone) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cone{self.rays} in Z^{self.ambient_rank}"

    @property
    def is_zero(self) -> bool:
        return not self.rays

    @property
    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim


def zero_cone(ambient_rank: int) -> Cone:
    return cone_from_rays(ambient_rank, ())


def cone_from_rays(ambient_rank: int, rays) -> Cone:
    """Build a cone: primitivize and deduplicate rays, keep only the extreme
    ones, compute facet normals, and verify strong convexity."""
    if ambient_rank > RANK_CAP:
        raise RankCapExceeded(f"facet enumeration capped at ambient rank {RANK_CAP}")
    prims = tuple(dict.fromkeys(primitive(tuple(r)) for r in rays))
    kernel = rational_kernel(ambient_rank, prims)
    facets = _facet_normals(ambient_rank, prims, ambient_rank - len(kernel))
    if len(prims) + len(kernel) == ambient_rank:
        # linearly independent rays: strongly convex, and every ray extreme
        return Cone(ambient_rank, prims, facets.values(), kernel)
    all_normals = list(facets.values()) + list(kernel)
    if rational_rank(all_normals) != ambient_rank:
        if ambient_rank > 0:
            raise NotStronglyConvex(f"cone on {prims} contains a line")
    extreme = []
    for r in prims:
        vanishing = [u for u in all_normals if dot(u, r) == 0]
        if rational_rank(vanishing) == ambient_rank - 1:
            extreme.append(r)
    return Cone(ambient_rank, extreme, facets.values(), kernel)


def _facet_normals(ambient_rank, prims, d):
    """Facet normals keyed by the frozenset of rays they annihilate."""
    facets = {}
    if d == 0:
        return facets
    for subset in itertools.combinations(prims, d - 1):
        K = rational_kernel(ambient_rank, subset)
        if len(K) != ambient_rank - d + 1:
            continue  # the subset spans fewer than d - 1 dimensions
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
            facets[vanishing] = u
    return facets


def is_face(tau: Cone, sigma: Cone) -> bool:
    """True iff tau is cut out of sigma by a supporting normal (tau=sigma ok):
    the sum of sigma's facet normals vanishing on tau is nonzero on every
    other ray of sigma."""
    if tau.ambient_rank != sigma.ambient_rank:
        raise ValueError("ambient rank mismatch")
    tau_rays = set(tau.rays)
    if not tau_rays.issubset(sigma.rays):
        return False
    total = _normal_sum(sigma, tau.rays)
    return all(dot(total, r) for r in sigma.rays if r not in tau_rays)


def _normal_sum(sigma: Cone, rays) -> Vec:
    """The sum of sigma's facet normals that vanish on the given rays: >= 0
    on sigma and zero on it exactly along the smallest face containing them,
    whichever representatives the normals are."""
    total = (0,) * sigma.ambient_rank
    for u in sigma.facet_normals:
        if not any(dot(u, r) for r in rays):
            total = vec_add(total, u)
    return total


def faces_of(sigma: Cone):
    """All faces of a cone, as cones (including itself and the zero cone),
    itself first."""
    return _faces_of(sigma, {})


def _faces_of(sigma: Cone, built: dict):
    """faces_of(sigma), taking each face from `built` (frozenset of rays ->
    cone) or else building it from sigma and adding it there.

    Every proper face of sigma is an intersection of facets, so the faces'
    ray sets are those of sigma closed under intersection with the facets'
    zero sets.  A facet of a face F is a face of sigma, so it is cut out by
    some facet normal u of sigma that does not vanish on all of F; and the
    cut of F by such a u is a face.  So the facets of F are its
    inclusion-maximal proper cuts, and the first u giving each is a facet
    normal of F.
    """
    zeros = [(frozenset(r for r in sigma.rays if dot(u, r) == 0), u) for u in sigma.facet_normals]
    order = [frozenset(sigma.rays)]
    seen = set(order)
    for face in order:  # grows as the closure finds new faces
        cuts = {}  # each proper cut of the face -> the first normal giving it
        for z, u in zeros:
            if not face <= z:
                cuts.setdefault(face & z, u)
        order += [c for c in cuts if c not in seen]
        seen.update(cuts)
        if face not in built:
            facets = [u for c, u in cuts.items() if not any(c < other for other in cuts)]
            built[face] = Cone(sigma.ambient_rank, sorted(face), facets)
    return [built[face] for face in order]


class _ConeTable(dict):
    """A dict over the cones of a fan: looking up any other cone raises ConeNotInFan."""

    def __missing__(self, tau):
        raise ConeNotInFan(f"{tau} not in fan")


class Fan:
    """A fan: cones closed under faces, intersecting in common faces; the
    face lattice is built once, and validation checks maximal pairs only.
    Each cone is one object: a given cone is kept, unless an earlier given
    cone already has it as a face, and each other face is built once.

    Data derived from the fan lives on it and dies with it, each piece
    built on first use: the diagonal's genericity walls, the `ridges`,
    smoothness, completeness and the tables of `table`.  Built at
    construction: the face lattice, and each cone's `cone_key` with the
    cone of each key.
    """

    def __init__(self, ambient_rank, cones, rays=None, validate=True):
        self.ambient_rank = ambient_rank
        # the face lattice: every cone of the closure mapped to its faces
        faces = {}
        built = {}  # each cone once: a given cone, else from the first cone it is a face of
        for c in cones:
            built.setdefault(frozenset(c.rays), c)
            faces_c = _faces_of(c, built)
            for f in faces_c:
                if f not in faces:
                    f_rays = set(f.rays)
                    faces[f] = frozenset(g for g in faces_c if f_rays.issuperset(g.rays))
        if not faces:  # every given cone has the zero cone as a face
            z = zero_cone(ambient_rank)
            faces[z] = frozenset([z])
        if rays is None:
            rays = sorted({r for c in faces for r in c.rays})
        self.rays = tuple(tuple(r) for r in rays)
        self._ray_index = {r: i for i, r in enumerate(self.rays)}
        for c in faces:
            for r in c.rays:
                if r not in self._ray_index:
                    raise ValueError(f"cone ray {r} missing from fan ray list")
        self._keys = _ConeTable((c, tuple(sorted(self._ray_index[r] for r in c.rays))) for c in faces)
        self.cones = tuple(sorted(faces, key=self.cone_sort_key))
        self._faces = faces
        self._containing = _ConeTable((c, []) for c in self.cones)
        for s in self.cones:
            for t in faces[s]:
                self._containing[t].append(s)
        self._by_key = {self._keys[c]: c for c in self.cones}
        self.maximal_cones = [c for c in self.cones if self._containing[c] == [c]]
        self._tables = {}  # name -> (key, table)
        if validate:
            self._validate()

    # -- bookkeeping -----------------------------------------------------------

    def cone_key(self, cone: Cone):
        """The sorted indices of the cone's rays in the fan's ray list; ConeNotInFan if not in the fan."""
        return self._keys[cone]

    def cone_sort_key(self, cone: Cone):
        return (cone.dim, self.cone_key(cone))

    def cone_by_ray_indices(self, indices) -> Cone:
        """The cone on these ray indices; ConeNotInFan if none (out of range, repeated)."""
        key = tuple(sorted(indices))
        if key not in self._by_key:
            raise ConeNotInFan(f"no cone on rays {list(key)}")
        return self._by_key[key]

    def common_face(self, s1: Cone, s2: Cone) -> Cone:
        """Largest face shared by two cones of the fan; ties (invalid fans only) by cone_sort_key."""
        return max(self._faces[s1] & self._faces[s2], key=self.cone_sort_key)

    def _validate(self):
        # faces of cones meeting in a common face meet in a face of it, so
        # pairs of maximal cones are enough
        for c1, c2 in itertools.combinations(self.maximal_cones, 2):
            if not _meet_in_face(c1, c2, self.common_face(c1, c2)):
                raise InvalidFan(
                    f"cones {self.cone_key(c1)} and {self.cone_key(c2)} do not meet in a face"
                )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and frozenset(self.cones) == frozenset(other.cones)
        )

    def __hash__(self):
        return hash((self.ambient_rank, frozenset(self.cones)))

    def __repr__(self):
        return f"Fan(rank {self.ambient_rank}, {len(self.cones)} cones)"

    # -- queries ---------------------------------------------------------------

    def cones_containing(self, tau: Cone):
        """Cones of the fan having tau as a face, tau included, in fan order."""
        return self._containing[tau]

    def codim(self, cone: Cone) -> int:
        return self.ambient_rank - cone.dim

    def zero_cone(self) -> Cone:
        return self.cones[0]

    def is_smooth(self) -> bool:
        return self._smooth

    @cached_property
    def _smooth(self) -> bool:
        return all(c.is_simplicial and multiplicity(c) == 1 for c in self.cones)

    @cached_property
    def _complete(self) -> bool:
        n = self.ambient_rank
        maxes = self.maximal_cones  # never empty: the zero cone is in every fan
        if any(c.dim != n for c in maxes):
            return False
        adjacency = {id(c): set() for c in maxes}
        for owners in self.ridges.values():
            if len(owners) != 2:
                return False
            adjacency[id(owners[0])].add(id(owners[1]))
            adjacency[id(owners[1])].add(id(owners[0]))
        seen = {id(maxes[0])}
        frontier = [id(maxes[0])]
        while frontier:
            for nbr in adjacency[frontier.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(maxes)

    @cached_property
    def ridges(self) -> dict:
        """Each cone of dimension n - 1 mapped to the tuple of n-dimensional
        cones containing it, both in fan order."""
        n = self.ambient_rank
        return {t: tuple(s for s in self._containing[t] if s.dim == n) for t in self.cones if t.dim == n - 1}

    def is_simplicial(self) -> bool:
        return all(c.is_simplicial for c in self.cones)

    def table(self, name: str, build, key=None):
        """The fan's table `name`, from `build()` on first use; it dies with
        the fan.  One slot is kept per name: a `key` that differs from the
        stored one, by identity and then by value, builds the table again in
        its place, so a table keyed by a vector or a mixing map is kept for
        the latest one only.  A build that raises stores nothing.  Each
        builder stays next to its use: `relation_normals`; `relation_rows`
        (keyed by the mixing map), `displacement_table` (by the vector) and
        `pair_candidates` in weights; `residue_tables` and `walls` in
        equivariant; `dual_characters`, filled one entry at a time, and
        `normal_forms` (by the mixing map) in presentations.
        """
        slot = self._tables.get(name)
        if slot is None or (slot[0] is not key and slot[0] != key):
            slot = self._tables[name] = (key, build())
        return slot[1]

    def relation_normals(self) -> _ConeTable:
        """The fan's table "relation_normals", built on first use for every
        cone at once: each cone tau mapped to the cones sigma one dimension
        up from it, in fan order, each mapped to (r, k): r a ray of sigma
        outside tau, and k the gcd of <m, r> over tau.span_normals, a
        lattice basis of perp(tau).  Looking up a cone outside the fan
        raises ConeNotInFan.

        M meets perp(tau) in the dual lattice of N/N_tau, so r is k times
        n_sigma/tau, the generator of N_sigma/N_tau on sigma's side, modulo
        N_tau, and <m, n_sigma/tau> = <m, r> / k for m in perp(tau).
        """
        return self.table("relation_normals", self._relation_normals)

    def _relation_normals(self) -> dict:
        table = _ConeTable()
        for tau in self.cones:
            table[tau] = entry = {}
            for sigma in self._containing[tau]:
                if sigma.dim == tau.dim + 1:
                    r = next(r for r in sigma.rays if r not in tau.rays)
                    entry[sigma] = (r, gcd(*(dot(m, r) for m in tau.span_normals)))
        return table

    @cached_property
    def diagonal_walls(self) -> tuple:
        """The walls of the diagonal: the distinct proper subspaces
        span(s1) + span(s2) for cones s1, s2 of the fan, each given by
        normal vectors spanning its perp, in the order of their first pair.

        The pairs run over one cone per distinct span.  span(A) + span(B)
        is span(A u B), so one kernel is taken per distinct union of the
        pair's rays, for the first pair giving it; the walls and their
        order are those of one kernel per pair."""
        spans = {}  # a span's kernel -> the rays of one cone spanning it
        for c in self.cones:
            spans.setdefault(c.kernel, c.rays)
        unions = {}  # the rays of a pair, as a set -> the pair's rays
        for A, B in itertools.combinations_with_replacement(spans.values(), 2):
            unions.setdefault(frozenset(A + B), A + B)
        walls = (rational_kernel(self.ambient_rank, rays) for rays in unions.values())
        return tuple(dict.fromkeys(w for w in walls if w))


def fan_from_ray_lists(ambient_rank, rays, cones_as_indices) -> Fan:
    rays = [tuple(r) for r in rays]
    for r in rays:
        if is_zero(r):
            raise ValueError("zero ray")
        if primitive(r) != r:
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    cones = [cone_from_rays(ambient_rank, sorted(rays[i] for i in ixs)) for ixs in cones_as_indices]
    return Fan(ambient_rank, cones, rays=rays)


def _meet_in_face(s1: Cone, s2: Cone, tau: Cone) -> bool:
    """True iff s1 meets s2 in tau, for tau a common face of both.

    First a certificate, as in the separation lemma (Fulton, Introduction
    to Toric Varieties, 1.2): u = _normal_sum(s1, tau.rays) is >= 0 on s1
    and zero on it exactly along tau.  If u is < 0 on every ray of s2 not
    in tau (it is zero on tau), then u <= 0 on s2, so s1 and s2 meet in
    s1 cut by u = 0, which is tau.  Then the same with the roles swapped.
    When neither sum separates, _meet_by_enumeration decides.
    """
    for a, b in ((s1, s2), (s2, s1)):
        u = _normal_sum(a, tau.rays)
        if all(dot(u, r) < 0 for r in b.rays if r not in tau.rays):
            return True
    return _meet_by_enumeration(s1, s2, tau)


def _meet_by_enumeration(s1: Cone, s2: Cone, tau: Cone) -> bool:
    """True iff s1 meets s2 in tau, for tau a common face of both.

    Each s_i meets span(tau) in tau, so s1 meets s2 in tau exactly when
    their images in Q^n / span(tau) meet only in 0.  Represent the quotient
    by the vectors orthogonal to tau's rays; there the images meet in the
    cone C cut out by the span normals of s1 and s2 (= 0) and the facet
    normals of each s_i that vanish on tau (>= 0).  C holds no line, since
    the facets of s_i through tau meet span(s_i) in span(tau).  So C = 0 iff
    it has no extreme ray: no line where the equalities and some
    n - 1 - rank(equalities) facet rows vanish lies, with either sign, on
    the side >= 0 of every facet row.
    """
    n = s1.ambient_rank
    eqs = list(tau.rays) + list(s1.span_normals) + list(s2.span_normals)
    facets = [u for s in (s1, s2) for u in s.facet_normals if not any(dot(u, r) for r in tau.rays)]
    k = n - 1 - rational_rank(eqs)
    if k < 0:
        return True  # the equalities alone cut out 0
    for subset in itertools.combinations(facets, k):
        line = rational_kernel(n, eqs + list(subset))
        if len(line) == 1:
            evals = [dot(u, line[0]) for u in facets]
            if all(e >= 0 for e in evals) or all(e <= 0 for e in evals):
                return False
    return True


def is_complete(fan: Fan) -> bool:
    """Support covers the whole space: pure, every ridge in exactly two
    maximal cones, and the maximal cones connected through shared ridges.
    Decided once per fan."""
    return fan._complete


def multiplicity(sigma: Cone) -> int:
    """Index of the span of the primitive rays inside the cone's lattice."""
    if not sigma.is_simplicial:
        raise NotSimplicial("multiplicity needs a simplicial cone")
    return simplex_multiplicity(sigma.rays)


def simplex_multiplicity(rays) -> int:
    """Index of the span of linearly independent primitive rays inside
    their saturation: the multiplicity of the simplicial cone on them.

    That index is the product of the Smith invariants of the k rays, which
    is the gcd of their k x k minors: the index in Z^k of the lattice that
    the columns of the k x n matrix of rays generate."""
    if not rays:
        return 1
    out = lattice_index(len(rays), list(zip(*rays)))
    check_invariant(out is not INFINITE, "multiplicity of linearly dependent rays")
    return out


def triangulate(sigma: Cone):
    """Placing triangulation on the ray order as given, as cones: see
    triangulate_rays."""
    return [cone_from_rays(sigma.ambient_rank, rays) for rays in triangulate_rays(sigma)]


def triangulate_rays(sigma: Cone):
    """Placing triangulation on the ray order as given, as ray tuples.

    Returns the rays of simplicial cones using only sigma's rays, pairwise
    face-to-face, whose union is sigma.  Each ray r is placed in turn: off
    the span of the rays placed before it, r is added to every piece;
    in it, a piece is added on r and each facet of a piece lying on a facet
    of the placed cone that r sees (facet normal negative on r), once per
    ray set.  Only kernels and facet normals are computed, no cone.
    """
    if sigma.is_simplicial:
        return [sigma.rays]
    n = sigma.ambient_rank
    pieces, placed = [], []
    for r in sigma.rays:
        if not placed:
            pieces = [(r,)]
        else:
            span_normals = rational_kernel(n, placed)
            if any(dot(w, r) for w in span_normals):
                pieces = [p + (r,) for p in pieces]
            else:
                added = {}  # a new piece's facet opposite r -> the piece
                for u in _facet_normals(n, placed, n - len(span_normals)).values():
                    if dot(u, r) < 0:
                        for p in pieces:
                            boundary = tuple(x for x in p if dot(u, x) == 0)
                            if len(boundary) == len(p) - 1:
                                added.setdefault(frozenset(boundary), boundary + (r,))
                pieces += added.values()
        placed.append(r)
    return pieces


# ---------------------------------------------------------------------------
# genericity of displacement vectors
#
# Fulton and Sturmfels (Intersection theory on toric varieties, Topology 36,
# 1997) call a displacement vector generic when it avoids the finitely many
# walls: the proper subspaces span(sigma) + span(N), sigma in the fan, for a
# subbundle of sublattice N, and span(s1) + span(s2) for the diagonal.  This
# implies that every cone pair, or cone, meeting the displaced subspace in a
# single point has the complementary dimension.  The converse can fail off
# complete fans: on the cone over a square the wall test rejects (3, 2, 2),
# which the single-point test by Fourier-Motzkin elimination accepts.


def is_generic_diagonal(fan: Fan, v) -> bool:
    """A displacement vector is generic when it lies on none of the fan's
    diagonal walls: each wall has a normal vector that is nonzero on v."""
    v = tuple(v)
    return all(any(dot(u, v) for u in normals) for normals in fan.diagonal_walls)


def find_generic_vector(fan: Fan, rng, is_generic=None):
    """Sample integer vectors, nonzero unless the rank is 0, until
    `is_generic(fan, v)` holds (default: is_generic_diagonal); the sampling
    box doubles every 25 attempts.

    Returns (v, attempts).  Raises NonGenericVector when the budget runs out.
    """
    is_generic = is_generic or is_generic_diagonal
    bound = 7
    attempts = 0
    while attempts < GENERIC_SEARCH_ATTEMPTS:
        v = tuple(rng.randint(-bound, bound) for _ in range(fan.ambient_rank))
        attempts += 1
        if is_zero(v) and v:
            continue
        if is_generic(fan, v):
            return v, attempts
        if attempts % 25 == 0:
            bound *= 2
    raise NonGenericVector(f"no generic vector found in {GENERIC_SEARCH_ATTEMPTS} attempts")


class SigmaVResult:
    """Cones meeting an affine translate of a subspace in a single point,
    and the cones whose wall contains the translation vector."""

    def __init__(self, cones, generic, offending):
        self.cones = cones
        self.generic = generic
        self.offending = offending


def sigma_v_set(fan: Fan, N: Sublattice, v) -> SigmaVResult:
    """Cones of the fan meeting the affine subspace span(N) + v in a single
    point, and a genericity report.

    v is generic when it lies on no wall span(sigma) + span(N) != Q^n;
    `offending` lists the cones whose wall contains v, in fan order.  A cone
    of dimension codim N with span(sigma) + span(N) = Q^n meets span(N) + v
    in span(sigma) at one point, found by one rational solve; `cones` lists
    those cones whose point satisfies their facet inequalities.  At a generic
    v these are exactly the cones meeting span(N) + v in a single point.  At
    a non-generic v, `cones` is still that list, which may then miss a cone
    meeting span(N) + v in a single point.
    """
    v = tuple(v)
    n = fan.ambient_rank
    if N.ambient_rank != n:
        raise ValueError("sublattice ambient rank mismatch")
    if not is_saturated(N):
        raise NotSaturated("the subbundle sublattice must be saturated")
    codim = n - N.rank
    N_normals = rational_kernel(n, N.basis)
    walls = {}  # a cone span's kernel -> normals of its wall with N, None if no wall
    cones, offending = [], []
    for cone in fan.cones:
        if cone.kernel not in walls:
            walls[cone.kernel] = rational_kernel(n, cone.rays + N.basis) or None
        normals = walls[cone.kernel]
        if normals is not None:
            if not any(dot(u, v) for u in normals):
                offending.append(cone)
        elif cone.dim == codim:
            # the point x of span(sigma) with x - v in span(N)
            rhs = [0] * len(cone.span_normals) + [dot(u, v) for u in N_normals]
            x, _d = solve_scaled(list(cone.span_normals) + list(N_normals), rhs)
            if all(dot(u, x) >= 0 for u in cone.facet_normals):
                cones.append(cone)
    return SigmaVResult(cones, not offending, offending)

