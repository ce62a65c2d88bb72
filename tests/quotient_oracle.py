"""The quotient-lattice route: the test oracle for relation coefficients and
equivariant multiplicities.

The balancing relations and equivariant multiplicities are stated in the
quotient lattice N/N_tau, through <m, n_sigma/tau> with n_sigma/tau
generating N_sigma/N_tau.  torbun computes both in N; the tests compare its
answers with the ones here: quotient maps by a saturated sublattice, the
canonical normal generator of a codimension-one lattice pair, and star fans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from torbun.errors import NotCodimOne, NotSaturated, check_invariant
from torbun.fans import Fan, cone_from_rays
from torbun.lattice import (
    Mat,
    Sublattice,
    Vec,
    _solve_integer,
    dot,
    identity_matrix,
    invert_rational,
    is_saturated,
    is_zero,
    mat_vec,
    snf,
    vec_add,
    vec_neg,
)


def vec_scale(c: int, v: Vec) -> Vec:
    return tuple(c * a for a in v)


@dataclass(frozen=True)
class QuotientMap:
    """Projection Z^n -> Z^(n-k) with prescribed saturated kernel."""

    ambient_rank: int
    kernel: Sublattice
    projection: Mat
    section: Mat  # rows are preimages of the standard basis of the quotient

    def __post_init__(self):
        for v in self.kernel.basis:
            check_invariant(is_zero(mat_vec(self.projection, v)), "quotient map: projection misses the kernel")
        proj_of_section = tuple(mat_vec(self.projection, row) for row in self.section)
        check_invariant(
            proj_of_section == identity_matrix(self.quotient_rank), "quotient map: section is not a right inverse"
        )

    @property
    def quotient_rank(self) -> int:
        return self.ambient_rank - self.kernel.rank

    def project(self, v: Vec) -> Vec:
        return mat_vec(self.projection, v)

    def lift(self, u: Vec) -> Vec:
        out = (0,) * self.ambient_rank
        for c, row in zip(u, self.section, strict=True):
            out = vec_add(out, vec_scale(c, row))
        return out


def quotient_map(kernel: Sublattice) -> QuotientMap:
    """Quotient by a saturated sublattice; raises NotSaturated otherwise."""
    if not is_saturated(kernel):
        raise NotSaturated("quotient by a non-saturated sublattice has torsion")
    n = kernel.ambient_rank
    k = kernel.rank
    if k == 0:
        return QuotientMap(n, kernel, identity_matrix(n), identity_matrix(n))
    r = snf(kernel.basis)
    projection = tuple(tuple(r.V[row][j] for row in range(n)) for j in range(k, n))
    section = tuple(tuple(r.Vinv[i]) for i in range(k, n))
    return QuotientMap(n, kernel, projection, section)


def _norm_sq(v: Vec) -> int:
    return sum(a * a for a in v)


def _min_norm_rep(x0: Vec, tau_basis) -> Vec:
    """Representative of x0 + span_Z(tau_basis) of minimal Euclidean norm,
    ties broken by lexicographic greatness."""
    r = len(tau_basis)
    if r == 0:
        return x0
    gram = [[dot(a, b) for b in tau_basis] for a in tau_basis]
    ginv = invert_rational(gram)
    target = _norm_sq(x0)
    bounds = []
    for i in range(r):
        bexpr = 4 * target * ginv[i][i]
        bounds.append(isqrt(bexpr.numerator // bexpr.denominator) + 1)
    best = x0
    best_n = _norm_sq(x0)
    for combo in itertools.product(*[range(-b, b + 1) for b in bounds]):
        cand = x0
        for c, b in zip(combo, tau_basis):
            cand = vec_add(cand, vec_scale(c, b))
        nn = _norm_sq(cand)
        if nn < best_n or (nn == best_n and cand > best):
            best, best_n = cand, nn
    return best


def normal_generator(tau: Sublattice, sigma: Sublattice, witness: Vec) -> Vec:
    """A lattice point of sigma generating the rank-one quotient sigma/tau.

    The sign is fixed so that the image pairs positively with the image of
    `witness` (a point of the relevant cone); the representative modulo tau
    is the minimal-norm one, ties broken lexicographically.  Relation
    coefficients do not need this canonical form (see Fan.relation_normals).
    """
    if tau.ambient_rank != sigma.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if sigma.rank != tau.rank + 1:
        raise NotCodimOne("rank(sigma) must equal rank(tau) + 1")
    if not is_saturated(tau) or not is_saturated(sigma):
        raise NotSaturated("normal_generator requires saturated sublattices")
    q = quotient_map(tau)
    images = tuple(q.project(v) for v in sigma.basis)
    r = snf(images)
    if r.rank != 1:
        raise NotCodimOne("quotient sigma/tau is not of rank one")
    d = r.S[0][0]
    gen_image = vec_scale(d, tuple(r.Vinv[0]))
    w_img = q.project(witness)
    lam = None
    for a, b in zip(w_img, gen_image):
        if b != 0:
            lam = Fraction(a, b)
            break
    if lam is None or lam == 0 or any(a != int(lam * b) for a, b in zip(w_img, gen_image)):
        raise ValueError("witness does not lie on the sigma side")
    target = gen_image if lam > 0 else vec_neg(gen_image)
    y = _solve_integer(images, target)
    check_invariant(y is not None, "normal_generator: the generator is not in sigma's lattice")
    x0 = (0,) * sigma.ambient_rank
    for c, b in zip(y, sigma.basis):
        x0 = vec_add(x0, vec_scale(c, b))
    return _min_norm_rep(x0, tau.basis)


def star_fan(tau, fan: Fan):
    """The fan of images of cones containing tau in the quotient lattice.

    Returns (star, quotient) where quotient is the QuotientMap by the
    saturated span of tau.
    """
    containing = fan.cones_containing(tau)
    q = quotient_map(tau.sublattice)
    images = ([v for v in map(q.project, sigma.rays) if not is_zero(v)] for sigma in containing)
    cones = [cone_from_rays(q.quotient_rank, rays) for rays in images]
    return Fan(q.quotient_rank, cones, validate=False), q
