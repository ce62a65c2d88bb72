"""Piecewise polynomials, equivariant multiplicities, and the limit map.

The multiplicity e(sigma, tau) of a full-dimensional cone along a face is
read off one triangulation of sigma in N: the simplices containing a fixed
top simplex T of tau's part of it, taken modulo span(tau), triangulate the
image of sigma in the star of tau.  Each such simplex P adds the reciprocal
of mult(P)/mult(T) times the product of its dual-basis characters at the
rays outside T.  Residue sums of a compatible piecewise polynomial are
always genuine polynomials; their images under the twisting map assemble
into a balanced Minkowski weight.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import MixingMap
from .errors import FanNotComplete, ResidueNotPolynomial, check_invariant
from .fans import Cone, Fan, cone_from_rays, is_complete, is_face, multiplicity, triangulate
from .lattice import dual_basis
from .polynomials import LinearFraction, Polynomial
from .weights import MinkowskiWeight, _assert_balanced


class PiecewisePolynomial:
    """One homogeneous polynomial per maximal cone, compatible on faces."""

    def __init__(self, fan: Fan, degree: int, pieces):
        self.fan = fan
        self.degree = degree
        maxes = set(fan.maximal_cones)
        clean = {}
        for cone, poly in pieces.items():
            if cone not in maxes:
                raise ValueError("pieces must be indexed by maximal cones")
            if poly.num_vars != fan.ambient_rank:
                raise ValueError("piece has wrong number of variables")
            if not poly.is_homogeneous_of(degree):
                raise ValueError(f"piece at {fan.cone_key(cone)} not homogeneous of degree {degree}")
            clean[cone] = poly
        zero = Polynomial.zero(fan.ambient_rank)
        self.pieces = {c: clean.get(c, zero) for c in fan.maximal_cones}

    def piece(self, cone: Cone) -> Polynomial:
        return self.pieces[cone]

    def __mul__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        if self.fan != other.fan:
            raise ValueError("different fans")
        return PiecewisePolynomial(
            self.fan,
            self.degree + other.degree,
            {c: self.pieces[c] * other.pieces[c] for c in self.pieces},
        )

    def __eq__(self, other):
        return (
            isinstance(other, PiecewisePolynomial)
            and self.fan == other.fan
            and self.pieces == other.pieces
        )


def check_pp(f: PiecewisePolynomial):
    """List of (sigma1, sigma2, common_face) where the pieces disagree on the
    span of the shared face; empty means compatible."""
    fan = f.fan
    violations = []
    for s1, s2 in itertools.combinations(fan.maximal_cones, 2):
        tau = fan.common_face(s1, s2)
        if tau.dim == 0:
            continue
        basis = tau.sublattice.basis
        params = [Polynomial.linear_form([b[i] for b in basis]) for i in range(fan.ambient_rank)]
        diff = (f.pieces[s1] - f.pieces[s2]).compose(params)
        if not diff.is_zero():
            violations.append((s1, s2, tau))
    return violations


def _star_multiplicity_data(sigma: Cone, tau: Cone):
    """Data for e(sigma, tau): list of (scale, dual forms), one entry per
    simplex P of sigma's triangulation that contains T.

    Not cached: cone equality ignores ray order, and the triangulation
    depends on it (the value does not, which the tests rely on).

    The triangulation restricts to one of tau; T is the set of tau's rays in
    the first simplex having dim(tau) of them.  Near a relative-interior
    point of T, the simplices P containing T, taken modulo span(tau),
    triangulate the image of sigma in N/N_tau.  So the forms of P are its
    dual-basis characters at the rays outside T, each vanishing on tau, and
    the scale is [N/N_tau : image of Z P] = mult(P)/mult(T).  For sigma =
    tau, P = T and there are no forms.
    """
    if sigma.dim != sigma.ambient_rank:
        raise ValueError("expected a full-dimensional cone")
    pieces = triangulate(sigma)
    on_tau = (tuple(r for r in piece.rays if r in tau.rays) for piece in pieces)
    T = next(t for t in on_tau if len(t) == tau.dim)
    mult_T = multiplicity(cone_from_rays(sigma.ambient_rank, T))
    out = []
    for piece in pieces:
        if set(T).issubset(piece.rays):
            forms = [f for r, f in zip(piece.rays, dual_basis(piece.rays)) if r not in T]
            out.append((Fraction(multiplicity(piece), mult_T), forms))
    return out


def cone_equivariant_multiplicity(sigma: Cone, tau: Cone) -> LinearFraction:
    """Equivariant multiplicity of a full-dimensional cone along a face."""
    if not is_face(tau, sigma):
        raise ValueError("tau must be a face of sigma")
    n = sigma.ambient_rank
    total = LinearFraction.zero(n)
    for scale, forms in _star_multiplicity_data(sigma, tau):
        total = total + LinearFraction.inverse_of_product(n, forms, scale=scale)
    return total


def equivariant_multiplicity(fan: Fan, sigma: Cone, tau: Cone) -> LinearFraction:
    """e(sigma, tau) for a maximal cone of a complete fan and a face of it."""
    if not is_complete(fan):
        raise FanNotComplete("equivariant multiplicities are taken in a complete fan")
    if sigma not in set(fan.maximal_cones):
        raise ValueError("sigma must be a maximal cone of the fan")
    return cone_equivariant_multiplicity(sigma, tau)


def residue_sum(f: PiecewisePolynomial, tau: Cone) -> Polynomial:
    """Sum of piece * multiplicity over maximal cones containing tau.

    The rational-function sum always collapses to a polynomial; a failure to
    do so signals an implementation bug or bad input and raises."""
    fan = f.fan
    if not is_complete(fan):
        raise FanNotComplete("residue sums need a complete fan")
    total = LinearFraction.zero(fan.ambient_rank)
    for sigma in fan.cones_containing(tau):
        if sigma not in f.pieces:  # only maximal cones carry pieces
            continue
        piece = f.pieces[sigma]
        if piece.is_zero():
            continue
        e = cone_equivariant_multiplicity(sigma, tau)
        total = total + e.poly_mul(piece)
    if not total.is_polynomial():
        raise ResidueNotPolynomial(
            f"residue at {fan.cone_key(tau)} is {total.render()}"
        )
    out = total.as_polynomial()
    want = f.degree - fan.codim(tau)
    if want < 0:
        check_invariant(out.is_zero(), f"residue at {fan.cone_key(tau)} is nonzero below degree 0")
    else:
        check_invariant(out.is_homogeneous_of(want), f"residue at {fan.cone_key(tau)} is not of degree {want}")
    return out


def pp_to_mw(f: PiecewisePolynomial, mixing: MixingMap) -> MinkowskiWeight:
    """Non-equivariant limit: apply the twisting map to every residue sum."""
    violations = check_pp(f)
    if violations:
        s1, s2, tau = violations[0]
        raise ValueError(
            f"pieces at {f.fan.cone_key(s1)} and {f.fan.cone_key(s2)} disagree on their "
            f"common face {f.fan.cone_key(tau)}"
        )
    values = {}
    for tau in f.fan.cones:
        r = residue_sum(f, tau)
        el = mixing.delta_extend(r)
        if not el.is_zero():
            values[tau] = el
    W = MinkowskiWeight(f.fan, mixing.algebra, mixing, f.degree, values)
    return _assert_balanced(W, "pp_to_mw")
