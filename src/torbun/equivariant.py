"""Piecewise polynomials, equivariant multiplicities, and the limit map.

The multiplicity attached to a maximal cone and a face is computed in the
star of the face: for a simplicial image cone it is the reciprocal of the
cone multiplicity times the product of the rational dual-basis characters,
and non-simplicial image cones are handled by summing over a triangulation.
Residue sums of a compatible piecewise polynomial are always genuine
polynomials; their images under the twisting map assemble into a balanced
Minkowski weight.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import MixingMap
from .errors import FanNotComplete, ResidueNotPolynomial, check_invariant
from .fans import (
    Cone,
    Fan,
    is_complete,
    is_face,
    multiplicity,
    star_image_cone,
    triangulate,
)
from .lattice import dot, invert_rational, quotient_map
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
    """Data for e(sigma, tau): list of (piece multiplicity, dual forms).

    Not cached: cone equality ignores ray order, and the triangulation
    depends on it (the value does not, which the tests rely on).

    Each entry corresponds to a maximal simplicial piece of the image of
    sigma in the quotient by the span of tau; the dual forms are rational
    characters in the ambient coordinates, each vanishing on tau.
    """
    q = quotient_map(tau.sublattice)
    image = star_image_cone(q, sigma)
    if image.dim != q.quotient_rank:
        raise ValueError("expected a full-dimensional image cone in the star")
    mtau = tau.span_normals
    out = []
    for piece in triangulate(image):
        lifts = [q.lift(w) for w in piece.rays]
        pairing = [[dot(m, w) for w in lifts] for m in mtau]
        inv = invert_rational(pairing)
        if inv is None:
            raise ValueError("degenerate dual-basis system in the star")
        # the j-th dual form is sum_i inv[j][i] * mtau[i]
        forms = []
        for j in range(len(lifts)):
            coeffs = [Fraction(0)] * sigma.ambient_rank
            for i, m in enumerate(mtau):
                for k in range(sigma.ambient_rank):
                    coeffs[k] += inv[j][i] * m[k]
            forms.append(tuple(coeffs))
        out.append((multiplicity(piece), forms))
    return tuple(out)


def cone_equivariant_multiplicity(sigma: Cone, tau: Cone) -> LinearFraction:
    """Equivariant multiplicity of a full-dimensional cone along a face."""
    if not is_face(tau, sigma):
        raise ValueError("tau must be a face of sigma")
    n = sigma.ambient_rank
    if sigma == tau:
        return LinearFraction.from_polynomial(Polynomial.constant(n, 1))
    total = LinearFraction.zero(n)
    for mult, forms in _star_multiplicity_data(sigma, tau):
        total = total + LinearFraction.inverse_of_product(n, forms, scale=Fraction(mult))
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
