"""Piecewise polynomials, equivariant multiplicities, and the limit map.

The multiplicity e(sigma, tau) of a full-dimensional cone along a face is
read off one triangulation of sigma in N: the simplices containing a fixed
top simplex T of tau's part of it, taken modulo span(tau), triangulate the
image of sigma in the star of tau.  Each such simplex P adds the reciprocal
of mult(P)/mult(T) times the product of its dual-basis characters at the
rays outside T.  The triangulation is taken on ray tuples and each
multiplicity is the gcd of maximal minors, so no cone and no Smith form is
built; the triangulation is kept on the Cone object.

Residue sums of a compatible piecewise polynomial are always genuine
polynomials; their images under the twisting map assemble into a balanced
Minkowski weight.  They are taken over one denominator per face: the fan
keeps, for every cone tau, D_tau, each linear form at its highest power
over the e(sigma, tau) with the lcm of their contents, and the polynomials
N_sigma = D_tau * e(sigma, tau), built once from one triangulation of each
maximal cone.  A residue sum is then one polynomial, sum of f_sigma *
N_sigma, divided exactly by D_tau, or zero at once when that sum is zero;
`cone_equivariant_multiplicity` sums over the simplices on each call.
Common denominators and exact division by linear forms are the
`polynomials` module's: `common_denominator` builds D_tau and the N_sigma,
and `divide_out` divides by D_tau's forms.
Compatibility on a complete fan is checked across the walls the fan keeps,
and pair by pair only when some wall disagrees.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import MixingMap
from .errors import FanNotComplete, InvariantViolation, ResidueNotPolynomial
from .fans import Cone, Fan, _ConeTable, is_complete, is_face, simplex_multiplicity, triangulate_rays
from .lattice import dual_basis, rational_kernel
from .polynomials import LinearFraction, Polynomial, _primitive_form, common_denominator, divide_out, sum_of_products
from .weights import MinkowskiWeight, _assert_balanced


class PiecewisePolynomial:
    """One homogeneous polynomial per maximal cone, compatible on faces."""

    def __init__(self, fan: Fan, degree: int, pieces):
        self.fan = fan
        self.degree = degree
        clean = {}
        for cone, poly in pieces.items():
            if fan._containing.get(cone) != [cone]:
                raise ValueError("pieces must be indexed by maximal cones")
            if poly.num_vars != fan.ambient_rank:
                raise ValueError("piece has wrong number of variables")
            if not poly.is_homogeneous_of(degree):
                raise ValueError(f"piece at {fan.cone_key(cone)} not homogeneous of degree {degree}")
            clean[cone] = poly
        zero = Polynomial.zero(fan.ambient_rank)
        self.pieces = {c: clean.get(c, zero) for c in fan.maximal_cones}

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
    span of the shared face; empty means compatible.

    On a complete fan the walls are checked first: the maximal cones around
    a face of dimension >= 1 are connected through walls containing it, so
    agreement across every wall is agreement on every common face of
    dimension >= 1, and the list is empty.  Otherwise every pair of maximal
    cones is restricted to its common face, and the list is that scan's.
    """
    fan = f.fan
    if is_complete(fan) and all(_agree(f, s1, s2, params) for _, s1, s2, params in _walls(fan)):
        return []
    violations = []
    for s1, s2 in itertools.combinations(fan.maximal_cones, 2):
        tau = fan.common_face(s1, s2)
        if tau.dim == 0:
            continue
        if not _agree(f, s1, s2, _parameter_forms(tau)):
            violations.append((s1, s2, tau))
    return violations


def _parameter_forms(tau: Cone):
    """The coordinates of span(tau) as linear forms in the parameters of a
    rational basis of it, the kernel of tau.span_normals: a polynomial
    vanishes on span(tau) whichever basis parametrises it."""
    basis = rational_kernel(tau.ambient_rank, tau.span_normals)
    return [Polynomial.linear_form([b[i] for b in basis]) for i in range(tau.ambient_rank)]


def _agree(f: PiecewisePolynomial, s1: Cone, s2: Cone, params) -> bool:
    return (f.pieces[s1] - f.pieces[s2]).compose(params).is_zero()


def _walls(fan: Fan):
    """The fan's table "walls", built on first use for a complete fan: each
    ridge of the fan of dimension >= 1, in fan order, as (wall, sigma1,
    sigma2, its _parameter_forms) with its two maximal cones in fan order."""
    return fan.table("walls", lambda: tuple(
        (tau, *sigmas, _parameter_forms(tau)) for tau, sigmas in fan.ridges.items() if tau.dim >= 1
    ))


def _simplices(sigma: Cone):
    """sigma's triangulation: per simplex its rays, its multiplicity, and
    its dual basis in _primitive_form, as (factor, form) per ray.

    Kept on the Cone object, built on first use as an immutable tuple, so it
    dies with the cone.  The triangulation depends on the ray order, and
    cone equality ignores it; but one Cone object never changes its ray
    order, so the kept triangulation is the one this object would give
    again.  Equal cones are different objects whenever they are built
    apart, and keep their own triangulations; e(sigma, tau) does not depend
    on which (the tests check it).
    """
    if sigma._simplices is None:
        if sigma.dim != sigma.ambient_rank:
            raise ValueError("expected a full-dimensional cone")
        sigma._simplices = tuple(
            (rays, simplex_multiplicity(rays), tuple(_primitive_form(u) for u in dual_basis(rays)))
            for rays in triangulate_rays(sigma)
        )
    return sigma._simplices


def _multiplicity(simplices, tau: Cone) -> LinearFraction:
    """e(sigma, tau) from sigma's _simplices.

    The triangulation restricts to one of tau; T is the set of tau's rays in
    the first simplex having dim(tau) of them.  Near a relative-interior
    point of T, the simplices P containing T, taken modulo span(tau),
    triangulate the image of sigma in N/N_tau.  So P adds the reciprocal of
    its scale [N/N_tau : image of Z P] = mult(P)/mult(T) times its dual-basis
    characters at the rays outside T, each vanishing on tau.  For sigma =
    tau, P = T and there are no characters.
    """
    on_tau = (tuple(r for r in rays if r in tau.rays) for rays, _, _ in simplices)
    T = next(t for t in on_tau if len(t) == tau.dim)
    mult_T = simplex_multiplicity(T)
    total = None
    for rays, mult, duals in simplices:
        if set(T).issubset(rays):
            scale, prims = Fraction(mult, mult_T), []
            for r, (factor, prim) in zip(rays, duals):
                if r not in T:
                    scale *= factor
                    prims.append(prim)
            term = LinearFraction.inverse_of_primitive(tau.ambient_rank, prims, scale)
            total = term if total is None else total + term
    return total


def cone_equivariant_multiplicity(sigma: Cone, tau: Cone) -> LinearFraction:
    """Equivariant multiplicity of a full-dimensional cone along a face,
    from the triangulation kept on sigma."""
    if not is_face(tau, sigma):
        raise ValueError("tau must be a face of sigma")
    return _multiplicity(_simplices(sigma), tau)


def equivariant_multiplicity(fan: Fan, sigma: Cone, tau: Cone) -> LinearFraction:
    """e(sigma, tau) for a maximal cone of a complete fan and a face of it."""
    if not is_complete(fan):
        raise FanNotComplete("equivariant multiplicities are taken in a complete fan")
    if fan._containing.get(sigma) != [sigma]:
        raise ValueError("sigma must be a maximal cone of the fan")
    return cone_equivariant_multiplicity(sigma, tau)


def _residue_table(fan: Fan, tau: Cone):
    """tau's entry of the fan's table "residue_tables", which is built on
    first use for every cone of the (complete) fan at once, from the
    triangulation kept on each maximal cone, for all its faces.

    An entry is (den, content, numerators): D_tau = content * prod form^k
    over den = {form: k}, every form at its highest power over the
    e(sigma, tau), and content the lcm of their contents; numerators lists
    (sigma, D_tau * e(sigma, tau)) for the maximal cones sigma containing
    tau, in fan order.
    """
    return fan.table("residue_tables", lambda: _residue_tables(fan))[tau]


def _residue_tables(fan: Fan) -> dict:
    simplices = {sigma: _simplices(sigma) for sigma in fan.maximal_cones}
    tables = _ConeTable()
    for t in fan.cones:
        sigmas = [s for s in fan.cones_containing(t) if s in simplices]
        den, content, numerators = common_denominator([_multiplicity(simplices[s], t) for s in sigmas])
        tables[t] = (den, content, list(zip(sigmas, numerators)))
    return tables


def residue_sum(f: PiecewisePolynomial, tau: Cone) -> Polynomial:
    """Sum of piece * multiplicity over maximal cones containing tau: the
    sum of piece * N_sigma over tau's residue table, divided by D_tau.

    The rational-function sum always collapses to a polynomial; a failure to
    do so signals an implementation bug or bad input and raises."""
    fan = f.fan
    if not is_complete(fan):
        raise FanNotComplete("residue sums need a complete fan")
    den, content, numerators = _residue_table(fan, tau)
    total = out = sum_of_products(fan.ambient_rank, ((f.pieces[sigma], N) for sigma, N in numerators))
    if not total.is_zero():
        out, left = divide_out(total, den)
        if left or content > 1 and any(c % content for c in out.terms.values()):
            raise ResidueNotPolynomial(
                f"residue at {fan.cone_key(tau)} is {LinearFraction(total, den, content).render()}"
            )
        if content > 1:
            out = Polynomial._trusted(out.num_vars, {e: c // content for e, c in out.terms.items()})
    # the invariant messages are built only when a check fails
    want = f.degree - fan.codim(tau)
    if want < 0:
        if not out.is_zero():
            raise InvariantViolation(f"residue at {fan.cone_key(tau)} is nonzero below degree 0")
    elif not out.is_homogeneous_of(want):
        raise InvariantViolation(f"residue at {fan.cone_key(tau)} is not of degree {want}")
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
