"""Presentations of stratum-class modules and the intersection ring oracle.

The homology presentation lists one generator per cone and one relation per
(cone, perp character).  On a smooth complete fan, products of fibrewise
divisors reduce to a normal form in stratum classes by squarefree lookup and
elimination of repeated factors through the linear relations; pushing
forward to the base turns ring classes into Minkowski weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, GradedAlgebra, MixingMap
from .errors import ConeNotInFan, OracleRequiresSmoothComplete, check_invariant
from .fans import Cone, Fan, is_complete
from .lattice import Vec, dot, dual_basis
from .weights import MinkowskiWeight, Relation, _assert_balanced, relation_rows


@dataclass
class Presentation:
    generators: list  # (Cone, homological degree)
    relations: list[Relation]


def _presentation(fan: Fan, mixing: MixingMap, equivariant: bool) -> Presentation:
    """The fan's relation rows in fan order, each copied into a fresh Relation
    so that no caller can change the shared rows."""
    generators = [(c, mixing.algebra.top_degree + fan.codim(c)) for c in fan.cones]
    rows = relation_rows(fan, mixing)
    relations = [
        Relation(r.tau, r.m, dict(r.lhs), r.rhs, r.m if equivariant else None)
        for tau in fan.cones
        for r in rows[tau]
    ]
    return Presentation(generators, relations)


def homology_presentation(fan: Fan, mixing: MixingMap) -> Presentation:
    """Generators [Y(tau)] and relations sum <m, n> [Y(sigma)] = delta(m).[Y(tau)]."""
    return _presentation(fan, mixing, equivariant=False)


def equivariant_presentation(fan: Fan, mixing: MixingMap) -> Presentation:
    """Same generators; the right side gains the linear character itself."""
    return _presentation(fan, mixing, equivariant=True)


class RingElement:
    """Normal form: integer-ring combination sum p*(class) . [Y(cone)]."""

    def __init__(self, fan: Fan, algebra: GradedAlgebra, terms=None):
        self.fan = fan
        self.algebra = algebra
        self.terms = {c: el for c, el in (terms or {}).items() if not el.is_zero()}

    def add_term(self, cone: Cone, el: AlgebraElement) -> "RingElement":
        terms = dict(self.terms)
        cur = terms.get(cone, self.algebra.zero())
        terms[cone] = cur + el
        return RingElement(self.fan, self.algebra, terms)

    def __add__(self, other: "RingElement") -> "RingElement":
        out = self
        for c, el in other.terms.items():
            out = out.add_term(c, el)
        return out

    def scale(self, el) -> "RingElement":
        return RingElement(self.fan, self.algebra, {c: x * el for c, x in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.fan == other.fan
            and self.terms == other.terms
        )

    def __repr__(self):
        body = ", ".join(
            f"{self.fan.cone_key(c)}: {el.render()}"
            for c, el in sorted(self.terms.items(), key=lambda kv: self.fan.cone_sort_key(kv[0]))
        )
        return f"RingElement({body})"


def _require_oracle_fan(fan: Fan):
    if not is_complete(fan) or not fan.is_smooth():
        raise OracleRequiresSmoothComplete(
            "the intersection ring oracle needs a smooth complete fan"
        )


def _dual_character(sigma_star: Cone, ray: Vec) -> Vec:
    """The character pairing to 1 with `ray` and to 0 with the other rays of
    the smooth maximal cone sigma_star."""
    col = dual_basis(sigma_star.rays)[sigma_star.rays.index(ray)]
    check_invariant(all(c.denominator == 1 for c in col), "dual character of a smooth cone is not integral")
    return tuple(int(c) for c in col)


def reduce_product(fan: Fan, mixing: MixingMap, ray_indices, base: AlgebraElement = None) -> RingElement:
    """Normal form of p*(base) . prod(D_ray) in stratum classes.

    Squarefree monomials over a cone become that stratum; non-faces vanish;
    a repeated ray is eliminated by substituting its linear relation, chosen
    so the other rays of the smallest containing maximal cone drop out.
    """
    _require_oracle_fan(fan)
    algebra = mixing.algebra
    base = base if base is not None else algebra.one()
    start = tuple(sorted(ray_indices))
    if not all(0 <= i < len(fan.rays) for i in start):
        raise ValueError(f"ray indices must lie in 0..{len(fan.rays) - 1}, got {list(start)}")
    result = RingElement(fan, algebra)
    # worklist of (sorted ray-index multiset, coefficient)
    work = [(start, base)]
    while work:
        monomial, coeff = work.pop()
        if coeff.is_zero():
            continue
        try:
            cone = fan.cone_by_ray_indices(set(monomial))
        except ConeNotInFan:
            continue  # non-face annihilates the product
        if len(set(monomial)) == len(monomial):
            result = result.add_term(cone, coeff)
            continue
        rep = next(i for i in monomial if monomial.count(i) > 1)
        rest = list(monomial)
        rest.remove(rep)
        rest = tuple(rest)
        sigma_star = next(s for s in fan.cones_containing(cone) if s.dim == fan.ambient_rank)
        m = _dual_character(sigma_star, fan.rays[rep])
        # D_rep = p*delta(m) - sum_{other rays} <m, u> D_other
        work.append((rest, coeff * mixing.delta(m)))
        for j, u in enumerate(fan.rays):
            if j == rep:
                continue
            c = dot(m, u)
            if c != 0:
                work.append((tuple(sorted(rest + (j,))), coeff * (-c)))
    return result


def pushforward_to_base(element: RingElement) -> AlgebraElement:
    """p_* of a normal form: only full-dimensional strata survive."""
    fan = element.fan
    out = element.algebra.zero()
    for cone, el in element.terms.items():
        if cone.dim == fan.ambient_rank:
            out = out + el
    return out


def poincare_dual_mw(
    fan: Fan, mixing: MixingMap, ray_indices, base: AlgebraElement = None
) -> MinkowskiWeight:
    """Minkowski weight of the ring class p*(base) . prod(D_ray):
    its value on a cone is the pushforward of the product with that stratum."""
    _require_oracle_fan(fan)
    algebra = mixing.algebra
    base = base if base is not None else algebra.one()
    base_degs = base.degrees()
    if len(base_degs) > 1:
        raise ValueError("base class must be homogeneous")
    codim = len(tuple(ray_indices)) + (base_degs[0] if base_degs else 0)
    values = {}
    for cone in fan.cones:
        nf = reduce_product(fan, mixing, tuple(ray_indices) + fan.cone_key(cone), base)
        val = pushforward_to_base(nf)
        if not val.is_zero():
            values[cone] = val
    W = MinkowskiWeight(fan, algebra, mixing, codim, values)
    return _assert_balanced(W, "poincare_dual_mw")
