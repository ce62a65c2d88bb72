"""Presentations of stratum-class modules and the intersection ring oracle.

The homology presentation lists one generator per cone and one relation per
(cone, perp character).  On a smooth complete fan, products of fibrewise
divisors reduce to a normal form in stratum classes by squarefree lookup and
elimination of repeated factors through the linear relations; pushing
forward to the base turns ring classes into Minkowski weights.  Normal forms
are memoised by monomial in a table the fan keeps for its latest mixing map.
An elimination substitutes `weights.relation_at` at the zero cone and the
dual character m that the fan keeps for any mixing map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, GradedAlgebra, MixingMap
from .errors import ConeNotInFan, OracleRequiresSmoothComplete, check_invariant
from .fans import Cone, Fan, is_complete
from .lattice import dual_basis
from .weights import MinkowskiWeight, Relation, _assert_balanced, relation_at, relation_rows


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


def _elimination(fan: Fan, sigma_star: Cone, rep: int):
    """The fan's "dual_characters" entry for a smooth maximal cone and its
    ray of index rep, built on first use: the dual character m, pairing to 1
    with that ray and to 0 with sigma_star's other rays."""
    characters = fan.table("dual_characters", dict)
    m = characters.get((sigma_star, rep))
    if m is None:
        col = dual_basis(sigma_star.rays)[sigma_star.rays.index(fan.rays[rep])]
        check_invariant(all(c.denominator == 1 for c in col), "dual character of a smooth cone is not integral")
        m = characters[(sigma_star, rep)] = tuple(int(c) for c in col)
    return m


def _normal_forms(fan: Fan, mixing: MixingMap):
    """A memoised routine `_normal_form(monomial)`: for a sorted tuple of ray
    indices, the normal form of prod(D_ray) in stratum classes, as
    {cone: nonzero coefficient}.  The memo and, per character m, the
    relation at (zero cone, m) from `relation_at` are the fan's table
    "normal_forms" for the mixing map, kept between calls.

    Squarefree monomials over a cone become that stratum; non-faces vanish;
    a repeated ray is eliminated by substituting its linear relation, chosen
    so that the other rays of the first maximal cone containing the
    monomial's cone drop out: D_rep = p*delta(m) - sum_{j!=rep} <m, u_j> D_j.
    A step keeps the monomial's length plus its coefficient's degree, and a
    normal form's monomials have at most n rays, so a monomial longer than n
    plus the top degree is 0.  Elimination runs on an explicit stack.
    """
    n, algebra = fan.ambient_rank, mixing.algebra
    longest = n + algebra.top_degree
    memo, relations = fan.table("normal_forms", lambda: ({}, {}), mixing)

    def step(monomial):
        """monomial's normal form when it needs no elimination, else the
        elimination (delta(m), monomial without one rep, [(-<m, u_j>, monomial_j)])."""
        if len(monomial) > longest:
            return {}
        try:
            cone = fan.cone_by_ray_indices(set(monomial))
        except ConeNotInFan:
            return {}  # non-face annihilates the product
        if len(cone.rays) == len(monomial):
            return {cone: algebra.one()}
        k = next(k for k in range(len(monomial) - 1) if monomial[k] == monomial[k + 1])
        rest = monomial[:k] + monomial[k + 1 :]
        sigma_star = next(s for s in fan.cones_containing(cone) if s.dim == n)
        m = _elimination(fan, sigma_star, monomial[k])
        if m not in relations:
            relations[m] = relation_at(fan, mixing, fan.zero_cone(), m)
        terms = ((fan.cone_key(ray), c) for ray, c in relations[m].lhs.items())  # 1 at monomial[k]
        return relations[m].rhs, rest, [(-c, tuple(sorted(rest + j))) for j, c in terms if j != (monomial[k],)]

    def _normal_form(monomial) -> dict:
        stack, steps = [monomial], {}  # steps: the eliminations under way
        while stack:
            mono = stack[-1]
            if mono in memo:
                stack.pop()
                continue
            if mono not in steps:
                steps[mono] = step(mono)
                if isinstance(steps[mono], dict):
                    memo[mono] = steps.pop(mono)
                    continue
            delta, rest, others = steps[mono]
            needed = ([rest] if not delta.is_zero() else []) + [mj for _, mj in others]
            todo = [mj for mj in needed if mj not in memo]
            if todo:
                # a monomial under way that comes back would never finish
                check_invariant(not any(mj in steps for mj in todo), "an elimination returns to its monomial")
                stack += todo
                continue
            out = {cone: el * delta for cone, el in memo[rest].items()} if not delta.is_zero() else {}
            for c, mj in others:
                for cone, el in memo[mj].items():
                    out[cone] = out[cone] + el * c if cone in out else el * c
            memo[mono] = {cone: el for cone, el in out.items() if not el.is_zero()}
            del steps[mono]
            stack.pop()
        return memo[monomial]

    return _normal_form


def _monomial(fan: Fan, ray_indices) -> tuple:
    start = tuple(sorted(ray_indices))
    if not all(0 <= i < len(fan.rays) for i in start):
        raise ValueError(f"ray indices must lie in 0..{len(fan.rays) - 1}, got {list(start)}")
    return start


def reduce_product(fan: Fan, mixing: MixingMap, ray_indices, base: AlgebraElement = None) -> RingElement:
    """Normal form of p*(base) . prod(D_ray) in stratum classes: base times
    the normal form of the monomial, memoised on the fan."""
    _require_oracle_fan(fan)
    base = base if base is not None else mixing.algebra.one()
    nf = _normal_forms(fan, mixing)(_monomial(fan, ray_indices))
    return RingElement(fan, mixing.algebra, {cone: base * el for cone, el in nf.items()})


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
    its value on a cone is the pushforward of the product with that stratum.
    The normal forms share the memo the fan keeps for the mixing map."""
    _require_oracle_fan(fan)
    algebra = mixing.algebra
    base = base if base is not None else algebra.one()
    base_degs = base.degrees()
    if len(base_degs) > 1:
        raise ValueError("base class must be homogeneous")
    ray_indices = tuple(ray_indices)
    codim = len(ray_indices) + (base_degs[0] if base_degs else 0)
    start = _monomial(fan, ray_indices)
    normal_form = _normal_forms(fan, mixing)
    values = {}
    for cone in fan.cones:
        nf = RingElement(fan, algebra, normal_form(tuple(sorted(start + fan.cone_key(cone)))))
        val = pushforward_to_base(nf) * base
        if not val.is_zero():
            values[cone] = val
    W = MinkowskiWeight(fan, algebra, mixing, codim, values)
    return _assert_balanced(W, "poincare_dual_mw")
