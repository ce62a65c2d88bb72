"""Base-class-valued Minkowski weights and the fan displacement product.

A weight of codimension k assigns to each cone a class of the base ring,
homogeneous of cohomological degree k - codim(cone), subject to the
balancing condition.  The relation at (tau, m) has the coefficient
<m, r> / k at a cone sigma one up from tau, for the ray r of sigma outside
tau and the gcd k the fan keeps with it per face: that is <m, n> for every
lift n of the normal generator n_sigma/tau, and needs no quotient lattice.
The relations are built once per fan and mixing map and kept on the fan;
balancing and the presentations read them.
Products sum over the cone pairs that still meet after a certified generic
displacement, deciding only pairs where both weights are nonzero; each is
decided and indexed by `fans._displaced_meet`, as subbundle classes are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraElement, GradedAlgebra, MixingMap
from .errors import BalancingError, FanNotComplete, InvariantViolation, NonGenericVector
from .fans import Cone, Fan, _ConeTable, _displaced_meet, is_complete, is_generic_diagonal, sigma_v_set
from .lattice import Sublattice, Vec, dot


class MinkowskiWeight:
    """Assignment of base classes to cones, stored sparsely."""

    def __init__(self, fan: Fan, algebra: GradedAlgebra, mixing: MixingMap, codim: int, values):
        self.fan = fan
        self.algebra = algebra
        self.mixing = mixing
        self.codim = codim
        vals = {}
        for cone, el in values.items():
            if cone not in fan._containing:
                raise ValueError(f"value on a cone outside the fan: {cone}")
            if el.is_zero():
                continue
            expected = codim - fan.codim(cone)
            if expected < 0 or expected > algebra.top_degree:
                raise ValueError(
                    f"nonzero value outside the degree band at {cone} (degree {expected})"
                )
            if not el.is_homogeneous_of(expected):
                raise ValueError(f"value at {cone} must be homogeneous of degree {expected}")
            vals[cone] = el
        self.values = vals

    def value(self, cone: Cone) -> AlgebraElement:
        return self.values.get(cone, self.algebra.zero())

    def __eq__(self, other):
        return (
            isinstance(other, MinkowskiWeight)
            and self.fan == other.fan
            and self.algebra == other.algebra
            and self.codim == other.codim
            and self.values == other.values
        )

    def __repr__(self):
        entries = ", ".join(
            f"{self.fan.cone_key(c)}: {v.render()}" for c, v in sorted(
                self.values.items(), key=lambda kv: self.fan.cone_sort_key(kv[0])
            )
        )
        return f"MinkowskiWeight(codim {self.codim}; {entries})"

    def is_zero(self) -> bool:
        return not self.values


@dataclass
class BalancingReport:
    ok: bool
    violations: list  # (tau, m, lhs, rhs)


def _require_complete(fan: Fan):
    if not is_complete(fan):
        raise FanNotComplete("this operation needs a complete fan")


@dataclass
class Relation:
    """sum lhs[sigma] [Y(sigma)] = rhs . [Y(tau)] (plus m . [Y(tau)] when
    equivariant): the homology presentation's relation at (tau, m)."""

    tau: Cone
    m: Vec
    lhs: dict  # Cone -> int, over cones one dimension up from tau
    rhs: AlgebraElement
    equivariant_part: Optional[Vec] = None


def relation_at(fan: Fan, mixing: MixingMap, tau: Cone, m) -> Relation:
    """The relation at (tau, m in perp(tau)): lhs {sigma: <m, n_sigma/tau>}
    over the cones one dimension up from tau, rhs delta(m).

    <m, n_sigma/tau> = <m, r> / k for the (r, k) of
    `fan.relation_normals()[tau]`; the division is exact since m is an
    integer combination of the perp basis that k is a gcd over.  Raises
    ValueError when m is not in perp(tau), where the pairing would depend on
    the lift.
    """
    if any(dot(m, r) for r in tau.rays):
        raise ValueError(f"m={tuple(m)} is not in the perp of {tau}")
    lhs = {}
    for sigma, (r, k) in fan.relation_normals()[tau].items():
        c, rest = divmod(dot(m, r), k)
        if rest:  # the message is built only when the check fails
            raise InvariantViolation(f"<m, r> is not a multiple of {k} for m={tuple(m)}, r={r}")
        if c != 0:
            lhs[sigma] = c
    return Relation(tau=tau, m=m, lhs=lhs, rhs=mixing.delta(m))


def relation_rows(fan: Fan, mixing: MixingMap) -> dict:
    """The fan's table "relation_rows" for this mixing map: each cone tau
    mapped to the relations at (tau, m) for m in tau.span_normals, in order,
    all built by `relation_at` when the mixing map differs in value from the
    last one.  The rows are shared: read them, never change them."""
    return fan.table("relation_rows", lambda: {
        tau: tuple(relation_at(fan, mixing, tau, m) for m in tau.span_normals) for tau in fan.cones
    }, mixing)


def _sides(W: MinkowskiWeight, relation: Relation):
    """Both sides of `relation` evaluated on W, reading only W's nonzero values."""
    values = W.values
    lhs = W.algebra.combine((coeff, values[sigma], None) for sigma, coeff in relation.lhs.items() if sigma in values)
    return lhs, (relation.rhs * values[relation.tau] if relation.tau in values else W.algebra.zero())


def balancing_sides(W: MinkowskiWeight, tau: Cone, m):
    """Both sides of the balancing condition at (tau, m in perp(tau)): the
    relation at (tau, m) evaluated on W."""
    return _sides(W, relation_at(W.fan, W.mixing, tau, m))


def check_balancing(W: MinkowskiWeight) -> BalancingReport:
    """Verify the balancing condition on a basis of perp(tau) for every tau.

    Both sides at tau vanish unless W is nonzero at tau or at a cone one
    dimension up, so only those tau are evaluated, in fan order.  Each
    relation is evaluated as lhs - rhs in one sum, and both sides
    separately only where that difference is nonzero.
    """
    fan = W.fan
    _require_complete(fan)
    algebra, values = W.algebra, W.values
    rows = relation_rows(fan, W.mixing)
    normals = fan.relation_normals()
    violations = []
    for tau in fan.cones:
        at_tau = values.get(tau)
        if at_tau is not None or not values.keys().isdisjoint(normals[tau]):
            for relation in rows[tau]:
                terms = [(coeff, values[sigma], None) for sigma, coeff in relation.lhs.items() if sigma in values]
                if at_tau is not None:
                    terms.append((-1, relation.rhs, at_tau))
                if not algebra.combine(terms).is_zero():
                    lhs, rhs = _sides(W, relation)
                    violations.append((tau, relation.m, lhs, rhs))
    return BalancingReport(ok=not violations, violations=violations)


def _assert_balanced(W: MinkowskiWeight, context: str) -> MinkowskiWeight:
    report = check_balancing(W)
    if not report.ok:
        tau, m, lhs, rhs = report.violations[0]
        raise BalancingError(
            f"{context} produced an unbalanced weight at {W.fan.cone_key(tau)}, m={m}: "
            f"{lhs.render()} != {rhs.render()}"
        )
    return W


def unit_weight(fan: Fan, algebra: GradedAlgebra, mixing: MixingMap) -> MinkowskiWeight:
    """Codimension-zero weight: the fundamental class on maximal cones."""
    _require_complete(fan)
    values = {c: algebra.one() for c in fan.maximal_cones}
    return MinkowskiWeight(fan, algebra, mixing, 0, values)


def module_action(c: AlgebraElement, W: MinkowskiWeight) -> MinkowskiWeight:
    """(c . W)(sigma) = c * W(sigma); shifts the codimension by deg(c)."""
    if not c.is_homogeneous():
        raise ValueError("module action needs a homogeneous class")
    degs = c.degrees()
    l = degs[0] if degs else 0
    values = {cone: c * el for cone, el in W.values.items()}
    return MinkowskiWeight(W.fan, W.algebra, W.mixing, W.codim + l, values)


def displacement_pairs(fan: Fan, tau: Cone, v):
    """Ordered pairs (sigma1, sigma2, index) entering the displacement rule
    at tau: both contain tau, codims add to codim(tau), and sigma1 still
    meets sigma2 + v.  The index is [N : N_sigma1 + N_sigma2].

    Raises NonGenericVector when v lies on a diagonal wall.
    """
    v, decided = _certified(fan, v)
    pairs = ((s1, s2, _pair_index(fan, decided, v, tau, s1, s2)) for s1, s2s in _candidates(fan)[tau] for s2 in s2s)
    return [pair for pair in pairs if pair[2] is not None]


def _certified(fan: Fan, v):
    """(v, the fan's table "displacement_table" for v, {(tau, s1, s2): index
    or None} decided so far), renewed when v is new and certified generic."""
    v = tuple(v)

    def certify():
        if not is_generic_diagonal(fan, v):
            raise NonGenericVector(f"displacement vector {v} lies on a wall; it is not generic")
        return {}

    return v, fan.table("displacement_table", certify, v)


def _candidates(fan: Fan):
    """The fan's table "pair_candidates", built for every cone tau at once, in
    fan order: each cone s1 containing tau with the cones s2 containing tau of
    dimension n + dim(tau) - dim(s1), i.e. codim(s1) + codim(s2) = codim(tau)."""
    return fan.table("pair_candidates", lambda: _ConeTable((tau, _candidates_at(fan, tau)) for tau in fan.cones))


def _candidates_at(fan: Fan, tau: Cone):
    containing = fan.cones_containing(tau)
    by_dim = {d: tuple(s for s in containing if s.dim == d) for d in range(tau.dim, fan.ambient_rank + 1)}
    return tuple((s1, by_dim[fan.ambient_rank + tau.dim - s1.dim]) for s1 in containing)


def _pair_index(fan: Fan, decided: dict, v: Vec, tau: Cone, s1: Cone, s2: Cone):
    """[N : N_s1 + N_s2] if s1 meets s2 + v, else None; kept in `decided`.

    Translating by points of tau shows that s1 meets s2 + v iff their
    images meet in Q^n / span(tau).  Where span(s1) and span(s2) + v meet,
    v lies in span(s1) + span(s2), which is then Q^n since v is on no wall;
    so the spans meet in span(tau), and the pair meets iff the point passes
    the facet normals of each s_i that vanish on tau: `_displaced_meet`.
    """
    key = (tau, s1, s2)
    if key not in decided:
        facets = [(u for u in s.facet_normals if not any(dot(u, r) for r in tau.rays)) for s in (s1, s2)]
        decided[key] = _displaced_meet(s1.span_normals, s2.span_normals, v, *facets)
    return decided[key]


def mw_product(W1: MinkowskiWeight, W2: MinkowskiWeight, v) -> MinkowskiWeight:
    """Fan displacement product of two Minkowski weights; only pairs in supp(W1) x supp(W2) add."""
    if W1.fan != W2.fan or W1.algebra != W2.algebra or W1.mixing != W2.mixing:
        raise ValueError("weights live on different bundles")
    fan = W1.fan
    _require_complete(fan)
    v, decided = _certified(fan, v)
    values = {}
    for tau, candidates in _candidates(fan).items():
        terms = []
        for s1, s2s in candidates:
            if s1 in W1.values:
                for s2 in s2s:
                    if s2 in W2.values and (idx := _pair_index(fan, decided, v, tau, s1, s2)):
                        terms.append((idx, W1.values[s1], W2.values[s2]))
        total = W1.algebra.combine(terms)
        if not total.is_zero():
            values[tau] = total
    product = MinkowskiWeight(fan, W1.algebra, W1.mixing, W1.codim + W2.codim, values)
    return _assert_balanced(product, "mw_product")


def diagonal_class(fan: Fan, tau: Cone, v):
    """Displacement expression for the diagonal class over a cone: ordered
    pairs (sigma1, sigma2, coefficient)."""
    _require_complete(fan)
    if tau not in fan._containing:
        raise ValueError("tau not in fan")
    return displacement_pairs(fan, tau, v)


@dataclass
class StratumClassSum:
    """Integer combination of stratum classes of a bundle over a fan."""

    fan: Fan
    terms: dict  # Cone -> positive int


def subbundle_class(fan: Fan, N: Sublattice, v) -> StratumClassSum:
    """Class of the rank-N toric subbundle as a combination of strata.

    The support is the set of cones meeting span(N) + v in one point; the
    coefficient on such a cone is the index [ambient : N_cone + N], which
    `sigma_v_set` reads off the same displaced meet (`fans._displaced_meet`).
    """
    v = tuple(v)
    result = sigma_v_set(fan, N, v)
    if not result.generic:
        bad = result.offending[0]
        raise NonGenericVector(
            f"vector {v} is not generic for the sublattice: it lies on the wall "
            f"span(cone {fan.cone_key(bad)}) + span(sublattice)"
        )
    return StratumClassSum(fan, result.cones)
