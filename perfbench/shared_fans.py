"""Workload shared-fans: many small operations on a few fans built once.

Set-up builds F1 over its free_truncated base, (P^1)^3 over a twisted
two-generator base, and the singular fan of fixtures/singular_fan.json, and
certifies one displacement vector per fan, searched with seed 0 (the CLI's
default) so that every run multiplies at the same vectors.  An operation is
one step of a session on one fan, the fans taken in turn: one call of each
kind, with arguments drawn by the seed -- `poincare_dual_mw` of a divisor monomial
(smooth fans), `mw_product` at the certified vector, `pp_to_mw` and
`residue_sum` of a random compatible piecewise polynomial,
`cone_equivariant_multiplicity`, `check_balancing`, and a homology or
equivariant presentation.  Single calls take from 0.1 to 25 ms and form
separate groups by kind, so the quantiles of single calls would sit on the
edges between groups and jump from run to run; a step of all kinds has one
smooth spread of latencies per fan.

Why: this exercises `lattice`, `polynomials`, `algebra`, `weights`,
`equivariant` and `presentations` with almost no Fourier-Motzkin in the
timed phase.  All operations share the same fans, so the memos are warm:
the `weights` and `fans` memo paths are used the opposite way to
rank-ladder, and a cache change that helps one workload and costs the other
shows on both.

Checks, outside the timed operation: products equal `poincare_dual_mw` of
the product monomial on smooth fans and `pp_to_mw` of the product of the
piecewise polynomials on the singular fan; `pp_to_mw` on smooth fans equals
the same combination of `poincare_dual_mw` weights; residues are homogeneous
of the expected degree; multiplicities have degree dim(tau) - dim(sigma);
balancing holds; presentations have one generator per cone and one relation
per (cone, basis character of its perp).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

import bundles
import torbun as tb
from harness import Op

P1_CUBED_TWISTED = dataclasses.replace(
    bundles.p1_power(3, ((1, 0), (0, 1), (1, -1))),
    name="p1^3-twisted",
    base=("free_truncated", (("a1", 1), ("a2", 1)), 2),
)
SPECS = (bundles.F1, P1_CUBED_TWISTED, bundles.SINGULAR)

SETUP_SAMPLES = 5
SETUP_CODE = "import shared_fans; shared_fans.setup()"
COLD = False  # every operation uses the memos the set-up and earlier operations filled
SEARCH_SEED = 0


@dataclass
class SharedFan:
    bundle: bundles.Bundle
    v: tuple
    smooth: bool
    rays: list  # per ray: the degree-one piecewise function and its weight
    references: dict = field(default_factory=dict)

    def reference(self, key, compute):
        """A check's expected value, computed once per run."""
        if key not in self.references:
            self.references[key] = compute()
        return self.references[key]

    def dual(self, monomial):
        b = self.bundle
        return self.reference(("dual", tuple(monomial)), lambda: tb.poincare_dual_mw(b.fan, b.mixing, list(monomial)))


def setup():
    """Build and certify the shared fans; the weight of every ray function
    is the pool that products and balancing checks draw from."""
    shared = []
    for spec in SPECS:
        bundle = bundles.build_bundle(spec)
        v, _attempts = tb.find_generic_vector(bundle.fan, random.Random(SEARCH_SEED))
        smooth = bundle.fan.is_smooth()
        rays = []
        for i in range(len(spec.rays)):
            f = bundles.pl_function(bundle, [int(k == i) for k in range(len(spec.rays))])
            if smooth:
                w = tb.poincare_dual_mw(bundle.fan, bundle.mixing, [i])
            else:
                w = tb.pp_to_mw(f, bundle.mixing)
            rays.append((f, w))
        shared.append(SharedFan(bundle, v, smooth, rays))
    return shared


def random_pp(sf: SharedFan, rng, degree: int):
    """A random integer combination of products of ray functions, and the
    same combination as (coefficient, ray indices) terms."""
    fan = sf.bundle.fan
    terms = []
    pieces = None
    for _ in range(rng.randint(1, 3)):
        monomial = sorted(rng.randrange(len(sf.rays)) for _ in range(degree))
        coeff = rng.choice((-2, -1, 1, 2, 3))
        term = sf.rays[monomial[0]][0]
        for i in monomial[1:]:
            term = term * sf.rays[i][0]
        terms.append((coeff, monomial))
        scaled = {c: p * coeff for c, p in term.pieces.items()}
        pieces = scaled if pieces is None else {c: pieces[c] + scaled[c] for c in fan.maximal_cones}
    return tb.PiecewisePolynomial(fan, degree, pieces), terms


KINDS = ("oracle", "product", "pp_to_mw", "residue", "mult", "balancing", "presentation")


def make_call(sf: SharedFan, kind: str, rng):
    """(execute, check) of one call of the given kind."""
    b = sf.bundle
    fan, mixing = b.fan, b.mixing
    n = fan.ambient_rank
    if kind == "oracle":
        monomial = sorted(rng.randrange(len(sf.rays)) for _ in range(rng.randint(1, 2)))

        def check(w):
            if len(monomial) == 1:
                return w == sf.rays[monomial[0]][1]
            w1, w2 = (sf.rays[i][1] for i in monomial)
            return w == sf.reference(("product", *monomial), lambda: tb.mw_product(w1, w2, sf.v))

        return lambda: tb.poincare_dual_mw(fan, mixing, monomial), check
    if kind == "product":
        i, j = sorted(rng.randrange(len(sf.rays)) for _ in range(2))
        w1, w2 = sf.rays[i][1], sf.rays[j][1]

        def check(w):
            if sf.smooth:
                return w == sf.dual((i, j))
            return w == sf.reference(("limit", i, j), lambda: tb.pp_to_mw(sf.rays[i][0] * sf.rays[j][0], mixing))

        return lambda: tb.mw_product(w1, w2, sf.v), check
    if kind == "pp_to_mw":
        f, terms = random_pp(sf, rng, rng.randint(1, 2))

        def check(w):
            if not sf.smooth:
                return tb.check_balancing(w).ok
            duals = [(coeff, sf.dual(monomial)) for coeff, monomial in terms]
            for cone in fan.cones:
                want = b.algebra.zero()
                for coeff, dual in duals:
                    want = want + dual.value(cone) * coeff
                if w.value(cone) != want:
                    return False
            return True

        return lambda: tb.pp_to_mw(f, mixing), check
    if kind == "residue":
        f, _terms = random_pp(sf, rng, rng.randint(1, 2))
        tau = rng.choice(fan.cones)
        want = f.degree - fan.codim(tau)

        def check(r):
            return r.is_zero() if want < 0 else r.is_zero() or r.is_homogeneous_of(want)

        return lambda: tb.residue_sum(f, tau), check
    if kind == "mult":
        sigma = rng.choice(fan.maximal_cones)
        # every ray subset of a simplicial cone spans a face
        faces = [c for c in fan.cones if set(c.rays) <= set(sigma.rays)]
        tau = rng.choice(faces)
        return lambda: tb.cone_equivariant_multiplicity(sigma, tau), lambda e: e.degree() == tau.dim - sigma.dim
    if kind == "balancing":
        w = rng.choice(sf.rays)[1]
        return lambda: tb.check_balancing(w), lambda report: report.ok
    name = rng.choice(("homology_presentation", "equivariant_presentation"))
    n_relations = sum(n - c.dim for c in fan.cones)

    def check(p):
        return len(p.generators) == len(fan.cones) and len(p.relations) == n_relations

    return lambda: getattr(tb, name)(fan, mixing), check


def ops(ctx, seed: int):
    rng = random.Random(seed)
    while True:
        for sf in ctx.state:
            calls = [make_call(sf, kind, rng) for kind in KINDS if sf.smooth or kind != "oracle"]
            yield Op(
                sf.bundle.spec.name,
                lambda calls=calls: [execute() for execute, _check in calls],
                lambda results, calls=calls: all(check(r) for (_e, check), r in zip(calls, results)),
            )
