"""Workload rank-ladder: cold rank-3 and rank-4 bundles, one solved per
operation.

The rungs are (P^1)^3 and P^4 (rank 4 is torbun's RANK_CAP), both smooth,
and the face fan of the cube, a non-simplicial singular rank-3 fan; each is
a bundle over P^1 with a twisting matrix.  (P^1)^4 is left out: building it
alone takes about 24 s.  Each operation first applies an elementary +-1
shear, the coordinate change x_i += s x_j, to the rays and the mixing
matrix, and starts with the program's memos emptied (untimed), so that no
operation reuses a memo entry another one made.  One operation builds the
fan with `fan_from_ray_lists`, certifies a displacement vector with
`find_generic_vector` (seeded 0, the CLI's default), and takes the
`mw_product` of two weights: `poincare_dual_mw` of two divisors on the
smooth rungs, `pp_to_mw` of two piecewise linear functions on the cube.  This is where the
`fans`/`polyhedra` Fourier-Motzkin work is, with caches cold.

A batch is one ladder of fifteen operations: (P^1)^3 under each of its
twelve shears, the cube under x_1 += x_2 and x_1 -= x_2, and P^4 under
x_1 += x_2, in an order the seed shuffles; the seed also draws each
operation's weight pair.  The shears are the same in every run, so runs of
different seeds time the same bundles: the median falls among the
(P^1)^3 operations and the 90th percentile among the cube ones.

Checks, outside the timed operation: on smooth rungs the product equals
`poincare_dual_mw` of the product monomial; on the cube the product at a
second certified vector is the same; and every product's ray-indexed table
equals the one recorded in golden.json for the bundle without the shear.
"""

from __future__ import annotations

import random

import bundles
import torbun as tb
from harness import Op

P1_CUBED = bundles.p1_power(3, ((1,), (1,), (0,)))
P4 = bundles.projective_space(4, ((1,), (0,), (-1,), (1,)))
CUBE = bundles.cube_fan(((1,), (0,), (-1,)))
RUNGS = {spec.name: spec for spec in (P1_CUBED, P4, CUBE)}

# piecewise linear functions on the cube fan as (m, c): value <m, ray> + c
CUBE_PL = (((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, -1), 2), ((1, -1, 0), 0))

SETUP_SAMPLES = 9
SETUP_CODE = "import rank_ladder; rank_ladder.setup({seed})"
SEARCH_SEED = 0
COLD = True  # the memos are emptied, untimed, before every operation


def cube_values(index):
    m, c = CUBE_PL[index]
    return [sum(a * x for a, x in zip(m, ray)) + c for ray in CUBE.rays]


def weight_pairs(spec):
    """The weight pairs a product may use: ray pairs, or CUBE_PL pairs."""
    k = len(CUBE_PL) if spec.name == CUBE.name else len(spec.rays)
    return [(a, b) for a in range(k) for b in range(a, k)]


def certify(spec):
    bundle = bundles.build_bundle(spec)
    v, _attempts = tb.find_generic_vector(bundle.fan, random.Random(SEARCH_SEED))
    return bundle, v


def weights(bundle, pair):
    a, b = pair
    if bundle.spec.name == CUBE.name:
        f = bundles.pl_function(bundle, cube_values(a))
        g = bundles.pl_function(bundle, cube_values(b))
        return tb.pp_to_mw(f, bundle.mixing), tb.pp_to_mw(g, bundle.mixing)
    return (
        tb.poincare_dual_mw(bundle.fan, bundle.mixing, [a]),
        tb.poincare_dual_mw(bundle.fan, bundle.mixing, [b]),
    )


def solve(spec, pair):
    """One operation: build, certify, and multiply two weights."""
    bundle, v = certify(spec)
    w1, w2 = weights(bundle, pair)
    return bundle, v, w1, w2, tb.mw_product(w1, w2, v)


def shear(n, i, j, s):
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    m[i][j] = s
    return m


def ladder(rng):
    """One ladder: (sheared spec, weight pair) per operation, seeded order."""
    specs = [
        P1_CUBED.transformed(shear(3, i, j, s)) for i in range(3) for j in range(3) if i != j for s in (1, -1)
    ]
    specs += [CUBE.transformed(shear(3, 0, 1, s)) for s in (1, -1)]
    specs.append(P4.transformed(shear(4, 0, 1, 1)))
    rng.shuffle(specs)
    return [(spec, rng.choice(weight_pairs(RUNGS[spec.name]))) for spec in specs]


def setup(seed: int):
    """Import (done by the caller) plus input generation: the first ladder."""
    rng = random.Random(seed)
    return rng, ladder(rng)


def ops(ctx, seed: int):
    golden = ctx.golden["rank-ladder"]
    rng, steps = setup(seed)
    while True:
        for position, (spec, pair) in enumerate(steps):
            yield Op(
                spec.name,
                lambda spec=spec, pair=pair: solve(spec, pair),
                lambda result, pair=pair: check(golden, result, pair),
                batch_end=position == len(steps) - 1,
            )
        steps = ladder(rng)


def check(golden, result, pair) -> bool:
    bundle, v, w1, w2, product = result
    spec = bundle.spec
    key = f"{pair[0]},{pair[1]}"
    if bundles.weight_table(bundle, product) != golden[spec.name][key]:
        return False
    if spec.name == CUBE.name:
        rng = random.Random(SEARCH_SEED + 1)
        v2 = v
        while v2 == v:
            v2, _ = tb.find_generic_vector(bundle.fan, rng)
        return tb.mw_product(w1, w2, v2) == product
    return product == tb.poincare_dual_mw(bundle.fan, bundle.mixing, list(pair))


def record(ctx) -> dict:
    """Product tables of every weight pair on the unsheared rungs."""
    out = {}
    for spec in RUNGS.values():
        bundle, v = certify(spec)
        tables = {}
        for pair in weight_pairs(spec):
            w1, w2 = weights(bundle, pair)
            tables[f"{pair[0]},{pair[1]}"] = bundles.weight_table(bundle, tb.mw_product(w1, w2, v))
        out[spec.name] = tables
    return out
