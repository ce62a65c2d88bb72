"""Module-level memos stay bounded in a long-running process."""

import random
import sys

import torbun as tb

from conftest import P1_CUBED_RAYS, p1_cubed_fan, shear


def torbun_memos():
    """cache_info() of every memoised function in a torbun module namespace."""
    return {
        f"{name}.{attr}": value.cache_info()
        for name, module in sorted(sys.modules.items())
        if name == "torbun" or name.startswith("torbun.")
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }


def test_memos_bounded_over_fresh_fans():
    # sixty (P^1)^3 fans, each under its own product of four elementary
    # shears, go through build, certification and a product, and no memo is
    # cleared: every memo must have a bound, and keep to it
    rng = random.Random(5)
    p1 = tb.projective_space_algebra(1, "h")
    h = p1.basis_element("h")
    mix = tb.MixingMap(p1, [h, p1.zero(), -h])
    seen = set()
    while len(seen) < 60:
        rays = P1_CUBED_RAYS
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            rays = shear(rays, i, j, rng.choice((1, -1)))
        if tuple(rays) in seen:
            continue
        seen.add(tuple(rays))
        fan = p1_cubed_fan(rays)
        v, _attempts = tb.find_generic_vector(fan, rng)
        a, b = rng.randrange(6), rng.randrange(6)
        tb.mw_product(tb.poincare_dual_mw(fan, mix, [a]), tb.poincare_dual_mw(fan, mix, [b]), v)
    memos = torbun_memos()
    assert memos
    for name, info in memos.items():
        assert info.maxsize is not None, name
        assert info.currsize <= info.maxsize, name
