"""Exception hierarchy for torbun."""


class TorbunError(Exception):
    """Base class for all torbun errors."""


class ZeroVector(TorbunError):
    """A nonzero lattice vector was required."""


class NotSaturated(TorbunError):
    """A saturated sublattice was required (quotient would have torsion)."""


class NotCodimOne(TorbunError):
    """The sublattice pair must differ in rank by exactly one."""


class NotStronglyConvex(TorbunError):
    """The cone contains a line."""


class NotSimplicial(TorbunError):
    """A simplicial cone was required."""


class RankCapExceeded(TorbunError):
    """Facet enumeration is capped at ambient rank 4."""


class ConeNotInFan(TorbunError):
    """The cone does not belong to the fan."""


class InvalidFan(TorbunError):
    """Cones do not intersect in common faces."""


class FanNotComplete(TorbunError):
    """A complete fan was required."""


class NonGenericVector(TorbunError):
    """The displacement vector failed genericity certification."""


class ResidueNotPolynomial(TorbunError):
    """A residue sum failed to reduce to a genuine polynomial."""


class OracleRequiresSmoothComplete(TorbunError):
    """The intersection ring oracle needs a smooth complete fan."""


class BalancingError(TorbunError):
    """A weight that must balance failed the balancing condition."""


class InvariantViolation(TorbunError):
    """An internal invariant failed: a bug in torbun, not bad input."""


def check_invariant(condition, message: str):
    """Raise InvariantViolation unless condition holds; unlike assert, this
    also runs under python -O."""
    if not condition:
        raise InvariantViolation(message)
