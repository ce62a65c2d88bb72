"""Exact Chow-theoretic computations for toric variety bundles.

Integer lattice linear algebra, polyhedral fans, base-class-valued
Minkowski weights with the fan displacement product, equivariant
multiplicities and residue sums, homology presentations, and an
intersection ring oracle for smooth complete fibre fans.
"""

from .algebra import (
    AlgebraElement,
    GradedAlgebra,
    MixingMap,
    make_free_truncated,
    point_algebra,
    projective_space_algebra,
)
from .equivariant import (
    PiecewisePolynomial,
    check_pp,
    cone_equivariant_multiplicity,
    equivariant_multiplicity,
    pp_to_mw,
    residue_sum,
)
from .errors import (
    BalancingError,
    ConeNotInFan,
    FanNotComplete,
    InvalidFan,
    InvariantViolation,
    NonGenericVector,
    NotCodimOne,
    NotSaturated,
    NotSimplicial,
    NotStronglyConvex,
    OracleRequiresSmoothComplete,
    RankCapExceeded,
    ResidueNotPolynomial,
    TorbunError,
    ZeroVector,
)
from .fans import (
    Cone,
    Fan,
    cone_from_rays,
    fan_from_ray_lists,
    faces_of,
    find_generic_vector,
    is_complete,
    is_face,
    is_generic_diagonal,
    multiplicity,
    sigma_v_set,
    triangulate,
    zero_cone,
)
from .lattice import (
    INFINITE,
    Sublattice,
    full_sublattice,
    lattice_index,
    perp_basis,
    primitive,
    saturated_span,
    saturation,
    smith_normal_form,
    zero_sublattice,
)
from .polynomials import LinearFraction, Polynomial, divide_exact
from .presentations import (
    Presentation,
    RingElement,
    equivariant_presentation,
    homology_presentation,
    poincare_dual_mw,
    pushforward_to_base,
    reduce_product,
)
from .problem import Problem, ProblemError, parse_problem
from .weights import (
    BalancingReport,
    MinkowskiWeight,
    Relation,
    StratumClassSum,
    balancing_sides,
    check_balancing,
    diagonal_class,
    displacement_pairs,
    module_action,
    mw_product,
    subbundle_class,
    unit_weight,
)
