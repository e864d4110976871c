"""Exact-arithmetic toolkit for elliptic curves y^2 = x^3 - N*x with N a
sum of two fourth powers: parametric points, canonical heights and
regulators, quartic-space descent bounds, and twin-representation search.
"""

from .arith import (
    SquareClass,
    factorize,
    is_perfect_square,
    square_class_mul,
    squarefree_kernel,
)
from .curves import (
    Curve,
    Point,
    TorsionKind,
    add,
    associated_curve,
    on_curve,
    scalar_mul,
    torsion_kind,
    transfer_from_associated,
)
from .descent import (
    DescentReport,
    HomSpaceSolution,
    lift_to_point,
    rank_lower_bound,
    search_solutions,
    verify_solution,
)
from .families import (
    ParametricPoint,
    euler_family_points,
    euler_n,
    euler_quadruple,
    general_family_points,
    identity_suite,
    specialize_euler,
    specialize_general,
    verify_parametric_point,
)
from .heights import (
    HeightValue,
    canonical_height,
    naive_height,
    regulator_report,
)
from .poly import BivarPoly
from .search import (
    Representation,
    TwinRecord,
    euler_membership_scan,
    twin_search,
    verify_decomposition_tables,
    verify_representation,
)

__version__ = "0.1.0"
