"""Exact-arithmetic toolkit for elliptic curves y^2 = x^3 - N*x with N a
sum of two fourth powers: parametric points, canonical heights and
regulators, quartic-space descent bounds, and twin-representation search.
"""

from .arith import factorize, is_perfect_square
from .curves import (
    Curve,
    Point,
    TorsionKind,
    add,
    on_curve,
    scalar_mul,
    torsion_kind,
    transfer_from_associated,
)
from .descent import (
    DescentReport,
    HomSpaceSolution,
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
from .poly import BinaryForm
from .search import (
    Representation,
    TwinRecord,
    twin_search,
    verify_decomposition_tables,
)

__version__ = "0.1.0"
