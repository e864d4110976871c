"""Parametric families of curves and points built from fourth-power sums.

Two families:

* general: y^2 = x^3 - (m^4 + n^4)x with two parametric points coming from
  quartic-space solutions at d = -1 (on the curve) and d = 2 (on the
  associated curve, transferred back).

* euler: the degree-7 quadruple (A, B, C, D) with A^4 + B^4 = C^4 + D^4
  identically; with w = 1 the common value N(u) factors into four even
  polynomials and the curve y^2 = x^3 - N(u)x carries four parametric
  points.

A point is kept in weighted coordinates: three integer polynomials
(x, y, z) standing for (x/z^2, y/z^3).  Every identity is then an exact
equality of polynomials: on the curve y^2 = x^3 - N*x*z^4, on the
associated curve y^2 = x^3 + 4N*x*z^4, and two x-coordinates agree iff
x*z'^2 = x'*z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ArithDomainError
from .curves import Curve, Point
from .poly import BivarPoly, PolyUsageError, univariate

U = ("u",)
UW = ("u", "w")
MN = ("m", "n")


class DegenerateSpecializationError(ArithDomainError):
    """Parameter values where a denominator vanishes, N <= 0, or the two
    fourth-power representations collapse into one."""


@dataclass(frozen=True)
class ParametricPoint:
    """The point (x/z^2, y/z^3); z is a nonzero polynomial."""

    x: BivarPoly
    y: BivarPoly
    z: BivarPoly

    def __post_init__(self):
        if self.z.is_zero:
            raise PolyUsageError("zero z polynomial")


# ---------------------------------------------------------------------------
# Euler's quadruple and the factored N(u)
# ---------------------------------------------------------------------------


def _uw(coeffs: dict) -> BivarPoly:
    return BivarPoly(UW, coeffs)


def euler_quadruple() -> tuple[BivarPoly, BivarPoly, BivarPoly, BivarPoly]:
    """The four homogeneous degree-7 polynomials with A^4+B^4 = C^4+D^4."""
    a = _uw({(7, 0): 1, (5, 2): 1, (3, 4): -2, (2, 5): 3, (1, 6): 1})
    b = _uw({(6, 1): 1, (5, 2): -3, (4, 3): -2, (2, 5): 1, (0, 7): 1})
    c = _uw({(7, 0): 1, (5, 2): 1, (3, 4): -2, (2, 5): -3, (1, 6): 1})
    d = _uw({(6, 1): 1, (5, 2): 3, (4, 3): -2, (2, 5): 1, (0, 7): 1})
    return a, b, c, d


def euler_n_factors() -> tuple[BivarPoly, BivarPoly, BivarPoly, BivarPoly]:
    """The four even factors of N(u) = A(u,1)^4 + B(u,1)^4."""
    f1 = univariate("u", [1, 0, 6, 0, 1])
    f2 = univariate("u", [1, 0, 0, 0, -1, 0, 0, 0, 1])
    f3 = univariate("u", [1, 0, -4, 0, 8, 0, -4, 0, 1])
    f4 = univariate("u", [1, 0, 2, 0, 11, 0, 2, 0, 1])
    return f1, f2, f3, f4


def euler_n_poly() -> BivarPoly:
    f1, f2, f3, f4 = euler_n_factors()
    return f1 * f2 * f3 * f4


def euler_n(u):
    """N(u) as an exact value: an int when it is integral, else a Fraction."""
    v = euler_n_poly().evaluate(Fraction(u))
    return v.numerator if v.denominator == 1 else v


# ---------------------------------------------------------------------------
# General family points
# ---------------------------------------------------------------------------


def _mn(coeffs: dict) -> BivarPoly:
    return BivarPoly(MN, coeffs)


def general_n_poly() -> BivarPoly:
    return _mn({(4, 0): 1, (0, 4): 1})


def general_family_points() -> tuple[ParametricPoint, ParametricPoint]:
    """P1 = (-n^2, m^2 n) and the transferred point P2 on y^2 = x^3 - (m^4+n^4)x."""
    m = BivarPoly.var(MN, "m")
    n = BivarPoly.var(MN, "n")
    p1 = ParametricPoint(-(n**2), m**2 * n, BivarPoly.const(MN, 1))
    s = m**2 + m * n + n**2
    p2y = m * n * s * (2 * m**2 + 3 * m * n + 2 * n**2)
    p2 = ParametricPoint(s**2, p2y, m + n)
    return p1, p2


# ---------------------------------------------------------------------------
# Euler family points
# ---------------------------------------------------------------------------


def _euler_building_blocks():
    f1, f2, f3, f4 = euler_n_factors()
    g = univariate("u", [1, 3, -2, 0, 1, 0, 1])           # A(u,1)/u
    h = univariate("u", [1, 1, 4, -2, -2, -2, 1, 1])      # A(u,1)+B(u,1)
    w14 = univariate(
        "u", [1, 1, 6, 5, 5, -21, -5, -2, 13, 15, -1, -7, 0, 1, 1]
    )
    t10 = univariate("u", [1, 0, 4, 0, 6, 0, 3, 0, -4, 0, 2])
    return f1, f2, f3, f4, g, h, w14, t10


def euler_associated_points() -> tuple[ParametricPoint, ParametricPoint]:
    """Q1, Q2 on the associated curve y^2 = x^3 + 4*N(u)*x."""
    f1, f2, f3, f4, g, h, w14, t10 = _euler_building_blocks()
    u = BivarPoly.var(U, "u")
    one = BivarPoly.const(U, 1)
    q1 = ParametricPoint(2 * h**2, 4 * h * w14, one)
    q2 = ParametricPoint(4 * u**2 * f2 * f3, 4 * u * f2 * f3 * t10, one)
    return q1, q2


def transfer_parametric(q: ParametricPoint, n_expr: BivarPoly) -> ParametricPoint:
    """Symbolic version of the dual-isogeny transfer from y^2 = x^3 + 4Nx.

    (X, Y) -> (Y^2/(4X^2), Y(X^2 - 4N)/(8X^2)) as in
    ``curves.transfer_from_associated``; in weighted coordinates this is
    (X, Y, Z) -> (Y^2, X*Y*(X^2 - 4N*Z^4), 2*X*Z).
    """
    X, Y, Z = q.x, q.y, q.z
    return ParametricPoint(Y**2, X * Y * (X**2 - 4 * n_expr * Z**4), 2 * X * Z)


def euler_family_points() -> tuple[ParametricPoint, ...]:
    """The four parametric points on y^2 = x^3 - N(u)x.

    The first two come from quartic-space solutions on the curve itself;
    the last two are the symbolic transfers of Q2 and Q1.
    """
    f1, f2, f3, f4, g, h, w14, t10 = _euler_building_blocks()
    u = BivarPoly.var(U, "u")
    one = BivarPoly.const(U, 1)
    y1fac = univariate("u", [-5, 0, 4, 0, 1, 0, 1])
    p1 = ParametricPoint(f2 * f4, u**2 * y1fac * f2 * f4, one)
    b1 = univariate("u", [1, 0, 1, 0, -2, -3, 1])         # B(u,1)
    p2 = ParametricPoint(-(u**2) * g**2, u * g * b1**2, one)
    q1, q2 = euler_associated_points()
    n = euler_n_poly()
    p3 = transfer_parametric(q2, n)
    p4 = transfer_parametric(q1, n)
    return p1, p2, p3, p4


def printed_transfer_x() -> tuple[tuple[BivarPoly, BivarPoly], ...]:
    """The closed-form x-coordinates t10^2/(2u)^2 and w14^2/h^2 of the two
    transferred points, each as a pair (x, z) standing for x/z^2."""
    f1, f2, f3, f4, g, h, w14, t10 = _euler_building_blocks()
    u = BivarPoly.var(U, "u")
    return (t10**2, 2 * u), (w14**2, h)


def same_x(pt: ParametricPoint, x: BivarPoly, z: BivarPoly) -> bool:
    """True iff pt has the x-coordinate x/z^2, as a polynomial identity."""
    return pt.x * z**2 == x * pt.z**2


# ---------------------------------------------------------------------------
# Verification and specialization
# ---------------------------------------------------------------------------


def verify_parametric_point(pt: ParametricPoint, n_expr: BivarPoly) -> bool:
    """True iff y^2 = x^3 - N*x*z^4 holds as a polynomial identity."""
    return pt.y**2 == pt.x**3 - n_expr * pt.x * pt.z**4


def verify_on_associated(pt: ParametricPoint, n_expr: BivarPoly) -> bool:
    """True iff y^2 = x^3 + 4*N*x*z^4 holds as a polynomial identity."""
    return pt.y**2 == pt.x**3 + 4 * n_expr * pt.x * pt.z**4


def _specialize(pt: ParametricPoint, curve: Curve, values, where: str, z_scale=1):
    """The point (x/z^2, y/z^3) at the given values, with z divided by z_scale."""
    z = pt.z.evaluate(*values) / z_scale
    if z == 0:
        raise DegenerateSpecializationError(f"denominator vanishes at {where}")
    return curve.point(pt.x.evaluate(*values) / z**2, pt.y.evaluate(*values) / z**3)


def specialize_general(pt: ParametricPoint, m, n) -> Point:
    """Substitute (m, n); returns an exact point on y^2 = x^3 - (m^4+n^4)x."""
    m, n = Fraction(m), Fraction(n)
    if m.denominator != 1 or n.denominator != 1:
        raise DegenerateSpecializationError("general family expects integers")
    N = int(m) ** 4 + int(n) ** 4
    if N <= 0:
        raise DegenerateSpecializationError("N = m^4 + n^4 must be positive")
    return _specialize(pt, Curve(0, -N), (m, n), f"(m, n) = ({m}, {n})")


def euler_degenerate(u) -> str | None:
    """Reason the value u is a degenerate Euler parameter, or None."""
    u = Fraction(u)
    if u in (0, 1, -1):
        return f"u = {u} is degenerate"
    a, b, c, d = (p.evaluate(u, 1) for p in euler_quadruple())
    if {abs(a), abs(b)} == {abs(c), abs(d)}:
        return f"the two representations coincide at u = {u}"
    if euler_n(u) <= 0:
        return f"N(u) <= 0 at u = {u}"
    return None


def euler_integral_model(u) -> tuple[Curve, int]:
    """Integer-coefficient curve for a rational u.

    N(u) has denominator q^28 for u = p/q in lowest terms; scaling
    (x, y) -> (q^14 x, q^21 y) clears it.  Returns the curve and q.
    """
    u = Fraction(u)
    reason = euler_degenerate(u)
    if reason is not None:
        raise DegenerateSpecializationError(reason)
    q = u.denominator
    b = euler_n(u) * q**28
    assert Fraction(b).denominator == 1
    return Curve(0, -int(b)), q


def specialize_euler(pt: ParametricPoint, u) -> Point:
    """Substitute u; for rational u the point lands on the integral model.

    The model scales (x, y) by (q^14, q^21), that is z by q^-7.
    """
    u = Fraction(u)
    curve, q = euler_integral_model(u)
    return _specialize(pt, curve, (u,), f"u = {u}", q**7)


# ---------------------------------------------------------------------------
# The symbolic identity suite
# ---------------------------------------------------------------------------


def identity_suite(mutate: bool = False) -> list[tuple[str, bool]]:
    """Run every symbolic identity; returns (name, passed) pairs.

    With mutate=True one coefficient of A is perturbed, which must break
    the quadruple balance (negative-control hook for the CLI).
    """
    a, b, c, d = euler_quadruple()
    if mutate:
        a = a + BivarPoly(UW, {(7, 0): 1})
    results = []
    results.append(("euler-quadruple-balance", a**4 + b**4 == c**4 + d**4))
    results.append(
        (
            "euler-quadruple-homogeneous-deg7",
            all(p.is_homogeneous(7) for p in (a, b, c, d)),
        )
    )
    a1, b1, c1, d1 = (p.substitute_last(1) for p in (a, b, c, d))
    n = euler_n_poly()
    results.append(("euler-n-equals-a4-plus-b4", n == a1**4 + b1**4))
    results.append(("euler-n-equals-c4-plus-d4", n == c1**4 + d1**4))

    m = BivarPoly.var(MN, "m")
    nn = BivarPoly.var(MN, "n")
    gn = general_n_poly()
    results.append(
        ("general-space-d-minus1", -(nn**4) + gn == (m**2) ** 2)
    )
    results.append(
        (
            "general-space-d2-associated",
            2 * (m + nn) ** 4 + 2 * gn
            == (2 * (m**2 + nn**2 + m * nn)) ** 2,
        )
    )
    p1g, p2g = general_family_points()
    results.append(("general-p1-on-curve", verify_parametric_point(p1g, gn)))
    results.append(("general-p2-on-curve", verify_parametric_point(p2g, gn)))

    p1, p2, p3, p4 = euler_family_points()
    results.append(("euler-p1-on-curve", verify_parametric_point(p1, n)))
    results.append(("euler-p2-on-curve", verify_parametric_point(p2, n)))
    results.append(("euler-p3-on-curve", verify_parametric_point(p3, n)))
    results.append(("euler-p4-on-curve", verify_parametric_point(p4, n)))
    q1, q2 = euler_associated_points()
    results.append(("euler-q1-on-associated", verify_on_associated(q1, n)))
    results.append(("euler-q2-on-associated", verify_on_associated(q2, n)))
    x3, x4 = printed_transfer_x()
    results.append(("transfer-q2-gives-x3", same_x(p3, *x3)))
    results.append(("transfer-q1-gives-x4", same_x(p4, *x4)))

    # quartic-space left sides on the Euler curve and its associate are
    # exact squares of integer polynomials (the H of each solution)
    f1, f2, f3, f4, g, h, w14, t10 = _euler_building_blocks()
    u = BivarPoly.var(U, "u")
    y1fac = univariate("u", [-5, 0, 4, 0, 1, 0, 1])
    results.append(
        ("euler-space-d-f2f4", f2 * f4 - f1 * f3 == (u**2 * y1fac) ** 2)
    )
    results.append(("euler-space-d-minus1", n - (u * g) ** 4 == b1**4))
    results.append(
        ("euler-space-d2-associated", 2 * h**4 + 2 * n == (2 * w14) ** 2)
    )
    results.append(
        (
            "euler-space-d4f2f3-associated",
            4 * f2 * f3 * u**4 + f1 * f4 == t10**2,
        )
    )
    return results
