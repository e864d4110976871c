"""Parametric families of curves and points built from fourth-power sums.

Every polynomial here is a binary form: in (m, n) for the general family
and in (u, w) for Euler's, whose parameter is the ratio u/w.

* general: y^2 = x^3 - (m^4 + n^4)x with two parametric points coming from
  quartic-space solutions at d = -1 (on the curve) and d = 2 (on the
  associated curve, transferred back).

* euler: the degree-7 quadruple (A, B, C, D) with A^4 + B^4 = C^4 + D^4
  identically; the common value N = f1*f2*f3*f4 is a form of degree 28
  with even factors of degrees 4, 8, 8, 8, and the curve y^2 = x^3 - N*x
  carries four parametric points.  P2 and P4 are the general family's P1
  and P2 at (m, n) = (B, A).

A point is kept in weighted coordinates: three forms (x, y, z) standing
for (x/z^2, y/z^3), with deg x - 2 deg z = 14 and deg y - 3 deg z = 21 on
the Euler curve.  Every identity is then an exact equality of
polynomials: on the curve y^2 = x^3 + b*x*z^4 with b = -N, or b = 4N on
the associated curve, and two x-coordinates agree iff x*z'^2 = x'*z^2.

Specialization evaluates the forms at integers in one pass per
parameter: it decides degeneracy, evaluates N's factors (f1..f4, or
m^4 + n^4), builds the curve from their product, evaluates each point's
forms onto it, and returns the curve, the points and the factors.  At
u = p/q in lowest terms that is the point (p, q): N(p, q) = q^28 N(u) is
the integral model, and the points land on it with no rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import ArithDomainError
from .curves import Curve, Point
from .poly import BinaryForm, PolyUsageError

UW = ("u", "w")
MN = ("m", "n")
U, W = BinaryForm.var(UW, "u"), BinaryForm.var(UW, "w")
M, N = BinaryForm.var(MN, "m"), BinaryForm.var(MN, "n")  # N: the variable n


class DegenerateSpecializationError(ArithDomainError):
    """Parameter values where a denominator vanishes, a point is 2-torsion,
    or the two fourth-power representations collapse into one."""


@dataclass(frozen=True)
class ParametricPoint:
    """The point (x/z^2, y/z^3); z is a nonzero polynomial."""

    x: BinaryForm
    y: BinaryForm
    z: BinaryForm

    def __post_init__(self):
        if self.z.is_zero:
            raise PolyUsageError("zero z polynomial")


# ---------------------------------------------------------------------------
# Euler's quadruple and the factored N(u, w)
# ---------------------------------------------------------------------------


# Euler's quadruple: four forms of degree 7 with A^4 + B^4 = C^4 + D^4
A = BinaryForm(UW, [0, 1, 3, -2, 0, 1, 0, 1])
B = BinaryForm(UW, [1, 0, 1, 0, -2, -3, 1, 0])
C = BinaryForm(UW, [0, 1, -3, -2, 0, 1, 0, 1])
D = BinaryForm(UW, [1, 0, 1, 0, -2, 3, 1, 0])
# the even factors of N = A^4 + B^4, of degrees 4, 8, 8, 8
F1 = BinaryForm(UW, [1, 0, 6, 0, 1])
F2 = BinaryForm(UW, [1, 0, 0, 0, -1, 0, 0, 0, 1])
F3 = BinaryForm(UW, [1, 0, -4, 0, 8, 0, -4, 0, 1])
F4 = BinaryForm(UW, [1, 0, 2, 0, 11, 0, 2, 0, 1])
# the forms of degrees 10 and 6 in the points Q2 and P1
T10 = BinaryForm(UW, [1, 0, 4, 0, 6, 0, 3, 0, -4, 0, 2])
Y1FAC = BinaryForm(UW, [-5, 0, 4, 0, 1, 0, 1])


def euler_quadruple() -> tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]:
    """The four forms of degree 7 with A^4 + B^4 = C^4 + D^4."""
    return A, B, C, D


def euler_n_factors() -> tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]:
    """The four even factors f1..f4 of N = A^4 + B^4."""
    return F1, F2, F3, F4


@cache
def euler_n_poly() -> BinaryForm:
    return F1 * F2 * F3 * F4


def euler_n(u) -> Fraction:
    """N(u) = N(p, q)/q^28 for u = p/q, as an exact value."""
    u = Fraction(u)
    p, q = u.numerator, u.denominator
    return Fraction(euler_n_poly().evaluate(p, q), q**28)


# ---------------------------------------------------------------------------
# General family points
# ---------------------------------------------------------------------------


def general_n_poly() -> BinaryForm:
    return BinaryForm(MN, [1, 0, 0, 0, 1])


@cache
def general_family_points() -> tuple[ParametricPoint, ParametricPoint]:
    """P1 = (-n^2, m^2 n) and the transferred point P2 on y^2 = x^3 - (m^4+n^4)x."""
    p1 = ParametricPoint(-(N**2), M**2 * N, BinaryForm.const(MN, 1))
    s = M**2 + M * N + N**2
    p2y = M * N * s * (2 * M**2 + 3 * M * N + 2 * N**2)
    p2 = ParametricPoint(s**2, p2y, M + N)
    return p1, p2


# ---------------------------------------------------------------------------
# Euler family points
# ---------------------------------------------------------------------------


def euler_associated_points() -> tuple[ParametricPoint, ParametricPoint]:
    """Q1, Q2 on the associated curve y^2 = x^3 + 4*N*x."""
    h = A + B
    one = BinaryForm.const(UW, 1)
    q1 = ParametricPoint(2 * h**2, 4 * h * (A**2 + A * B + B**2), one)
    q2 = ParametricPoint(4 * U**2 * F2 * F3, 4 * U * F2 * F3 * T10, W**2)
    return q1, q2


def transfer_parametric(q: ParametricPoint, n_expr: BinaryForm) -> ParametricPoint:
    """Symbolic version of the dual-isogeny transfer from y^2 = x^3 + 4Nx.

    (X, Y) -> (Y^2/(4X^2), Y(X^2 - 4N)/(8X^2)) as in
    ``curves.transfer_from_associated``; in weighted coordinates this is
    (X, Y, Z) -> (Y^2, X*Y*(X^2 - 4N*Z^4), 2*X*Z).
    """
    X, Y, Z = q.x, q.y, q.z
    return ParametricPoint(Y**2, X * Y * (X**2 - 4 * n_expr * Z**4), 2 * X * Z)


@cache
def euler_family_points() -> tuple[ParametricPoint, ...]:
    """The four parametric points on y^2 = x^3 - N*x.

    The first two come from quartic-space solutions on the curve itself;
    the last two are the symbolic transfers of Q2 and Q1.
    """
    p1 = ParametricPoint(F2 * F4, U**2 * Y1FAC * F2 * F4, W)
    p2 = ParametricPoint(-(A**2), A * B**2, BinaryForm.const(UW, 1))
    q1, q2 = euler_associated_points()
    en = euler_n_poly()
    return p1, p2, transfer_parametric(q2, en), transfer_parametric(q1, en)


def printed_transfer_x() -> tuple[tuple[BinaryForm, BinaryForm], ...]:
    """The closed-form x-coordinates t10^2/(2u*w^2)^2 and
    (A^2 + AB + B^2)^2/(A + B)^2 of the two transferred points, each as a
    pair (x, z) standing for x/z^2."""
    return (T10**2, 2 * U * W**2), ((A**2 + A * B + B**2) ** 2, A + B)


def same_x(pt: ParametricPoint, x: BinaryForm, z: BinaryForm) -> bool:
    """True iff pt has the x-coordinate x/z^2, as a polynomial identity."""
    return pt.x * z**2 == x * pt.z**2


# ---------------------------------------------------------------------------
# Verification and specialization
# ---------------------------------------------------------------------------


def verify_parametric_point(pt: ParametricPoint, b: BinaryForm) -> bool:
    """True iff y^2 = x^3 + b*x*z^4 holds as a polynomial identity.

    b = -N for the curve itself and b = 4N for its associated curve.
    """
    return pt.y**2 == pt.x**3 + b * pt.x * pt.z**4


def _specialize(
    points, parts: list[int], s: int, t: int, where: str
) -> tuple[Curve, list[Point], list[int]]:
    """The curve y^2 = x^3 - N*x with N = prod(parts), and each point's
    forms at (s, t) on it as (X/Z^2, Y/Z^3)."""
    curve = Curve(-math.prod(parts))
    specialized = []
    for pt in points:
        Z = pt.z.evaluate(s, t)
        if Z == 0:
            raise DegenerateSpecializationError(f"denominator vanishes at {where}")
        X, Y = pt.x.evaluate(s, t), pt.y.evaluate(s, t)
        specialized.append(curve.point(Fraction(X, Z * Z), Fraction(Y, Z**3)))
    return curve, specialized, parts


def specialize_general(points, m: int, n: int) -> tuple[Curve, list[Point], list[int]]:
    """Substitute integers (m, n) into the points in one pass.

    Returns the curve y^2 = x^3 - (m^4+n^4)x, the exact points on it, and
    [m^4 + n^4] as N's parts.  At m*n = 0 both family points are
    2-torsion, so that is degenerate.
    """
    if m * n == 0:
        raise DegenerateSpecializationError(
            f"(m, n) = ({m}, {n}) is degenerate: m*n = 0"
        )
    parts = [general_n_poly().evaluate(m, n)]
    return _specialize(points, parts, m, n, f"(m, n) = ({m}, {n})")


def euler_degenerate(u) -> str | None:
    """Reason the value u is a degenerate Euler parameter, or None.

    N(p, q) > 0 needs no check: each factor is positive at every real
    (u, w) != (0, 0), and q >= 1.  f1 and f4 are sums of positive
    multiples of u^(2i)*w^(2j), u^deg and w^deg among them.
    f2 = (u^4 - w^4)^2 + u^4*w^4 vanishes only where u*w = 0 and
    u^4 = w^4, that is at (0, 0).
    f3 = (u^4 - 2u^2w^2)^2 + (2u^2w^2 - w^4)^2: the first square vanishes
    only at u = 0 or u^2 = 2w^2, the second only at w = 0 or w^2 = 2u^2,
    and one condition from each forces (u, w) = (0, 0).
    """
    u = Fraction(u)
    if u in (0, 1, -1):
        return f"u = {u} is degenerate"
    a, b, c, d = (f.evaluate(u.numerator, u.denominator) for f in (A, B, C, D))
    if {abs(a), abs(b)} == {abs(c), abs(d)}:
        return f"the two representations coincide at u = {u}"
    return None


def specialize_euler(points, u) -> tuple[Curve, list[Point], list[int]]:
    """Substitute u = p/q, in lowest terms, into the points in one pass.

    Returns the integral model y^2 = x^3 - N(p, q)*x, the points on it
    (the forms at (p, q), with no rescaling), and f1..f4 at (p, q):
    positive integers with product N(p, q).
    """
    u = Fraction(u)
    reason = euler_degenerate(u)
    if reason is not None:
        raise DegenerateSpecializationError(reason)
    p, q = u.numerator, u.denominator
    parts = [f.evaluate(p, q) for f in euler_n_factors()]
    return _specialize(points, parts, p, q, f"u = {u}")


# ---------------------------------------------------------------------------
# The symbolic identity suite
# ---------------------------------------------------------------------------


def identity_suite(mutate: bool = False) -> list[tuple[str, bool]]:
    """Run every symbolic identity; returns (name, passed) pairs.

    With mutate=True one coefficient of the suite's own A is perturbed,
    which must break the quadruple balance (negative-control hook for the
    CLI); the points and the quartic spaces keep the true quadruple.
    """
    a = A + BinaryForm(UW, [0] * 7 + [1]) if mutate else A
    results = []
    results.append(("euler-quadruple-balance", a**4 + B**4 == C**4 + D**4))
    results.append(
        ("euler-quadruple-homogeneous-deg7", all(p.degree == 7 for p in (a, B, C, D)))
    )
    en = euler_n_poly()
    results.append(("euler-n-equals-a4-plus-b4", en == a**4 + B**4))
    results.append(("euler-n-equals-c4-plus-d4", en == C**4 + D**4))

    gn = general_n_poly()
    results.append(
        ("general-space-d-minus1", -(N**4) + gn == (M**2) ** 2)
    )
    results.append(
        (
            "general-space-d2-associated",
            2 * (M + N) ** 4 + 2 * gn
            == (2 * (M**2 + N**2 + M * N)) ** 2,
        )
    )
    p1g, p2g = general_family_points()
    results.append(("general-p1-on-curve", verify_parametric_point(p1g, -gn)))
    results.append(("general-p2-on-curve", verify_parametric_point(p2g, -gn)))

    p1, p2, p3, p4 = euler_family_points()
    results.append(("euler-p1-on-curve", verify_parametric_point(p1, -en)))
    results.append(("euler-p2-on-curve", verify_parametric_point(p2, -en)))
    results.append(("euler-p3-on-curve", verify_parametric_point(p3, -en)))
    results.append(("euler-p4-on-curve", verify_parametric_point(p4, -en)))
    q1, q2 = euler_associated_points()
    results.append(("euler-q1-on-associated", verify_parametric_point(q1, 4 * en)))
    results.append(("euler-q2-on-associated", verify_parametric_point(q2, 4 * en)))
    x3, x4 = printed_transfer_x()
    results.append(("transfer-q2-gives-x3", same_x(p3, *x3)))
    results.append(("transfer-q1-gives-x4", same_x(p4, *x4)))

    # quartic-space left sides on the Euler curve and its associate are
    # exact squares of integer forms (the H of each solution); the gaps in
    # degree are padded with powers of w
    results.append(
        ("euler-space-d-f2f4", F2 * F4 - W**4 * F1 * F3 == (U**2 * Y1FAC) ** 2)
    )
    results.append(("euler-space-d-minus1", -(A**4) + en == (B**2) ** 2))
    results.append(
        (
            "euler-space-d2-associated",
            2 * (A + B) ** 4 + 2 * en == (2 * (A**2 + A * B + B**2)) ** 2,
        )
    )
    results.append(
        (
            "euler-space-d4f2f3-associated",
            4 * U**4 * F2 * F3 + W**8 * F1 * F4 == T10**2,
        )
    )
    return results
