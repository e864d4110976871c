"""Parametric families of curves and points built from fourth-power sums.

Every polynomial here is a binary form: in (m, n) for the general family
and in (u, w) for Euler's, whose parameter is the ratio u/w.  A form is
its coefficient tuple, so (m, n) and (u, w) name the same two variables
by position: M and U are the first, N and W the second.

* general: y^2 = x^3 - (m^4 + n^4)x with two parametric points coming from
  quartic-space solutions at d = -1 (on the curve) and d = 2 (on the
  associated curve, transferred back).

* euler: the degree-7 quadruple (A, B, C, D) with A^4 + B^4 = C^4 + D^4
  identically; the common value N = f1*f2*f3*f4 is a form of degree 28
  with even factors of degrees 4, 8, 8, 8, and the curve y^2 = x^3 - N*x
  carries four parametric points.  P2 and P4 are the general family's P1
  and P2 at (m, n) = (B, A).

Every family point is the lift (``curves.lift``) of a row (d, e, U, V, H)
of ``SOLUTIONS``, a solution of d*U^4 + e*V^4 = H^2 with d*e = -N on the
curve or d*e = 4N on the associated curve, from which ``dual_isogeny``
brings it back.  The sign of H is the sign of y; the suite checks the rows.

A point is kept in weighted coordinates: three forms (x, y, z) standing
for (x/z^2, y/z^3), with deg x - 2 deg z = 14 and deg y - 3 deg z = 21 on
the Euler curve.  Every identity is then an exact equality of
polynomials: on the curve y^2 = x^3 + b*x*z^4 with b = -N, or b = 4N on
the associated curve, and two x-coordinates agree iff x*z'^2 = x'*z^2.

Each family's N is one tuple of factor forms: ``GENERAL_FACTORS`` =
(m^4 + n^4,) and ``EULER_FACTORS`` = (f1, f2, f3, f4).  Specialization
evaluates the forms at integers in one pass per parameter: it decides
degeneracy, evaluates the family's factor tuple, builds the curve from
the product, evaluates each point's forms onto it, and returns the
curve, the points and the factors' values.  At u = p/q in lowest terms
that is the point (p, q): N(p, q) = q^28 N(u) is the integral model,
and the points land on it with no rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import ArithDomainError
from .curves import Curve, Point, dual_isogeny, lift
from .poly import BinaryForm, PolyUsageError

U, W = M, N = BinaryForm([0, 1]), BinaryForm([1, 0])  # N: the variable n


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
A = BinaryForm([0, 1, 3, -2, 0, 1, 0, 1])
B = BinaryForm([1, 0, 1, 0, -2, -3, 1, 0])
C = BinaryForm([0, 1, -3, -2, 0, 1, 0, 1])
D = BinaryForm([1, 0, 1, 0, -2, 3, 1, 0])
# the even factors of N = A^4 + B^4, of degrees 4, 8, 8, 8
F1 = BinaryForm([1, 0, 6, 0, 1])
F2 = BinaryForm([1, 0, 0, 0, -1, 0, 0, 0, 1])
F3 = BinaryForm([1, 0, -4, 0, 8, 0, -4, 0, 1])
F4 = BinaryForm([1, 0, 2, 0, 11, 0, 2, 0, 1])
M4N4 = M**4 + N**4  # the general family's N
# each family's N as the tuple of its factor forms, and Euler's N itself
GENERAL_FACTORS = (M4N4,)
EULER_FACTORS = (F1, F2, F3, F4)
EULER_N = F1 * F2 * F3 * F4
# the forms of degrees 10 and 6 in the points Q2 and P1
T10 = BinaryForm([1, 0, 4, 0, 6, 0, 3, 0, -4, 0, 2])
Y1FAC = BinaryForm([-5, 0, 4, 0, 1, 0, 1])


def euler_quadruple() -> tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]:
    """The four forms of degree 7 with A^4 + B^4 = C^4 + D^4."""
    return A, B, C, D


def euler_n(u) -> Fraction:
    """N(u) = N(p, q)/q^28 for u = p/q, as an exact value."""
    u = Fraction(u)
    p, q = u.numerator, u.denominator
    return Fraction(EULER_N.evaluate(p, q), q**28)


# ---------------------------------------------------------------------------
# Quartic-space solutions and the points they lift to
# ---------------------------------------------------------------------------


_ONE = BinaryForm([1])

# name: (d, e, U, V, H), in the suite's order; the associated rows give
# general P2 and Euler's Q1, Q2, and powers of w pad to one degree
SOLUTIONS = {
    "general-space-d-minus1": (-1, M4N4, N, _ONE, -(M**2)),
    "general-space-d2-associated": (2, 2 * M4N4, M + N, _ONE, 2 * (M**2 + M * N + N**2)),
    "euler-space-d-f2f4": (F2 * F4, -(F1 * F3), _ONE, W, U**2 * Y1FAC),
    "euler-space-d-minus1": (-1, EULER_N, A, _ONE, -(B**2)),
    "euler-space-d2-associated": (2, 2 * EULER_N, A + B, _ONE, 2 * (A**2 + A * B + B**2)),
    "euler-space-d4f2f3-associated": (4 * F2 * F3, F1 * F4, U, W**2, T10),
}


def _lift(name: str) -> ParametricPoint:
    d, _, u, v, h = SOLUTIONS[name]
    return ParametricPoint(*lift(d, u, v, h))


def _transfer(q: ParametricPoint, n: BinaryForm) -> ParametricPoint:
    """The image on y^2 = x^3 - n*x of q on y^2 = x^3 + 4n*x."""
    return ParametricPoint(*dual_isogeny(q.x, q.y, q.z, 4 * n))


@cache
def general_family_points() -> tuple[ParametricPoint, ParametricPoint]:
    """P1 = (-n^2, m^2 n) and the transferred point P2 on y^2 = x^3 - (m^4+n^4)x."""
    q = _lift("general-space-d2-associated")
    return _lift("general-space-d-minus1"), _transfer(q, M4N4)


def euler_associated_points() -> tuple[ParametricPoint, ParametricPoint]:
    """Q1, Q2 on the associated curve y^2 = x^3 + 4*N*x."""
    return _lift("euler-space-d2-associated"), _lift("euler-space-d4f2f3-associated")


@cache
def euler_family_points() -> tuple[ParametricPoint, ...]:
    """The four parametric points on y^2 = x^3 - N*x.

    The first two are lifted on the curve itself; the last two are the
    images of Q2 and Q1 under the dual isogeny.
    """
    q1, q2 = euler_associated_points()
    p1, p2 = _lift("euler-space-d-f2f4"), _lift("euler-space-d-minus1")
    return p1, p2, _transfer(q2, EULER_N), _transfer(q1, EULER_N)


# the closed-form x-coordinates t10^2/(2u*w^2)^2 and
# (A^2 + AB + B^2)^2/(A + B)^2 of the two transferred points, each as a
# pair (x, z) standing for x/z^2
PRINTED_TRANSFER_X = (T10**2, 2 * U * W**2), ((A**2 + A * B + B**2) ** 2, A + B)


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
    points, factors: tuple[BinaryForm, ...], s: int, t: int, where: str
) -> tuple[Curve, list[Point], list[int]]:
    """The curve y^2 = x^3 - N*x with N the product of the factor forms
    at (s, t), each point's forms at (s, t) on it as (X/Z^2, Y/Z^3), and
    the factors' values."""
    parts = [f.evaluate(s, t) for f in factors]
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
    return _specialize(points, GENERAL_FACTORS, m, n, f"(m, n) = ({m}, {n})")


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

    The two representations never coincide at another u: that needs
    a = +-c or a = +-d at (p, q), and the only rational roots of A +- C,
    A +- D, B +- C and B +- D at w = 1 are -1, 0 and 1 (q >= 1 rules out
    w = 0).
    """
    u = Fraction(u)
    return f"u = {u} is degenerate" if u in (0, 1, -1) else None


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
    return _specialize(points, EULER_FACTORS, u.numerator, u.denominator, f"u = {u}")


# ---------------------------------------------------------------------------
# The symbolic identity suite
# ---------------------------------------------------------------------------


def identity_suite(mutate: bool = False) -> list[tuple[str, bool]]:
    """Run every symbolic identity; returns (name, passed) pairs.

    With mutate=True one coefficient of the suite's own A is perturbed,
    which must break the quadruple balance (negative-control hook for the
    CLI); the points and the quartic spaces keep the true quadruple.
    """
    a = A + BinaryForm([0] * 7 + [1]) if mutate else A
    results = []
    results.append(("euler-quadruple-balance", a**4 + B**4 == C**4 + D**4))
    results.append(
        ("euler-quadruple-homogeneous-deg7", all(p.degree == 7 for p in (a, B, C, D)))
    )
    results.append(("euler-n-equals-a4-plus-b4", EULER_N == a**4 + B**4))
    results.append(("euler-n-equals-c4-plus-d4", EULER_N == C**4 + D**4))

    spaces = [(name, d * u**4 + e * v**4 == h**2) for name, (d, e, u, v, h) in SOLUTIONS.items()]
    results += spaces[:2]  # the general rows
    p1g, p2g = general_family_points()
    results.append(("general-p1-on-curve", verify_parametric_point(p1g, -M4N4)))
    results.append(("general-p2-on-curve", verify_parametric_point(p2g, -M4N4)))

    p1, p2, p3, p4 = euler_family_points()
    results.append(("euler-p1-on-curve", verify_parametric_point(p1, -EULER_N)))
    results.append(("euler-p2-on-curve", verify_parametric_point(p2, -EULER_N)))
    results.append(("euler-p3-on-curve", verify_parametric_point(p3, -EULER_N)))
    results.append(("euler-p4-on-curve", verify_parametric_point(p4, -EULER_N)))
    q1, q2 = euler_associated_points()
    results.append(("euler-q1-on-associated", verify_parametric_point(q1, 4 * EULER_N)))
    results.append(("euler-q2-on-associated", verify_parametric_point(q2, 4 * EULER_N)))
    x3, x4 = PRINTED_TRANSFER_X
    results.append(("transfer-q2-gives-x3", same_x(p3, *x3)))
    results.append(("transfer-q1-gives-x4", same_x(p4, *x4)))

    results += spaces[2:]
    return results
