"""Curves y^2 = x^3 + b*x over Q: group law, torsion, lifts, 2-isogeny.

Every curve of the paper has this form, with b = -N or its associated
b = 4N, so it is the only model here.  Points are exact
(``fractions.Fraction`` coordinates, always in lowest terms) and
immutable.  The 2-isogeny pair connects y^2 = x^3 + b*x with its
associated curve y^2 = x^3 - 4b*x; for b = -N this is x^3 + 4N*x.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .arith import ArithDomainError, is_perfect_square


class CurveUsageError(ValueError):
    """Mixing points of different curves, or a point on the wrong curve."""


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + b*x with an exact integer coefficient b != 0."""

    b: int

    def __post_init__(self):
        if self.b == 0:
            raise ArithDomainError(f"singular curve b={self.b}")

    def identity(self) -> "Point":
        return Point(self, None, None)

    def point(self, x, y) -> "Point":
        p = Point(self, Fraction(x), Fraction(y))
        if not on_curve(self, p):
            raise ArithDomainError(f"({x}, {y}) is not on {self}")
        return p

    def __str__(self):
        return f"y^2 = x^3 {self.b:+d}*x"

    def to_json(self) -> dict:
        # the general model's x^2 coefficient, always 0 here, stays in the output
        return {"a2": "0", "b": str(self.b)}


@dataclass(frozen=True)
class Point:
    """Identity (x = y = None) or an affine point with exact coordinates."""

    curve: Curve
    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        if self.is_identity:
            return self
        return Point(self.curve, self.x, -self.y)

    def to_json(self) -> dict:
        if self.is_identity:
            return {"identity": True}
        return {
            "curve": self.curve.to_json(),
            "x": {"num": str(self.x.numerator), "den": str(self.x.denominator)},
            "y": {"num": str(self.y.numerator), "den": str(self.y.denominator)},
        }

    @staticmethod
    def from_json(obj: dict, curve: Curve) -> "Point":
        """The point of ``to_json`` on curve.

        A "curve" key must equal ``curve.to_json()``; a point that names
        another curve raises ValueError instead of being moved to this one.
        """
        if "curve" in obj and obj["curve"] != curve.to_json():
            raise ValueError(f"point is on curve {obj['curve']}, expected {curve.to_json()}")
        if obj.get("identity"):
            return curve.identity()
        x = Fraction(_json_int(obj["x"]["num"]), _json_int(obj["x"]["den"]))
        y = Fraction(_json_int(obj["y"]["num"]), _json_int(obj["y"]["den"]))
        return Point(curve, x, y)


def _json_int(v) -> int:
    """A JSON integer or a decimal-integer string; anything else (a float,
    a bool, "1.0", " 1") raises ValueError instead of being rounded."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return int(v)
    raise ValueError(f"not an integer: {v!r}")


def on_curve(c: Curve, p: Point) -> bool:
    """Exact membership test; the identity is always on the curve."""
    if p.is_identity:
        return True
    x, y = p.x, p.y
    return y * y == x * x * x + c.b * x


def add(p: Point, q: Point) -> Point:
    """Chord-tangent group law."""
    if p.curve != q.curve:
        raise CurveUsageError("points lie on different curves")
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            # vertical line; covers 2-torsion doubled (y = 0)
            return p.curve.identity()
        lam = (3 * p.x * p.x + p.curve.b) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(p.curve, x3, y3)


def scalar_mul(k: int, p: Point) -> Point:
    """k-fold sum by double-and-add; negative k negates."""
    if k < 0:
        return scalar_mul(-k, -p)
    acc = p.curve.identity()
    while k:
        if k & 1:
            acc = add(acc, p)
        k >>= 1
        if k:
            p = add(p, p)
    return acc


class TorsionKind(enum.Enum):
    Z4 = "Z/4Z"
    Z2XZ2 = "Z/2Z x Z/2Z"
    Z2 = "Z/2Z"


def torsion_kind(b: int) -> TorsionKind:
    """Torsion group of y^2 = x^3 + b*x.

    Z/4Z iff b = 4t^4 (order 4 needs x^2 = b and y^2 = 2x^3, so x = 2t^2);
    Z/2Z x Z/2Z iff -b is a square; else Z/2Z, as for every b = -(m^4 + n^4).
    """
    if b == 0:
        raise ArithDomainError("b = 0 gives a singular curve")
    if b % 4 == 0 and is_perfect_square(b // 4) and is_perfect_square(isqrt(b // 4)):
        return TorsionKind.Z4
    if b < 0 and is_perfect_square(-b):
        return TorsionKind.Z2XZ2
    return TorsionKind.Z2


def lift(d, U, V, H):
    """The solution (U, V, H) of d*U^4 + e*V^4 = H^2 as the point (d*U^2/V^2,
    d*U*H/V^3) of y^2 = x^3 + d*e*x (Silverman-Tate III.5), in weighted
    coordinates and by ring operations only, as in ``dual_isogeny``."""
    return d * U**2, d * U * H, V


def dual_isogeny(X, Y, Z, b4):
    """The map from y^2 = x^3 + b4*x to y^2 = x^3 - (b4/4)*x, in weighted
    coordinates (x/z^2, y/z^3): (X, Y, Z) -> (Y^2, X*Y*(X^2 - b4*Z^4), 2*X*Z).

    It is the 2-isogeny (x, y) -> (y^2/x^2, y(x^2 - b4)/x^2), onto
    y^2 = x^3 - 4*b4*x, followed by the scaling (x, y) -> (x/4, y/8).  Only
    ring operations are used, so X, Y, Z and b4 may be ints, Fractions or
    binary forms.  At X = 0, the kernel, z is 0: the caller handles it.
    """
    return Y**2, X * Y * (X**2 - b4 * Z**4), 2 * X * Z


def transfer_from_associated(q: Point) -> Point:
    """Map a point on y^2 = x^3 + 4N*x back to y^2 = x^3 - N*x by
    ``dual_isogeny``.  (0, 0) and the identity map to the identity."""
    c = q.curve
    if c.b % 4 != 0:
        raise CurveUsageError("source curve must be y^2 = x^3 + 4N*x")
    target = Curve(-c.b // 4)
    if q.is_identity or q.x == 0:
        return target.identity()
    x, y, z = dual_isogeny(q.x, q.y, 1, c.b)
    return Point(target, x / z**2, y / z**3)
