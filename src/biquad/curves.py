"""Curves y^2 = x^3 + a2*x^2 + b*x over Q: group law, torsion, 2-isogeny.

Points are exact (``fractions.Fraction`` coordinates, always in lowest
terms) and immutable.  The 2-isogeny pair connects y^2 = x^3 + b*x with
its associated curve y^2 = x^3 - 4b*x; for b = -N this is x^3 + 4N*x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .arith import ArithDomainError, is_perfect_square


class CurveUsageError(ValueError):
    """Mixing points of different curves, or an op needing a2 = 0."""


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a2*x^2 + b*x with exact integer coefficients."""

    a2: int
    b: int

    def __post_init__(self):
        if self.b * self.b * (self.a2 * self.a2 - 4 * self.b) == 0:
            raise ArithDomainError(f"singular curve a2={self.a2}, b={self.b}")

    def identity(self) -> "Point":
        return Point(self, None, None)

    def point(self, x, y) -> "Point":
        p = Point(self, Fraction(x), Fraction(y))
        if not on_curve(self, p):
            raise ArithDomainError(f"({x}, {y}) is not on {self}")
        return p

    def __str__(self):
        mid = f"{self.a2:+d}*x^2 " if self.a2 else ""
        return f"y^2 = x^3 {mid}{self.b:+d}*x"


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

    def __add__(self, other: "Point") -> "Point":
        return add(self, other)

    def __sub__(self, other: "Point") -> "Point":
        return add(self, -other)

    def __rmul__(self, k: int) -> "Point":
        return scalar_mul(k, self)

    def to_json(self) -> dict:
        if self.is_identity:
            return {"identity": True}
        return {
            "curve": {"a2": str(self.curve.a2), "b": str(self.curve.b)},
            "x": {"num": str(self.x.numerator), "den": str(self.x.denominator)},
            "y": {"num": str(self.y.numerator), "den": str(self.y.denominator)},
        }

    @staticmethod
    def from_json(obj: dict, curve: Optional[Curve] = None) -> "Point":
        if obj.get("identity"):
            if curve is None:
                raise CurveUsageError("identity point needs an explicit curve")
            return curve.identity()
        if curve is None:
            curve = Curve(int(obj["curve"]["a2"]), int(obj["curve"]["b"]))
        x = Fraction(int(obj["x"]["num"]), int(obj["x"]["den"]))
        y = Fraction(int(obj["y"]["num"]), int(obj["y"]["den"]))
        return Point(curve, x, y)


def on_curve(c: Curve, p: Point) -> bool:
    """Exact membership test; the identity is always on the curve."""
    if p.is_identity:
        return True
    x, y = p.x, p.y
    return y * y == x * x * x + c.a2 * x * x + c.b * x


def add(p: Point, q: Point) -> Point:
    """Chord-tangent group law."""
    if p.curve != q.curve:
        raise CurveUsageError("points lie on different curves")
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    a2, b = p.curve.a2, p.curve.b
    if p.x == q.x:
        if p.y == -q.y:
            # vertical line; covers 2-torsion doubled (y = 0)
            return p.curve.identity()
        lam = (3 * p.x * p.x + 2 * a2 * p.x + b) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - a2 - p.x - q.x
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
    """Torsion group of y^2 = x^3 + b*x (a2 = 0).

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


def associated_curve(c: Curve) -> Curve:
    """The 2-isogenous curve y^2 = x^3 - 4b*x."""
    if c.a2 != 0:
        raise CurveUsageError("associated curve defined for a2 = 0 only")
    return Curve(0, -4 * c.b)


def transfer_from_associated(q: Point) -> Point:
    """Map a point on y^2 = x^3 + 4N*x back to y^2 = x^3 - N*x.

    Composition of the dual 2-isogeny (X, Y) -> (Y^2/X^2, Y(X^2-4N)/X^2)
    with the scaling (x, y) -> (x/4, y/8).  (0, 0) and the identity map
    to the identity.
    """
    c = q.curve
    if c.a2 != 0 or c.b % 4 != 0:
        raise CurveUsageError("source curve must be y^2 = x^3 + 4N*x")
    target = Curve(0, -c.b // 4)
    if q.is_identity or q.x == 0:
        return target.identity()
    X, Y = q.x, q.y
    x = Y * Y / (4 * X * X)
    y = Y * (X * X - c.b) / (8 * X * X)
    return Point(target, x, y)
