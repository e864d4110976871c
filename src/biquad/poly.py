"""Exact binary forms with integer coefficients.

Every polynomial of the paper is a binary form, in (m, n) or (u, w), so
its value at integers is an integer; at a rational u = p/q a form is
evaluated at (p, q).  This is deliberately minimal: ring operations,
equality and exact evaluation.  No division, no polynomial GCD, no
factorization: a rational point of a family is kept as three forms in
weighted coordinates (see ``families``), so every identity about it is an
equality of polynomials.
"""

from __future__ import annotations

from typing import Sequence


class PolyUsageError(ValueError):
    """Mixed variables or degrees, a negative power, or a point with z = 0."""


class BinaryForm:
    """The form sum c_i * x^i * y^(d-i) in vars = (x, y), with d = len(coeffs) - 1.

    The coefficients are listed by the power of x, low degree first, so a
    form is homogeneous by construction.  The zero form is stored as (0,)
    and adds to a form of any degree.  Instances are treated as immutable.
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: Sequence[str], coeffs: Sequence[int]):
        self.vars = tuple(vars)
        self.coeffs = tuple(coeffs)
        if not any(self.coeffs):
            self.coeffs = (0,)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, vars, c: int) -> BinaryForm:
        return cls(vars, (c,))

    @classmethod
    def var(cls, vars, name: str) -> BinaryForm:
        return cls(vars, (1, 0) if tuple(vars).index(name) else (0, 1))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BinaryForm):
            if self.vars != other.vars:
                raise PolyUsageError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return BinaryForm.const(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.degree != other.degree:
            raise PolyUsageError(f"degree mismatch: {self.degree} vs {other.degree}")
        return BinaryForm(self.vars, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm(self.vars, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    out[j] += a * b
        return BinaryForm(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyUsageError("negative polynomial power")
        result = BinaryForm.const(self.vars, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = BinaryForm.const(self.vars, other)
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    # -- queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def evaluate(self, s, t):
        """The exact value at (x, y) = (s, t): an int at ints, a Fraction at
        Fractions (a constant form gives its int coefficient).  One
        homogeneous Horner pass from the top power of x."""
        value, t_power = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            t_power *= t
            value = value * s + c * t_power
        return value

    def __repr__(self):
        return f"BinaryForm({self.vars!r}, {list(self.coeffs)!r})"
