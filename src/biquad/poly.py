"""Exact polynomials in two variables with integer coefficients.

Every polynomial of the paper is a binary form, in (m, n) or (u, w), so
its value at integers is an integer; at a rational u = p/q a form is
evaluated at (p, q).  This is deliberately minimal: ring operations,
equality, exact evaluation and homogeneity checks.  No division, no
polynomial GCD, no factorization: a rational point of a family is kept as
three forms in weighted coordinates (see ``families``), so every identity
about it is an equality of polynomials.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Sequence


class PolyUsageError(ValueError):
    """Mixed variable contexts, a negative power, or a point with z = 0."""


class BivarPoly:
    """Polynomial with integer coefficients in the variables ``vars``.

    Stored as a map from exponent tuples to nonzero coefficients; the zero
    polynomial is the empty map.  Instances are treated as immutable.
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: Sequence[str], coeffs: Mapping[tuple, int]):
        self.vars = tuple(vars)
        self.coeffs = {tuple(e): int(c) for e, c in coeffs.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, vars, c: int) -> "BivarPoly":
        z = (0,) * len(vars)
        return cls(vars, {z: c})

    @classmethod
    def var(cls, vars, name: str) -> "BivarPoly":
        e = [0] * len(vars)
        e[list(vars).index(name)] = 1
        return cls(vars, {tuple(e): 1})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "BivarPoly"):
        if self.vars != other.vars:
            raise PolyUsageError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _coerce(self, other):
        if isinstance(other, BivarPoly):
            self._check(other)
            return other
        if isinstance(other, int):
            return BivarPoly.const(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
        return BivarPoly(self.vars, d)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return BivarPoly(self.vars, d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyUsageError("negative polynomial power")
        result = BivarPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivarPoly.const(self.vars, other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self, d: int | None = None) -> bool:
        if self.is_zero:
            return True
        degs = {sum(e) for e in self.coeffs}
        if d is None:
            return len(degs) == 1
        return degs == {d}

    def evaluate(self, *values):
        """The exact value: an int at ints, a Fraction at Fractions."""
        if len(values) != len(self.vars):
            raise PolyUsageError(f"expected {len(self.vars)} values")
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for v, k in zip(values, e):
                term *= v**k
            total += term
        return total

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def binary_form(vars: Sequence[str], coeffs: Sequence[int]) -> BivarPoly:
    """The form sum c_i * x^i * y^(d-i) in vars = (x, y), with d = len(coeffs) - 1.

    The coefficients are listed by the power of x, low degree first.
    """
    d = len(coeffs) - 1
    return BivarPoly(vars, {(i, d - i): c for i, c in enumerate(coeffs)})
