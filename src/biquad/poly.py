"""Exact multivariate polynomials (<= 2 variables) and rational functions.

Coefficients are Python ints.  This is deliberately minimal: ring
operations, evaluation, homogeneity checks, and equality of rational
functions by cross-multiplication.  No polynomial GCD, no factorization.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence


class PolyUsageError(ValueError):
    """Mixed variable contexts or division by the zero polynomial."""


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
    def zero(cls, vars) -> "BivarPoly":
        return cls(vars, {})

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
                e = tuple(a + b for a, b in zip(e1, e2))
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

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self, d: int | None = None) -> bool:
        if self.is_zero:
            return True
        degs = {sum(e) for e in self.coeffs}
        if d is None:
            return len(degs) == 1
        return degs == {d}

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs.values():
            g = math.gcd(g, abs(c))
        return g

    def leading_coeff(self) -> int:
        """Coefficient of the largest exponent tuple in lex order."""
        if self.is_zero:
            return 0
        return self.coeffs[max(self.coeffs)]

    def evaluate(self, *values) -> Fraction:
        if len(values) != len(self.vars):
            raise PolyUsageError(f"expected {len(self.vars)} values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = Fraction(c)
            for v, k in zip(vals, e):
                term *= v**k
            total += term
        return total

    def substitute_last(self, value: int) -> "BivarPoly":
        """Fix the last variable to an integer, dropping it from the context."""
        if len(self.vars) < 2:
            raise PolyUsageError("need at least two variables")
        d: dict = {}
        for e, c in self.coeffs.items():
            head, last = e[:-1], e[-1]
            d[head] = d.get(head, 0) + c * value**last
        return BivarPoly(self.vars[:-1], d)

    # -- serialization / display ---------------------------------------

    def to_json(self) -> list:
        return [
            {"exp": list(e), "coef": str(c)}
            for e, c in sorted(self.coeffs.items())
        ]

    @classmethod
    def from_json(cls, vars, obj: list) -> "BivarPoly":
        return cls(vars, {tuple(t["exp"]): int(t["coef"]) for t in obj})

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


def univariate(name: str, coeffs: Sequence[int]) -> BivarPoly:
    """Build a one-variable polynomial from coefficients, low degree first."""
    return BivarPoly((name,), {(i,): c for i, c in enumerate(coeffs)})


class RatFunc:
    """Quotient of integer polynomials in canonical form.

    Canonical means: joint integer content 1 and positive leading
    coefficient (lex order) in the denominator.  Equality is decided by
    cross-multiplication, so a common polynomial factor is harmless.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly | None = None):
        if den is None:
            den = BivarPoly.const(num.vars, 1)
        if den.is_zero:
            raise PolyUsageError("zero denominator")
        if num.vars != den.vars:
            raise PolyUsageError("variable mismatch in rational function")
        g = math.gcd(num.content(), den.content())
        if g > 1:
            num = BivarPoly(num.vars, {e: c // g for e, c in num.coeffs.items()})
            den = BivarPoly(den.vars, {e: c // g for e, c in den.coeffs.items()})
        if den.leading_coeff() < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, BivarPoly):
            return RatFunc(other)
        if isinstance(other, int):
            return RatFunc(BivarPoly.const(self.num.vars, other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

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
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num**k, self.den**k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is extensional)")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def evaluate(self, *values) -> Fraction:
        d = self.den.evaluate(*values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the given values")
        return self.num.evaluate(*values) / d

    def __str__(self):
        if self.den == BivarPoly.const(self.den.vars, 1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
