"""Naive and canonical heights, height pairing, regulators.

Normalization: hhat(P) = lim 4^-n log max(|num x(2^n P)|, den x(2^n P)),
so hhat(2P) = 4 hhat(P) exactly and hhat is twice the classically
normalized Neron-Tate height.  Only curves y^2 = x^3 + b*x are supported
(every curve in this toolkit has a2 = 0).

Algorithm: split the doubling recursion on reduced fractions u/v into

  hhat(P) = G(u, v) - sum_j 4^-j log g_j

where G is the archimedean Green's function of the duplication forms
F = (u^2 - b v^2)^2, G = 4uv(u^2 + b v^2), evaluated by normalized
high-precision iteration, and g_j is the gcd cancelled at step j.  Each
g_j divides a fixed curve constant D, so the g_j are recovered exactly
from modular residues and both tails admit explicit geometric bounds.
The resulting error bound is far below the 10^-3 contract.

Curve constants in closed form: with f = (x^2 - b)^2, g = 4x(x^2 + b) and
the reversed forms f~ = (1 - b y^2)^2, g~ = 4y(1 + b y^2), the identities

  4(3x^2 + 4b) f - x(3x^2 - 5b) g = 16 b^3
  4(3b y^2 + 4) f~ - b y(3b y^2 - 5) g~ = 16

hold.  Their cofactors have contents gcd(b, 3) and gcd(b, 16); dividing
those out, homogenizing and using gcd(u, v) = 1 shows that every g_j
divides D = 256 |b|^3 / (gcd(b, 3) gcd(b, 16)).  On |x| <= 1 (resp.
|y| <= 1) the same identities bound max(|F|, |G|) below by the right side
over the cofactors' absolute coefficient sum (Silverman, Math. Comp. 55,
1990), so the normalized iteration factor is at least

  c_low = min(16|b|^3 / (21|b| + 15), 16 / (3b^2 + 17|b| + 16)).

Torsion in closed form: every torsion point has order dividing 4, and a
point P = (x, y) is torsion iff y = 0 or x^2 = b.  Indeed 2P = O iff
y = 0; x(2P) = (x^2 - b)^2 / (4y^2) vanishes iff x^2 = b; and
2P = (+-c, 0) with c^2 = -b would need x = +-c(1 +- sqrt 2), which is
irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .curves import Curve, CurveUsageError, Point, add

_DPS = 120
_TARGET = 1e-12  # absolute error the iteration count aims for


class HeightUsageError(CurveUsageError):
    pass


@dataclass(frozen=True)
class HeightValue:
    value: float
    abs_error: float


@dataclass(frozen=True)
class GramMatrix:
    points: tuple
    entries: tuple          # rows of floats
    entry_error: float      # uniform per-entry bound

    def determinant(self) -> float:
        return _det([list(r) for r in self.entries])

    def det_error_bound(self) -> float:
        n = len(self.entries)
        if n == 0:
            return 0.0
        a = max((abs(x) for row in self.entries for x in row), default=0.0)
        a += self.entry_error
        return n * math.factorial(n) * a ** (n - 1) * self.entry_error


def _det(m: list[list[float]]) -> float:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def log_big(n: int) -> float:
    """Natural log of a positive integer of any size."""
    if n <= 0:
        raise ValueError("log_big needs a positive integer")
    k = max(n.bit_length() - 53, 0)
    return math.log(n >> k) + k * math.log(2)


def naive_height(p: Point) -> float:
    """log max(|num|, den) of the x-coordinate; 0 for the identity."""
    if p.is_identity:
        return 0.0
    return log_big(max(abs(p.x.numerator), p.x.denominator))


# ---------------------------------------------------------------------------
# Per-curve constants from the duplication forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _curve_constants(b: int):
    """Constants for y^2 = x^3 + b*x, in closed form (see module docstring).

    Returns (D, log_D, log_bound) where every duplication gcd divides D
    and |log s| <= log_bound for the normalized Green iteration factor s.
    """
    ab = abs(b)
    d_const = 256 * ab**3 // (math.gcd(b, 3) * math.gcd(b, 16))
    c_up = max((1 + ab) ** 2, 4 * (1 + ab))
    c_low = min(
        Fraction(16 * ab**3, 21 * ab + 15), Fraction(16, 3 * ab**2 + 17 * ab + 16)
    )
    log_bound = max(
        log_big(c_up), abs(log_big(c_low.numerator) - log_big(c_low.denominator))
    )
    return d_const, log_big(d_const), log_bound


def _is_torsion(p: Point) -> bool:
    # 4P = O, in closed form (see module docstring)
    return p.y == 0 or p.x * p.x == p.curve.b


def canonical_height(p: Point) -> HeightValue:
    """Canonical height with a certified absolute error bound.

    Returns 0 exactly for the identity and for torsion points.  The
    reported abs_error is both geometric tail bounds plus 1e-20*max(1, |h|),
    a term below float64 rounding, so roundoff is not yet covered (ROADMAP item 3).
    """
    c = p.curve
    if c.a2 != 0:
        raise HeightUsageError("canonical height implemented for a2 = 0 curves")
    if p.is_identity or _is_torsion(p):
        return HeightValue(0.0, 0.0)
    b = c.b
    d_const, log_d, log_bound = _curve_constants(b)

    worst = max(log_d, log_bound)
    n_iter = max(8, math.ceil(math.log(worst / (3 * _TARGET)) / math.log(4)))
    n_iter = min(n_iter, 60)

    u0 = p.x.numerator
    v0 = p.x.denominator

    # exact gcd corrections via residues modulo a power of the curve constant
    mod = d_const ** (n_iter + 1)
    a_res, b_res = u0 % mod, v0 % mod
    gcd_sum = 0.0
    for j in range(1, n_iter + 1):
        fv = (a_res * a_res - b * b_res * b_res) ** 2 % mod
        gv = 4 * a_res * b_res * (a_res * a_res + b * b_res * b_res) % mod
        g = math.gcd(math.gcd(fv % d_const, gv % d_const), d_const)
        if g > 1:
            gcd_sum += log_big(g) / 4**j
        mod //= g
        a_res, b_res = (fv // g) % mod, (gv // g) % mod
    gcd_tail = log_d * 4.0**-n_iter / 3.0

    # archimedean Green's function by normalized iteration
    with mpmath.workdps(_DPS):
        au = mpmath.mpf(u0)
        av = mpmath.mpf(v0)
        s = max(abs(au), av)
        green = mpmath.log(s)
        au, av = au / s, av / s
        bb = mpmath.mpf(b)
        for n in range(1, n_iter + 1):
            fu = (au * au - bb * av * av) ** 2
            gv2 = 4 * au * av * (au * au + bb * av * av)
            s = max(abs(fu), abs(gv2))
            green += mpmath.log(s) / mpmath.mpf(4) ** n
            au, av = fu / s, gv2 / s
        green_f = float(green)
    green_tail = log_bound * 4.0**-n_iter / 3.0

    value = green_f - gcd_sum
    err = gcd_tail + green_tail + 1e-20 * max(1.0, abs(value))
    return HeightValue(value, err)


def gram_matrix(points) -> GramMatrix:
    """Pairings (hhat(p+q) - hhat(p) - hhat(q)) / 2, from n + n(n+1)/2 heights."""
    points = tuple(points)
    if not points:
        raise HeightUsageError("empty point list")
    if any(p.curve != points[0].curve for p in points):
        raise HeightUsageError("height pairing needs points on one curve")
    h = [canonical_height(p) for p in points]
    n = len(points)
    entries = [[0.0] * n for _ in range(n)]
    worst = 0.0
    # the diagonal too goes through hhat(2P): hhat(P) alone would change the
    # printed determinants in the last digits
    for i in range(n):
        for j in range(i, n):
            hs = canonical_height(add(points[i], points[j]))
            entries[i][j] = entries[j][i] = (hs.value - h[i].value - h[j].value) / 2
            worst = max(worst, (hs.abs_error + h[i].abs_error + h[j].abs_error) / 2)
    return GramMatrix(points, tuple(tuple(r) for r in entries), worst)


# a Gram determinant above this (and above its own error bound) certifies
# linear independence
INDEPENDENCE_TOLERANCE = 0.01


def regulator_report(points) -> dict:
    """Determinant, entries, error bound and independence verdict."""
    gm = gram_matrix(points)
    det = gm.determinant()
    err = gm.det_error_bound()
    threshold = max(INDEPENDENCE_TOLERANCE, err)
    return {
        "points": [p.to_json() for p in gm.points],
        "gram": [[f"{x:.12f}" for x in row] for row in gm.entries],
        "determinant": f"{det:.12f}",
        "error_bound": f"{max(err, gm.entry_error):.3e}",
        "threshold": f"{threshold:.3e}",
        "independent": bool(det > threshold),
        "rank_lower_bound": len(gm.points) if det > threshold else 0,
    }
