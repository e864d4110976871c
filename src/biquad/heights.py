"""Naive and canonical heights, height pairing, regulators.

Normalization: hhat(P) = lim 4^-n log max(|num x(2^n P)|, den x(2^n P)),
so hhat(2P) = 4 hhat(P) exactly and hhat is twice the classically
normalized Neron-Tate height, on the curves y^2 = x^3 + b*x of
``biquad.curves``.

Algorithm: split the doubling recursion on reduced fractions u/v into

  hhat(P) = G(u, v) - sum_j 4^-j log g_j

where G is the archimedean Green's function of the duplication forms
F = (u^2 - b v^2)^2, G = 4uv(u^2 + b v^2), evaluated in fixed point
(below), and g_j is the gcd cancelled at step j.  Each g_j divides a
fixed curve constant D (below), so both tails admit explicit geometric
bounds.  The resulting error bound is far below the 10^-3 contract.

Green's function: the loop keeps (u, v) as Python integers (U, V) with
(u, v) = 2^E (U, V) / 2^prec and max(|U|, |V|) in [2^prec, 2^(prec+1)).
After each step it renormalizes by a right shift of
bit_length - 1 - prec, the loop's only rounding.  Every scale factor is
then a power of 2, so the truncated sum after N steps is

  4^-N log max(|u_N|, |v_N|) = (E log 2 + log lam_N) / 4^N

with lam_N = max(|U_N|, |V_N|) / 2^prec in [1, 2) and the exact integer
E = sum_n 4^(N-n) e_n, built as E <- 4E + shift - 3 prec from
E = bits(max(|u_0|, v_0)) - 1.  That is one float log per height, of
lam_N.  E log 2 is an integer product with ln 2 to 192 bits, and the
sum is rounded once, by an int/int true division.  The precision is
prec = 400 + bits(b): unlike a floating mantissa, fixed point keeps fewer
bits of the smaller of U and V, and b v^2 needs about bits(b) more.
With 400 bits alone, 7 of the 14 Gram points at u = 1000000000007/3 (a
1117-bit b) get a float that differs from a 300-digit floating loop.

Precision: the g_j are exact from residues modulo a modulus over only
the primes of D that can still divide a later g.  Let (u_j, v_j) be the
reduced pair after j steps, so g_{j+1} = gcd(F, G) at (u_j, v_j), and let
part(n, r) be the largest divisor of n whose primes all divide r
(``_part``, by gcds alone).

Lemma.  Let p be an odd prime dividing D, so p | b.  Then p | g_{j+1} iff
p | u_j, and then p does not divide v_j: 2^j P reduces mod p to the
singular point (0, 0) of y^2 = x^3 + bx.  If p does not divide u_j, then
p divides neither g_{j+1} nor u_{j+1}.  Proof: mod p, F = u^4 and
G = 4u^3 v.  If p | u both vanish.  Otherwise p does not divide F, so it
divides neither g_{j+1} nor u_{j+1} = F/g_{j+1}.  By induction, once p
drops out of g_j it divides no later u or g.  So an odd prime of g_1
divides u_0, and an odd prime of g_{j+1} divides g_j.  In terms of
reduction: the points of a p-integral Weierstrass model with nonsingular
reduction form a subgroup (Silverman, AEC VII.2.1, whose proof needs no
minimality).  The prime 2 is always kept: the model is singular mod 2,
and G carries the factor 4, so g_1 can be even when u_0 is odd.  After
step 1 keeping 2 is a choice, not a need: if g_j is odd, then 4 | v_j, so
u_j and F are odd and 2 divides no later g.

So with d = part(D, 2 u_0), found once per point, the loop carries u_j
and v_j modulo a power of d and takes g_{j+1} = gcd(F mod d, G mod d, d):

- Every g_j divides d: it divides D, its odd primes divide g_1 and so
  u_0, and d carries D's full power of 2 and of each such prime.
- A g = 1 ends the loop: once g_j = 1 (j >= 1), no odd prime divides a
  later g, and neither does 2, g_j being odd.
- If u_{j-1}, v_{j-1} are known mod M and d | M, then g_j divides M and
  u_j = F/g_j, v_j = G/g_j are known mod M/g_j.  A pass from M = d^k is
  exact while d divides what is left of M before step j.  As every g_i
  divides d, that check fails exactly where D fails to divide
  D^k / (g_1 ... g_{j-1}): the passes are those of a loop modulo D^k.
  The loop starts at k = 2 and, when the check fails, restarts from
  (u_0, v_0) with k doubled, capped at n + 1 for n steps.
- At the cap the check never fails: before step j the modulus is
  d^(n+1) / (g_1 ... g_{j-1}), a multiple of d^(n+2-j).  So the loop ends
  with the g_j of one pass at D^(n+1), and the doubling keeps its work
  within about twice that pass.

On 1,140 Gram points, of theorem2 at the 90 u = p/q with p, q <= 12 and
of theorem1 at 80 (m, n) up to 40540, only g_1 can exceed 1: no pass
restarts or takes more than two steps.

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

from .curves import CurveUsageError, Point, add

_TARGET = 1e-12  # absolute error the iteration count aims for
_PREC_BASE = 400  # fixed-point bits of the Green loop, plus the bits of b

# ln 2 * 2^_LN2_BITS, truncated: ln 2 = sum_k 1 / (k 2^k)
_LN2_BITS = 192
_LN2 = sum((1 << _LN2_BITS) // (k << k) for k in range(1, _LN2_BITS + 1))


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


def _part(n: int, r: int) -> int:
    """The largest divisor of n >= 1 whose primes all divide r, by gcds
    alone: grow gcd(n, r) by gcd(n, part^2) until it stops changing."""
    part = math.gcd(n, r)
    while (grown := math.gcd(n, part * part)) != part:
        part = grown
    return part


def _is_torsion(p: Point) -> bool:
    # 4P = O, in closed form (see module docstring)
    return p.y == 0 or p.x * p.x == p.curve.b


def _green(u0: int, v0: int, b: int, n_iter: int) -> float:
    """n_iter steps of the archimedean Green's function at x = u0/v0, in fixed
    point (module docstring, "Green's function")."""
    # (uf, vf) and e_sum are the docstring's (U, V) and E
    prec = _PREC_BASE + abs(b).bit_length()
    e_sum = max(abs(u0), v0).bit_length() - 1
    shift = e_sum - prec
    uf, vf = (u0 >> shift, v0 >> shift) if shift >= 0 else (u0 << -shift, v0 << -shift)
    for _ in range(n_iter):
        uu, bvv = uf * uf, b * vf * vf
        fu = (uu - bvv) ** 2
        gv = 4 * uf * vf * (uu + bvv)
        shift = max(fu, abs(gv)).bit_length() - 1 - prec
        uf, vf = fu >> shift, gv >> shift
        e_sum = 4 * e_sum + shift - 3 * prec
    log_lam = math.log(max(abs(uf), abs(vf)) / (1 << prec))
    num = e_sum * _LN2 + int(math.ldexp(log_lam, _LN2_BITS))
    return num / (1 << (2 * n_iter + _LN2_BITS))


def _gcd_pass(u0: int, v0: int, b: int, d: int, k: int, n_iter: int) -> float | None:
    """sum_j 4^-j log g_j over the first n_iter steps, from residues modulo
    d^k; None once d stops dividing the modulus (module docstring,
    "Precision").  The pass ends at the first g = 1: every later g is 1."""
    mod = d**k
    a_res, b_res = u0 % mod, v0 % mod
    gcd_sum = 0.0
    for j in range(1, n_iter + 1):
        if mod % d:
            return None
        fv = (a_res * a_res - b * b_res * b_res) ** 2 % mod
        gv = 4 * a_res * b_res * (a_res * a_res + b * b_res * b_res) % mod
        g = math.gcd(fv % d, gv % d, d)
        if g == 1:
            break
        gcd_sum += log_big(g) / 4**j
        mod //= g
        a_res, b_res = (fv // g) % mod, (gv // g) % mod
    return gcd_sum


def canonical_height(p: Point) -> HeightValue:
    """Canonical height with a certified absolute error bound.

    Returns 0 exactly for the identity and for torsion points.  The
    reported abs_error is both geometric tail bounds plus 1e-20*max(1, |h|),
    a term below float64 rounding, so roundoff is not yet covered ([ROUNDOFF]).
    """
    if p.is_identity or _is_torsion(p):
        return HeightValue(0.0, 0.0)
    b = p.curve.b
    d_const, log_d, log_bound = _curve_constants(b)

    worst = max(log_d, log_bound)  # D >= 256, so n_iter >= 21
    n_iter = math.ceil(math.log(worst / (3 * _TARGET)) / math.log(4))

    u0 = p.x.numerator
    v0 = p.x.denominator

    # exact gcd corrections via residues modulo d^k, d the part of D over 2
    # and the primes of u0: from k = 2, restarted with k doubled, up to
    # n_iter + 1, when d stops dividing the modulus (module docstring,
    # "Precision")
    d = _part(d_const, 2 * u0)
    k = 2
    while (gcd_sum := _gcd_pass(u0, v0, b, d, k, n_iter)) is None:
        k = min(2 * k, n_iter + 1)
    gcd_tail = log_d * 4.0**-n_iter / 3.0

    green_f = _green(u0, v0, b, n_iter)
    green_tail = log_bound * 4.0**-n_iter / 3.0

    value = green_f - gcd_sum
    err = gcd_tail + green_tail + 1e-20 * max(1.0, abs(value))
    return HeightValue(value, err)


def gram_matrix(points) -> GramMatrix:
    """Pairings (hhat(p+q) - hhat(p) - hhat(q)) / 2, from n(n+1)/2 heights:
    hhat(P_i) on the diagonal and one height per sum P_i + P_j, i < j."""
    points = tuple(points)
    if not points:
        raise HeightUsageError("empty point list")
    if any(p.curve != points[0].curve for p in points):
        raise HeightUsageError("height pairing needs points on one curve")
    h = [canonical_height(p) for p in points]
    n = len(points)
    entries = [[0.0] * n for _ in range(n)]
    worst = max(x.abs_error for x in h)
    for i in range(n):
        entries[i][i] = h[i].value
        for j in range(i + 1, n):
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
        # a Gram determinant is >= 0; a float just below 0 is cancellation
        # (max(0.0, -0.0) is 0.0, so no "-0" either)
        "determinant": f"{max(0.0, det):.12f}",
        "error_bound": f"{max(err, gm.entry_error):.3e}",
        "threshold": f"{threshold:.3e}",
        "independent": bool(det > threshold),
        "rank_lower_bound": len(gm.points) if det > threshold else 0,
    }
