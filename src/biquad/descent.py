"""Quartic homogeneous spaces and the square-class rank lower bound.

For y^2 = x^3 + B*x, each squarefree divisor d of B (either sign) gives
the space d*U^4 + (B/d)*V^4 = H^2; a solution with H != 0 lifts to the
rational point (d*U^2/V^2, d*U*H/V^3), and every rational point with
x != 0 has x = d * (square) with such a d (Silverman-Tate, III.5-6).  So
every square class comes from the primes of B = -N or 4N: the descent
factors N, or the given parts whose product is N.  A class is its
squarefree integer d, and the product of classes d and e is
d*e / gcd(d, e)^2.  The images of the descent maps on the curve and its
associated curve are subgroups of Q*/(Q*)^2; if their found sizes are s
and s', then rank >= log2(s*s') - 2.  Found classes can only undercount
the true images, so the bound is always valid.

The search skips work only where exact arithmetic shows there is no
solution (Silverman, AEC X.4; Cremona, Algorithms 3.5-3.6).

Local pruning.  If d < 0 and B/d < 0, the left side is negative for
every (U, V) with V != 0: the space has no real point.  At an odd prime
p with p || B:

    Lemma.  Let d*U^4 + (B/d)*V^4 = H^2 with integers U, V, H,
    gcd(U, V) = 1 and V != 0.  If p does not divide d, then d is a
    non-zero square mod p; if p | d, then B/d is one.

    Proof.  Let p not divide d, so v_p(B/d) = 1.  If p | U (this
    includes U = 0, and then V = 1), then p does not divide V, so
    v_p(d*U^4) >= 4 while v_p((B/d)*V^4) = 1: the left side is non-zero
    with odd valuation 1.  But H^2 is either 0 (H = 0) or of even
    valuation, a contradiction.  So p does not divide U, and
    H^2 = d*U^4 (mod p) with d*U^4 non-zero mod p: d = (H/U^2)^2 mod p.
    If p | d, then p does not divide B/d, and the same argument with
    (d, U) and (B/d, V) exchanged applies (p | V forces p not to divide
    U, so d*U^4 has valuation 1).  QED

A space failing either condition has no rational point, so none is
searched.  Both conditions are characters of d, multiplicative in d:
the real one is -1 exactly when d < 0 and B > 0, and the one at p is
(d/p) for p not dividing d and ((B/d)/p) = ((B/p)/p) * (d'/p) for
d = p*d', so the generator p contributes ((B/p)/p).  The spaces that pass
every test are the kernel of these characters, a subgroup of the signed
squarefree divisors; elimination over GF(2) on the character bits of the
generators -1, p_1, ... finds a basis of it, and no other divisor is
visited.

Residue sieve.  Only coprime (u, v) are searched, by one mask per block of
the box that all spaces share; each (d, u, v) kept is tested modulo small
moduli before any square root.  A solution's residue mod m is h^2 mod m, a
square (0 included), so the sieve drops only non-squares.  The first
modulus m costs one add and one lookup per triple: d*u^4 mod m and
(B/d)*v^4 mod m - m are tabulated, and a sum r < 0 reads entry r + m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import ArithDomainError, kernel_over
from .curves import CurveUsageError, on_curve

# The sieve moduli, grouped so that each product fits a lookup table:
# 64 * 63 * 65, then 11 * 17 * 19 * 23, 29 * 31 * 37, 41 * 43 * 47 and
# 53 * 59 * 61.  Any two residues below a modulus multiply within int64.
_MODULI = (262080, 81719, 33263, 82861, 190747)
_MODS = np.array(_MODULI, dtype=np.int64)[:, None]  # a column, to broadcast
_CHUNK = 2**13  # (d, u, v) triples per pass of the sieve
# The largest height bound searched.  The first modulus's tables hold
# 5 + 2S rows of bound + 1 int64 for S spaces: at this cap, 0.4 MB plus
# 0.16 MB per space.
MAX_BOUND = 10**4


@dataclass(frozen=True)
class HomSpaceSolution:
    """(U, V, H) with d*U^4 + (B/d)*V^4 = H^2, gcd(U, V) = 1, V > 0."""

    d: int
    u_val: int
    v_val: int
    h_val: int

    def to_json(self) -> dict:
        return {
            "d": str(self.d),
            "u": str(self.u_val),
            "v": str(self.v_val),
            "h": str(self.h_val),
        }


def verify_solution(B: int, s: HomSpaceSolution) -> bool:
    """Exact check of the defining equation; d must divide B."""
    if s.d == 0 or B % s.d != 0:
        raise CurveUsageError(f"d = {s.d} does not divide B = {B}")
    lhs = s.d * s.u_val**4 + (B // s.d) * s.v_val**4
    return lhs == s.h_val**2


@functools.cache
def _squares(m: int) -> np.ndarray:
    """is_square[r] for 0 <= r < m: r is a square modulo m."""
    table = np.zeros(m, dtype=bool)
    # h and m - h have the same square; slices keep the temporaries small
    for h0 in range(0, m // 2 + 1, 2**14):
        h = np.arange(h0, min(h0 + 2**14, m // 2 + 1), dtype=np.int64)
        table[h * h % m] = True
    return table


def _local_spaces(B: int, primes: list[int]) -> list[int]:
    """The d of the spaces with a real point and a point mod every odd p || B.

    Bit 0 of a generator's word is its real character, bit t + 1 its
    character at the t-th such p.  Each generator is reduced against the
    pivots so far (keyed by lowest bit), carrying its d along; one that
    reaches the zero word is in the kernel, and the survivors are the
    subgroup those generate.
    """
    odd = [p for p in primes if p > 2 and B % (p * p)]
    pivots, kernel = {}, []
    for g in [-1, *primes]:
        bits, d = int(g == -1 and B > 0), g
        for t, p in enumerate(odd):
            if pow(B // p if g == p else g, (p - 1) // 2, p) != 1:
                bits |= 2 << t
        while bits and bits & -bits in pivots:
            pbits, e = pivots[bits & -bits]
            bits, d = bits ^ pbits, d * e // math.gcd(d, e) ** 2
        if bits:
            pivots[bits & -bits] = bits, d
        else:
            kernel.append(d)
    return sorted(_subgroup(kernel))


def search_solutions(
    B: int, height_bound: int, primes, *, _certified: bool = False
) -> list[HomSpaceSolution]:
    """All solutions with coprime 0 <= u, 1 <= v, max(u, v) <= bound.

    d runs over the signed products of distinct primes, each of which must
    divide B; pass all primes of B to search every space.  A bound above
    MAX_BOUND is a domain error.  u < 0
    duplicates u > 0 (fourth powers), so only u >= 0 is emitted.
    Deterministic order: |d| ascending, positive d before negative,
    then u, then v.  _certified=True skips re-testing primes from factorize.

    Spaces that fail the local test are skipped.  The sieve takes blocks
    of all u by a run of v, about max(_CHUNK, bound) pairs, and groups of
    spaces, about as many triples; memory is O(_CHUNK + S*bound) for S
    spaces (the first modulus's tables), never O(bound^2).  Survivors of
    the first modulus are pooled across groups for the rest.
    """
    if B == 0:
        raise ArithDomainError("B must be nonzero")
    if height_bound > MAX_BOUND:
        raise ArithDomainError(f"height bound {height_bound} exceeds {MAX_BOUND}")
    # the local test at p is a Legendre symbol: p must be prime
    if any(p < 2 or B % p or not (_certified or arith.is_probable_prime(p)) for p in primes):
        raise ArithDomainError(f"not all of {list(primes)} are primes dividing B = {B}")
    spaces = _local_spaces(B, sorted(set(primes)))
    n = max(height_bound, 0)  # a bound below 1 holds no (u, v)
    S, cofactors = len(spaces), [B // d for d in spaces]
    # column k is d_k modulo each modulus, column S + k its cofactor B/d_k
    res = np.array([[x % m for x in spaces + cofactors] for m in _MODULI], dtype=np.int64)
    pow4 = np.arange(n + 1) % _MODS
    pow4 = pow4 * pow4 % _MODS
    pow4 = pow4 * pow4 % _MODS

    found = []

    def finish(s, u, v):
        """The remaining moduli, then the exact check."""
        for i in range(1, len(_MODULI)):
            r = (res[i, s] * pow4[i, u] + res[i, s + S] * pow4[i, v]) % _MODULI[i]
            keep = _squares(_MODULI[i])[r]
            s, u, v = s[keep], u[keep], v[keep]
        for k, x, y in zip(s.tolist(), u.tolist(), v.tolist()):
            lhs = spaces[k] * x**4 + cofactors[k] * y**4
            if lhs >= 0:
                h = math.isqrt(lhs)
                if h * h == lhs:
                    found.append(HomSpaceSolution(spaces[k], x, y, h))

    m0, squares0 = _MODULI[0], _squares(_MODULI[0])
    u_term = (res[0, :S, None] * pow4[0] % m0)[:, :, None]
    v_term = (res[0, S:, None] * pow4[0] % m0 - m0)[:, None, :]
    # a common factor of u, v <= n (u = 0 included) has a prime factor <= n
    sieve = np.ones(n + 1, dtype=bool)
    for p in range(2, math.isqrt(n) + 1):
        sieve[p * p :: p] = False
    small_primes = np.flatnonzero(sieve)[2:]
    width = max(1, _CHUNK // (n + 1))  # v per block
    pool, pooled = [], 0
    for v0 in range(1, n + 1, width):
        coprime = np.ones((n + 1, min(width, n + 1 - v0)), dtype=bool)
        for p in small_primes[-v0 % small_primes < width].tolist():  # p | some v here
            coprime[::p, -v0 % p :: p] = False
        v_block, group = v_term[:, :, v0 : v0 + width], max(1, _CHUNK // coprime.size)
        for s0 in range(0, S, group):
            hit = squares0[u_term[s0 : s0 + group] + v_block[s0 : s0 + group]]
            hit &= coprime
            s, u, v = np.unravel_index(np.flatnonzero(hit), hit.shape)
            pool.append((s + s0, u, v + v0))
            pooled += s.size
            if pooled >= _CHUNK:
                finish(*map(np.concatenate, zip(*pool)))
                pool, pooled = [], 0
    if pooled:
        finish(*map(np.concatenate, zip(*pool)))
    return sorted(found, key=lambda s: (abs(s.d), s.d < 0, s.u_val, s.v_val))


@dataclass
class DescentReport:
    n: int
    classes_e: list[int]
    classes_e4: list[int]
    s: int
    s_prime: int
    rank_lower_bound: int
    solutions_e: list[HomSpaceSolution]
    solutions_e4: list[HomSpaceSolution]

    def to_json(self) -> dict:
        return {
            "N": str(self.n),
            "classes_E": [str(c) for c in self.classes_e],
            "classes_E4": [str(c) for c in self.classes_e4],
            "s": self.s,
            "s_prime": self.s_prime,
            "rank_lower_bound": self.rank_lower_bound,
            "solutions_E": [s.to_json() for s in self.solutions_e],
            "solutions_E4": [s.to_json() for s in self.solutions_e4],
        }


def _subgroup(classes: set[int]) -> set[int]:
    """Closure of a set of squarefree classes under multiplication.

    Each generator outside the group so far doubles it by adding its coset.
    """
    group = {1}
    for c in classes:
        if c not in group:
            group |= {g * c // math.gcd(g, c) ** 2 for g in group}
    return group


def _point_classes(points, expect_b: int, primes) -> set[int]:
    classes = set()
    for p in points:
        if p.is_identity:
            continue
        if p.curve.b != expect_b:
            raise CurveUsageError(
                f"extra point lies on b={p.curve.b}, expected b={expect_b}"
            )
        if not on_curve(p.curve, p):
            raise CurveUsageError(f"extra point ({p.x}, {p.y}) is not on the curve")
        if p.x == 0:
            continue  # 2-torsion; its class is that of B, added separately
        classes.add(kernel_over(p.x, primes))
    return classes


def check_n(N: int) -> None:
    """Raise ArithDomainError unless N >= 2, the descent's domain."""
    if N < 2:
        raise ArithDomainError("N must be at least 2")


def rank_lower_bound(
    N: int, height_bound: int, extra_points=(), parts=None
) -> DescentReport:
    """Certified lower bound for the rank of y^2 = x^3 - N*x.

    Collects square classes of x-coordinates from quartic-space searches
    on the curve (B = -N) and its associated curve (B = 4N), plus the
    2-torsion class of B on each, plus any supplied points (which must lie
    on B = -N).  Bound: log2(s * s') - 2.

    parts, integers whose product is N (default [N]), are factored one by
    one; the primes of N are the union of theirs, each counted once.
    """
    check_n(N)
    if height_bound < 0:
        raise ArithDomainError("height bound must be non-negative")
    parts = [N] if parts is None else list(parts)
    if math.prod(parts) != N:
        raise ArithDomainError(f"parts {parts} do not multiply to N = {N}")
    b_e, b_e4 = -N, 4 * N
    # via the module, so wrappers see it
    primes_e = sorted({p for part in parts for p in arith.factorize(part)})
    primes_e4 = sorted({2, *primes_e})

    sols_e = search_solutions(b_e, height_bound, primes_e, _certified=True)
    sols_e4 = search_solutions(b_e4, height_bound, primes_e4, _certified=True)

    # each solution's d is a signed squarefree divisor: its own class
    classes_e = {s.d for s in sols_e if s.h_val != 0} | {kernel_over(b_e, primes_e)}
    classes_e4 = {s.d for s in sols_e4 if s.h_val != 0} | {kernel_over(b_e4, primes_e4)}
    group_e = _subgroup(classes_e | _point_classes(extra_points, b_e, primes_e))
    group_e4 = _subgroup(classes_e4)
    s, s_prime = len(group_e), len(group_e4)
    bound = max(s.bit_length() + s_prime.bit_length() - 2 - 2, 0)
    return DescentReport(
        n=N,
        classes_e=sorted(group_e, key=lambda c: (abs(c), c < 0)),
        classes_e4=sorted(group_e4, key=lambda c: (abs(c), c < 0)),
        s=s,
        s_prime=s_prime,
        rank_lower_bound=bound,
        solutions_e=sols_e,
        solutions_e4=sols_e4,
    )
