"""Quartic homogeneous spaces and the square-class rank lower bound.

For y^2 = x^3 + B*x, each squarefree divisor d of B (either sign) gives
the space d*U^4 + (B/d)*V^4 = H^2; a solution with H != 0 lifts to the
rational point (d*U^2/V^2, d*U*H/V^3), and every rational point with
x != 0 has x = d * (square) with such a d (Silverman-Tate, III.5-6).  So
every square class comes from the primes of B = -N or 4N: N is the only
integer the descent factors.  A class is its squarefree integer d, and
the product of classes d and e is d*e / gcd(d, e)^2.  The images of the
descent maps on the curve and its associated curve are subgroups of
Q*/(Q*)^2; if their found sizes are s and s', then
rank >= log2(s*s') - 2.  Found classes can only undercount the true
images, so the bound is always valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith
from .arith import ArithDomainError, kernel_over
from .curves import CurveUsageError, on_curve


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


def search_solutions(B: int, height_bound: int, primes) -> list[HomSpaceSolution]:
    """All solutions with coprime 0 <= u, 1 <= v, max(u, v) <= bound.

    d runs over the signed products of distinct primes, each of which must
    divide B; pass all primes of B to search every space.  u < 0
    duplicates u > 0 (fourth powers), so only u >= 0 is emitted.
    Deterministic order: |d| ascending, positive d before negative,
    then u, then v.
    """
    if B == 0:
        raise ArithDomainError("B must be nonzero")
    if any(p < 2 or B % p for p in primes):
        raise ArithDomainError(f"not all of {list(primes)} divide B = {B}")
    out: list[HomSpaceSolution] = []
    divisors = [1]
    for p in set(primes):
        divisors += [d * p for d in divisors]
    divisors = sorted(divisors + [-d for d in divisors], key=lambda d: (abs(d), d < 0))
    fourth = [k**4 for k in range(height_bound + 1)]
    coprime = [[v for v in range(1, height_bound + 1) if math.gcd(u, v) == 1]
               for u in range(height_bound + 1)]
    for d in divisors:
        comp = B // d
        comp4 = [comp * f for f in fourth]
        for u, vs in enumerate(coprime):
            du4 = d * fourth[u]
            for v in vs:
                lhs = du4 + comp4[v]
                if lhs >= 0:
                    h = math.isqrt(lhs)
                    if h * h == lhs:
                        out.append(HomSpaceSolution(d, u, v, h))
                elif comp < 0:
                    break  # lhs only falls as v grows
    return out


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


def rank_lower_bound(
    N: int, height_bound: int, extra_points=()
) -> DescentReport:
    """Certified lower bound for the rank of y^2 = x^3 - N*x.

    Collects square classes of x-coordinates from quartic-space searches
    on the curve (B = -N) and its associated curve (B = 4N), plus the
    2-torsion class of B on each, plus any supplied points (which must lie
    on B = -N).  Bound: log2(s * s') - 2.
    """
    if N < 2:
        raise ArithDomainError("N must be at least 2")
    if height_bound < 0:
        raise ArithDomainError("height bound must be non-negative")
    b_e, b_e4 = -N, 4 * N
    primes_e = list(arith.factorize(N))  # via the module, so wrappers see it
    primes_e4 = sorted({2, *primes_e})

    sols_e = search_solutions(b_e, height_bound, primes_e)
    sols_e4 = search_solutions(b_e4, height_bound, primes_e4)

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
