"""Exact integer arithmetic: factorization, primality, square classes.

Everything here works on plain Python ints (arbitrary precision) and
``fractions.Fraction``.  All values are immutable and all functions pure.
A square class, an element of Q*/(Q*)^2, is its squarefree integer.
Factorization is Pollard rho with Brent's cycle detection (Brent, "An
improved Monte Carlo factorization algorithm", BIT 20, 1980) and a
Miller-Rabin test.  Rho finds a prime factor p in about sqrt(p) steps,
so small primes need no trial division of their own.  Both draw their
random numbers from random.Random(n), so the work done on n depends on n
alone, never on earlier calls.

Below 2^64 Miller-Rabin is exact with the first k primes as bases, k the
least index with n < psi_k, where psi_k is the least odd composite that
is a strong probable prime to each of the first k prime bases (OEIS
A014233; Jaeschke, "On strong pseudoprimes to several bases", Math.
Comp. 61 (1993), for k <= 8):

  k   bases       n below
  1   2           2047
  2   2..3        1373653
  3   2..5        25326001
  4   2..7        3215031751
  5   2..11       2152302898747
  6   2..13       3474749660383
  7   2..17       341550071728321      (psi_8 = psi_7)
  9   2..23       3825123056546413051  (psi_10 = psi_11 = psi_9)
  12  2..37       318665857834031151167461 > 2^64

So an 8-digit n takes at most 4 rounds, and only n >= psi_9 takes all 12.
Above 2^64 the test takes 64 random bases.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction


class ArithDomainError(ValueError):
    """Raised when an argument is outside a function's domain (e.g. zero)."""


# The first 12 primes: for n < 2^64 the first k of them, k the least index
# with n < _MR_PSI[k - 1], make Miller-Rabin exact (module docstring).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_1 .. psi_12 of OEIS A014233
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, error < 2^-128 above."""
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2**64:
        bases = _MR_BASES_64[: bisect_right(_MR_PSI, n) + 1]
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(64))
    return not any(_miller_rabin_witness(n, a) for a in bases)


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of odd composite n."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Divides out 2, 3 and 5, then splits each composite cofactor with
    Pollard rho (Brent cycle detection) until every part is prime.
    """
    if n < 1:
        raise ArithDomainError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    return math.isqrt(n) ** 2 == n


def kernel_over(q, primes) -> int:
    """The squarefree s with q = s * (rational square), read off primes.

    Raises ArithDomainError if a prime outside primes divides q to an odd power.
    """
    q = Fraction(q)
    if q == 0:
        raise ArithDomainError("zero has no square class")
    rest, s = abs(q.numerator * q.denominator), -1 if q < 0 else 1
    for p in primes:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        s *= p if e % 2 else 1
    if not is_perfect_square(rest):
        raise ArithDomainError(f"{q} is not a square times a product of {list(primes)}")
    return s
