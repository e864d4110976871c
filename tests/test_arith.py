import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from biquad.arith import (
    ArithDomainError,
    _pollard_brent,
    factorize,
    is_perfect_square,
    is_probable_prime,
    kernel_over,
)
from biquad.families import euler_degenerate, euler_integral_model, euler_n_parts
from conftest import squarefree_part


def trial_division_oracle(n):
    """Independent factorization by plain trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_prime(self):
        assert factorize(17) == {17: 1}

    def test_one(self):
        assert factorize(1) == {}

    def test_euler_curve_coefficient(self):
        # the two-representation curve coefficient at u = 2; the oracle
        # finds four primes (41 * 113 * 241 * 569)
        n = 635318657
        expected = trial_division_oracle(n)
        assert expected == {41: 1, 113: 1, 241: 1, 569: 1}
        assert factorize(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ArithDomainError):
            factorize(0)

    def test_recompose_small(self):
        for n in range(1, 2000):
            f = factorize(n)
            prod = 1
            for p, e in f.items():
                assert is_probable_prime(p)
                prod *= p**e
            assert prod == n

    def test_recompose_random_60bit(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.getrandbits(60) | 1
            prod = 1
            for p, e in factorize(n).items():
                assert is_probable_prime(p)
                prod *= p**e
            assert prod == n


class TestFactorizeByRho:
    """Pollard rho alone finds the primes 7..10^6, repeated or not, next to
    a prime above 2^64; the factorization the test builds is the oracle."""

    small_primes = st.integers(min_value=7, max_value=10**6).map(
        lambda k: sympy.prevprime(k + 1)
    )

    @given(
        st.dictionaries(
            small_primes, st.integers(min_value=1, max_value=3), min_size=1, max_size=4
        ),
        st.sampled_from([None, 2**89 - 1, 2**107 - 1]),
    )
    @settings(deadline=None)
    def test_products_of_primes(self, built, big):
        if big is not None:
            built = {**built, big: 1}
        n = math.prod(p**e for p, e in built.items())
        got = factorize(n)
        assert got == dict(sorted(built.items()))
        assert list(got) == sorted(built)

    def test_squared_prime_below_10_6(self):
        # 28081^2 * 437681, the N of `descent --N 345130096641041`
        assert factorize(345130096641041) == {28081: 2, 437681: 1}

    def test_rho_depends_on_n_alone(self):
        # three primes of one size, so which divisor rho finds depends on
        # its random start; factorize calls in between must not move it
        n = 1000003 * 1000033 * 1000037
        first = _pollard_brent(n)
        for m in range(10**12 + 39, 10**12 + 239, 20):
            factorize(m * 1000099)
            assert _pollard_brent(n) == first
        assert 1 < first < n and n % first == 0


class TestEulerSplit:
    """The primes of N(p, q) are the union of those of f1..f4 at (p, q)."""

    @given(
        st.integers(min_value=-16, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(deadline=None, max_examples=60)
    def test_union_of_part_primes(self, p, q):
        assume(math.gcd(p, q) == 1)
        u = Fraction(p, q)
        assume(euler_degenerate(u) is None)
        parts = euler_n_parts(u)
        n = -euler_integral_model(u).b
        assert math.prod(parts) == n
        assert {r for part in parts for r in factorize(part)} == set(sympy.factorint(n))


class TestSquarefreeKernel:
    def test_examples(self):
        assert kernel_over(68, [2, 17]) == 17
        assert kernel_over(Fraction(49, 9), [3, 7]) == 1
        assert kernel_over(-17, [17]) == -17

    def test_zero_rejected(self):
        with pytest.raises(ArithDomainError):
            kernel_over(0, [2])

    # max_denominator keeps the factorizations cheap under hypothesis
    @given(
        st.fractions(
            min_value=Fraction(-10**6),
            max_value=Fraction(10**6),
            max_denominator=10**4,
        ).filter(lambda q: q != 0),
        st.fractions(
            min_value=Fraction(-1000),
            max_value=Fraction(1000),
            max_denominator=100,
        ).filter(lambda r: r != 0),
    )
    @settings(deadline=None)
    def test_square_multiple_invariance(self, q, r):
        n = abs(q.numerator * q.denominator * r.numerator * r.denominator)
        primes = list(factorize(n))
        assert kernel_over(q * r * r, primes) == kernel_over(q, primes)


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(9801)  # 99^2
        assert not is_perfect_square(17)
        assert is_perfect_square(0)
        assert not is_perfect_square(-4)


class TestKernelOver:
    prime_sets = st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 41, 113]))
    signs = st.sampled_from([1, -1])
    squares = st.fractions(
        min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=100
    ).filter(lambda r: r != 0).map(lambda r: r * r)

    @given(prime_sets, prime_sets, signs, squares)
    @settings(deadline=None)
    def test_matches_squarefree_kernel(self, others, used, sign, r2):
        # s = sign * (product of used) is a signed product of the primes
        q = sign * math.prod(used) * r2
        assert kernel_over(q, sorted(others | used)) == squarefree_part(q)

    @given(
        prime_sets, signs, squares,
        st.sampled_from([19, 23, 29, 31, 37, 41, 43]),
        st.integers(min_value=-3, max_value=3).map(lambda k: 2 * k + 1),
    )
    def test_odd_power_of_outside_prime_rejected(self, primes, sign, r2, p, e):
        assume(p not in primes)
        q = sign * math.prod(primes) * r2 * Fraction(p) ** e
        with pytest.raises(ArithDomainError):
            kernel_over(q, sorted(primes))

    def test_examples(self):
        assert kernel_over(Fraction(-68, 9), [2, 17]) == -17
        assert kernel_over(Fraction(49, 8), [2]) == 2
        with pytest.raises(ArithDomainError):
            kernel_over(0, [2])
