import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import biquad.arith
from biquad.arith import (
    _MR_PSI,
    ArithDomainError,
    _pollard_brent,
    factorize,
    is_perfect_square,
    is_probable_prime,
    kernel_over,
)
from biquad.families import euler_degenerate, euler_family_points, specialize_euler
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


def carmichael_below(limit):
    """Carmichael numbers below limit by Korselt's criterion: n composite
    and squarefree with p - 1 | n - 1 for each prime p | n.  Each is a
    Fermat probable prime to base 2, which screens the candidates."""
    found = []
    for n in range(3, limit, 2):
        if pow(2, n - 1, n) != 1 or sympy.isprime(n):
            continue
        if all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in sympy.factorint(n).items()):
            found.append(n)
    return found


class TestIsProbablePrime:
    """Exact below 2^64 with the first k prime bases, k the least index
    with n < psi_k (OEIS A014233): checked against sympy.isprime."""

    def test_at_and_near_psi(self):
        for psi in _MR_PSI:
            for n in (psi - 2, psi, psi + 2):
                assert is_probable_prime(n) == sympy.isprime(n), n

    def test_carmichael_below_10_6(self):
        found = carmichael_below(10**6)
        assert len(found) == 43 and found[:3] == [561, 1105, 1729]
        assert not any(is_probable_prime(n) for n in found)

    def test_random_below_2_64(self):
        rng = random.Random(2064)
        for _ in range(10**4):
            n = rng.getrandbits(rng.randint(1, 64))
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_rounds(self, monkeypatch):
        """The largest prime below each psi_k < 2^64 takes k rounds (k for
        the first psi equal to it), and primes above 2^64 take 64."""
        rounds = []
        witness = biquad.arith._miller_rabin_witness
        monkeypatch.setattr(
            biquad.arith,
            "_miller_rabin_witness",
            lambda n, a: rounds.append(a) or witness(n, a),
        )
        for psi in _MR_PSI:
            rounds.clear()
            p = sympy.prevprime(psi)
            assert is_probable_prime(p)
            assert len(rounds) == (_MR_PSI.index(psi) + 1 if psi < 2**64 else 64), p
        rounds.clear()
        assert is_probable_prime(99999989)  # 8 digits, between psi_3 and psi_4
        assert rounds == [2, 3, 5, 7]


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
        curve, _, parts = specialize_euler(euler_family_points(), u)
        n = -curve.b
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
