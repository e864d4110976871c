import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from biquad import descent
from biquad.arith import ArithDomainError, factorize, kernel_over
from biquad.curves import Curve, CurveUsageError, Point
from biquad.descent import (
    HomSpaceSolution,
    _local_spaces,
    _subgroup,
    rank_lower_bound,
    search_solutions,
    verify_solution,
)
from biquad.families import euler_family_points, specialize_euler
from conftest import squarefree_part


def exhaustive_oracle(B, bound):
    """Independent brute-force enumeration over all divisor classes."""
    hits = set()
    for d0 in range(1, abs(B) + 1):
        if B % d0 or any(d0 % (k * k) == 0 for k in range(2, d0 + 1)):
            continue  # not a squarefree divisor of B
        for d in (d0, -d0):
            for u, v in itertools.product(range(0, bound + 1), range(1, bound + 1)):
                if math.gcd(u, v) != 1:
                    continue
                lhs = d * u**4 + (B // d) * v**4
                if lhs >= 0 and math.isqrt(lhs) ** 2 == lhs:
                    hits.add((d, u, v, math.isqrt(lhs)))
    return hits


class TestVerifySolution:
    def test_d_minus1_on_e17(self):
        assert verify_solution(-17, HomSpaceSolution(-1, 1, 1, 4))

    def test_d2_on_associated(self):
        # 2*3^4 + 34*1 = 196 = 14^2
        assert verify_solution(68, HomSpaceSolution(2, 3, 1, 14))

    def test_false(self):
        assert not verify_solution(-17, HomSpaceSolution(1, 1, 1, 1))

    def test_non_divisor_rejected(self):
        with pytest.raises(CurveUsageError):
            verify_solution(-17, HomSpaceSolution(3, 1, 1, 1))


class TestSearch:
    def test_matches_oracle_e17(self):
        found = {
            (s.d, s.u_val, s.v_val, s.h_val) for s in search_solutions(-17, 5, [17])
        }
        assert found == exhaustive_oracle(-17, 5)
        assert (-1, 1, 1, 4) in found

    def test_matches_oracle_associated(self):
        found = {
            (s.d, s.u_val, s.v_val, s.h_val) for s in search_solutions(68, 5, [2, 17])
        }
        assert found == exhaustive_oracle(68, 5)
        assert (2, 3, 1, 14) in found

    @given(
        st.integers(-3000, 3000).filter(lambda b: b != 0), st.integers(0, 6)
    )
    def test_matches_oracle_in_order(self, B, bound):
        # every sign of d and B/d, so triples with d*u^4 + (B/d)*v^4 < 0, which
        # only the exact check drops, are compared with a full search
        found = [
            (s.d, s.u_val, s.v_val, s.h_val)
            for s in search_solutions(B, bound, list(factorize(abs(B))))
        ]
        key = lambda t: (abs(t[0]), t[0] < 0, t[1], t[2])
        assert found == sorted(exhaustive_oracle(B, bound), key=key)

    def test_bound_below_one_is_empty(self):
        for bound in (0, -1, -5):
            assert search_solutions(-17, bound, [17]) == []

    def test_degenerate_b_minus1(self):
        sols = search_solutions(-1, 1, [])
        assert sols and all(s.d == -1 or s.h_val == 0 for s in sols)

    def test_all_verify_and_lift(self):
        for B in (-17, 68, -2, 8):
            for s in search_solutions(B, 4, list(factorize(abs(B)))):
                assert verify_solution(B, s)
                if s.h_val != 0 and s.u_val != 0:
                    # the lift (d u^2/v^2, d u h/v^3); point() checks it is on the curve
                    u, v, h = s.u_val, s.v_val, s.h_val
                    p = Curve(B).point(
                        Fraction(s.d * u * u, v * v), Fraction(s.d * u * h, v**3)
                    )
                    assert kernel_over(p.x, list(factorize(abs(B)))) == s.d

    def test_deterministic_order(self):
        sols = search_solutions(-17, 5, [17])
        keys = [(abs(s.d), s.d < 0, s.u_val, s.v_val) for s in sols]
        assert keys == sorted(keys)

    def test_zero_b_rejected(self):
        with pytest.raises(ArithDomainError):
            search_solutions(0, 3, [])

    def test_prime_not_dividing_b_rejected(self):
        for primes in ([3], [2, 17], [17, 1]):
            with pytest.raises(ArithDomainError):
                search_solutions(-17, 3, primes)

    def test_composite_rejected(self):
        # 15 || -60, but a Legendre symbol mod 15 would prune real solutions
        for primes in ([15], [2, 15]):
            with pytest.raises(ArithDomainError):
                search_solutions(-60, 3, primes)


# B = sign * prod p^e from a few small primes: p || B and p^2 | B both occur
factored_b = st.tuples(
    st.sampled_from([1, -1]),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 17]), st.integers(1, 3), max_size=3),
).filter(lambda t: math.prod(p**e for p, e in t[1].items()) <= 5000)


def signed_divisors(primes):
    """Every d = +-(product of distinct primes from primes)."""
    return {
        sign * math.prod(c)
        for r in range(len(primes) + 1)
        for c in itertools.combinations(primes, r)
        for sign in (1, -1)
    }


def b_and_primes(t):
    sign, factors = t
    return sign * math.prod(p**e for p, e in factors.items()), sorted(factors)


def divisor_oracle(B, primes, bound):
    """Brute force over every signed divisor d of primes and coprime (u, v)."""
    hits = set()
    for d in signed_divisors(primes):
        for u, v in itertools.product(range(0, bound + 1), range(1, bound + 1)):
            if math.gcd(u, v) == 1:
                lhs = d * u**4 + (B // d) * v**4
                if lhs >= 0 and math.isqrt(lhs) ** 2 == lhs:
                    hits.add((d, u, v, math.isqrt(lhs)))
    return hits


class TestPrunedSieve:
    @settings(max_examples=40, deadline=None)
    @given(factored_b, st.integers(0, 12), st.sampled_from([1, 7, 64]))
    @example((-1, {17: 1}), 12, 1)
    @example((1, {2: 2, 17: 1}), 12, 7)  # 68 = 4 * 17, the associated curve of N = 17
    @example((-1, {3: 2, 5: 1, 7: 1}), 12, 64)
    @example((1, {2: 2, 17: 1}), 12, 39)  # (17, 0, 1, 2) solves; v blocks of 3, all u
    def test_chunked_search_matches_oracle(self, t, bound, chunk):
        # chunk edges fall between runs of v, between groups of spaces and
        # inside the pool
        B, primes = b_and_primes(t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(descent, "_CHUNK", chunk)
            found = [(s.d, s.u_val, s.v_val, s.h_val) for s in search_solutions(B, bound, primes)]
        key = lambda t: (abs(t[0]), t[0] < 0, t[1], t[2])
        assert found == sorted(exhaustive_oracle(B, bound), key=key)

    @pytest.mark.parametrize("N", [141262310897, 2701104520630058561])
    def test_table_n_matches_divisor_oracle(self, N):
        # table N of rank 8 with 32 and 64 spaces on both curves; the oracles
        # above reach only |B| <= 5000 with a handful of spaces
        primes = sorted(factorize(N))
        for B, ps in ((-N, primes), (4 * N, sorted({2, *primes}))):
            assert len(_local_spaces(B, ps)) >= 32
            found = [(s.d, s.u_val, s.v_val, s.h_val) for s in search_solutions(B, 30, ps)]
            key = lambda t: (abs(t[0]), t[0] < 0, t[1], t[2])
            assert found == sorted(divisor_oracle(B, ps, 30), key=key)
            assert len({t[0] for t in found if t[3]}) >= 4

    @settings(max_examples=60, deadline=None)
    @given(factored_b)
    def test_pruned_spaces_have_no_solution(self, t):
        B, primes = b_and_primes(t)
        pruned = signed_divisors(primes) - set(_local_spaces(B, primes))
        assert not pruned & {d for d, *_ in exhaustive_oracle(B, 30)}

    @settings(max_examples=100, deadline=None)
    @given(factored_b)
    def test_local_spaces_are_the_d_that_pass(self, t):
        # each d on its own: the real place, then at every odd p || B a
        # Legendre symbol on d (p not dividing d) or on B/d (p | d)
        B, primes = b_and_primes(t)
        odd = [p for p in primes if p > 2 and B % (p * p)]

        def passes(d):
            if d < 0 and B // d < 0:
                return False
            return all(pow(B // d if d % p == 0 else d, (p - 1) // 2, p) == 1 for p in odd)

        spaces = set(_local_spaces(B, primes))
        assert spaces == {d for d in signed_divisors(primes) if passes(d)}
        assert all(d * e // math.gcd(d, e) ** 2 in spaces for d in spaces for e in spaces)
        assert len(spaces) & (len(spaces) - 1) == 0

    def test_local_test_prunes(self):
        # 3 || -3: (-1/3) = -1 rules out d = -1 and, since B/3 = -1, d = 3
        assert set(_local_spaces(-3, [3])) == {1, -3}
        # B > 0: d < 0 gives B/d < 0, no real point; 2 is a square mod 17
        assert set(_local_spaces(68, [2, 17])) == {1, 2, 17, 34}
        # 3^2 | B: no test at 3
        assert set(_local_spaces(-9, [3])) == {1, -1, 3, -3}

    def test_memory_does_not_grow_with_bound(self):
        search_solutions(-17, 1, [17])  # builds the fixed residue tables
        tracemalloc.start()
        try:
            sols = search_solutions(-17, 1000, [17])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (-1, 2, 5, 103) in [(s.d, s.u_val, s.v_val, s.h_val) for s in sols]
        # one int64 array over the 10^6 pairs of the box would take 8 MB
        assert peak < 3 * 2**20

    def test_memory_does_not_grow_with_the_primes(self):
        # 16 odd primes, 21 digits: 2^17 signed divisors of B = -N and 2^18
        # of 4N, of which the local tests keep 2 and 4
        primes = [p for p in range(3, 60) if all(p % q for q in range(2, p))]
        assert len(primes) == 16
        rank_lower_bound(17, 1)  # builds the fixed residue tables
        tracemalloc.start()
        try:
            r = rank_lower_bound(math.prod(primes), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.s == r.s_prime == 2
        # one int64 word per signed divisor would take 1 MB
        assert peak < 2**20


class TestRankLowerBound:
    def test_n17(self):
        r = rank_lower_bound(17, 10)
        assert r.rank_lower_bound == 2
        assert set(r.classes_e) == {1, -1, 17, -17}
        assert set(r.classes_e4) == {1, 2, 17, 34}
        assert r.s == 4 and r.s_prime == 4

    def test_subgroups_are_powers_of_two(self):
        for n in (17, 82, 97):
            r = rank_lower_bound(n, 6)
            assert r.s & (r.s - 1) == 0
            assert r.s_prime & (r.s_prime - 1) == 0

    def test_euler_curve_with_supplied_points(self):
        _, pts, _ = specialize_euler(euler_family_points(), 2)
        r = rank_lower_bound(635318657, 2, extra_points=pts)
        assert r.rank_lower_bound >= 2

    def test_wrong_curve_points_rejected(self):
        p = Curve(-2).point(-1, 1)
        with pytest.raises(CurveUsageError):
            rank_lower_bound(17, 3, extra_points=[p])

    def test_off_curve_point_rejected(self):
        # (2, 1) is not on y^2 = x^3 - 17x; counting its class 2 would
        # raise the bound to 3, above the true rank 2
        p = Point(Curve(-17), Fraction(2), Fraction(1))
        with pytest.raises(CurveUsageError):
            rank_lower_bound(17, 10, extra_points=[p])

    def test_json_format(self):
        obj = rank_lower_bound(17, 10).to_json()
        assert obj["N"] == "17"
        assert obj["s"] == 4 and obj["s_prime"] == 4
        assert obj["rank_lower_bound"] == 2
        assert "-17" in obj["classes_E"]

    def test_small_n_rejected(self):
        with pytest.raises(ArithDomainError):
            rank_lower_bound(1, 3)

    @pytest.mark.parametrize(
        "n, parts",
        [
            (272, [8, 34]),  # 2 divides both parts
            (635318657, [41 * 113, 241 * 569]),
            (345130096641041, [28081, 28081 * 437681]),  # 28081^2 * 437681
            (20857012713217, [1697, 1, 28081 * 437681]),
        ],
    )
    def test_parts_give_the_same_report(self, n, parts):
        assert rank_lower_bound(n, 10, parts=parts) == rank_lower_bound(n, 10)

    @pytest.mark.parametrize("parts", [[16], [16, 17, 1, 2], [-16, -17], []])
    def test_parts_must_multiply_to_n(self, parts):
        with pytest.raises(ArithDomainError):
            rank_lower_bound(272, 3, parts=parts)


# squarefree nonzero integers: a set of distinct primes, optionally with -1
squarefree = st.sets(st.sampled_from([-1, 2, 3, 5, 7, 11, 13])).map(math.prod)


@given(st.lists(squarefree, max_size=6))
def test_subgroup_is_all_subset_products(gens):
    expected = {
        squarefree_part(math.prod(sub))
        for r in range(len(gens) + 1)
        for sub in itertools.combinations(gens, r)
    }
    assert _subgroup(set(gens)) == expected
