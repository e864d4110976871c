import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biquad.arith import ArithDomainError, factorize, kernel_over
from biquad.curves import Curve, CurveUsageError, Point
from biquad.descent import (
    HomSpaceSolution,
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
        # every sign of d and B/d, so the early exit once d*u^4 + (B/d)*v^4 < 0
        # is checked against a search that never leaves early
        found = [
            (s.d, s.u_val, s.v_val, s.h_val)
            for s in search_solutions(B, bound, list(factorize(abs(B))))
        ]
        key = lambda t: (abs(t[0]), t[0] < 0, t[1], t[2])
        assert found == sorted(exhaustive_oracle(B, bound), key=key)

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
        pts = [specialize_euler(p, 2) for p in euler_family_points()]
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
