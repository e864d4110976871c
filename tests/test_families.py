from fractions import Fraction

import pytest

from biquad.curves import Curve, on_curve
from biquad.families import (
    DegenerateSpecializationError,
    ParametricPoint,
    euler_associated_points,
    euler_degenerate,
    euler_family_points,
    euler_integral_model,
    euler_n,
    euler_n_factors,
    euler_n_poly,
    euler_quadruple,
    general_family_points,
    general_n_poly,
    identity_suite,
    printed_transfer_x,
    same_x,
    specialize_euler,
    specialize_general,
    verify_on_associated,
    verify_parametric_point,
)
from biquad.poly import BivarPoly, PolyUsageError


class TestEulerQuadruple:
    def test_values_at_2_1(self):
        vals = [p.evaluate(2, 1) for p in euler_quadruple()]
        assert vals == [158, -59, 134, 133]
        assert 158**4 + 59**4 == 134**4 + 133**4 == 635318657

    def test_degenerate_at_1_1(self):
        vals = [p.evaluate(1, 1) for p in euler_quadruple()]
        assert vals == [4, -2, -2, 4]
        assert euler_degenerate(1) is not None

    def test_homogeneous_degree_7(self):
        for p in euler_quadruple():
            assert p.is_homogeneous(7)

    def test_scaling_consistency(self):
        # homogeneity exercised through integer scalings of (u, w)
        for lam in (2, 3):
            for p in euler_quadruple():
                assert p.evaluate(2 * lam, lam) == lam**7 * p.evaluate(2, 1)


class TestEulerN:
    def test_at_2(self):
        assert euler_n(2) == 635318657

    def test_symbolic_equals_sums(self):
        a, b, c, d = (p.substitute_last(1) for p in euler_quadruple())
        n = euler_n_poly()
        assert (n - (a**4 + b**4)).is_zero
        assert (n - (c**4 + d**4)).is_zero

    def test_at_0_degenerate(self):
        assert euler_n(0) == 1
        assert euler_degenerate(0) is not None

    def test_at_1(self):
        # 8 * 1 * 2 * 17, matching 4^4 + (-2)^4
        assert euler_n(1) == 272

    def test_factors_even(self):
        for f in euler_n_factors():
            assert all(e[0] % 2 == 0 for e in f.coeffs)


class TestGeneralFamily:
    def test_points_on_curve_symbolically(self):
        p1, p2 = general_family_points()
        n = general_n_poly()
        assert verify_parametric_point(p1, n)
        assert verify_parametric_point(p2, n)

    def test_specialize_2_1(self):
        p1, p2 = general_family_points()
        q1 = specialize_general(p1, 2, 1)
        q2 = specialize_general(p2, 2, 1)
        assert q1.curve == Curve(0, -17)
        assert (q1.x, q1.y) == (Fraction(-1), Fraction(4))
        assert (q2.x, q2.y) == (Fraction(49, 9), Fraction(224, 27))

    def test_specialize_1_1(self):
        p1, _ = general_family_points()
        q = specialize_general(p1, 1, 1)
        assert q.curve.b == -2
        assert (q.x, q.y) == (-1, 1)

    def test_degenerate_m_plus_n_zero(self):
        _, p2 = general_family_points()
        with pytest.raises(DegenerateSpecializationError):
            specialize_general(p2, 1, -1)

    def test_p2_x_is_a_square(self):
        _, p2 = general_family_points()
        for m, n in [(2, 1), (3, 2), (5, 1)]:
            x = p2.x.evaluate(m, n) / p2.z.evaluate(m, n) ** 2
            r = Fraction(m * m + m * n + n * n, m + n)
            assert x == r * r


class TestEulerFamilyPoints:
    def test_symbolic_on_curve(self):
        n = euler_n_poly()
        for p in euler_family_points():
            assert verify_parametric_point(p, n)

    def test_associated_points_symbolic(self):
        n = euler_n_poly()
        q1, q2 = euler_associated_points()
        assert verify_on_associated(q1, n)
        assert verify_on_associated(q2, n)

    def test_transferred_x_match_printed(self):
        p1, p2, p3, p4 = euler_family_points()
        x3, x4 = printed_transfer_x()
        assert same_x(p3, *x3)
        assert same_x(p4, *x4)
        assert not same_x(p3, *x4)

    def test_specialize_u2(self):
        expected = [
            (Fraction(137129), Fraction(49914956)),
            (Fraction(-24964), Fraction(549998)),
            (Fraction(1766241, 16), Fraction(2285325807, 64)),
            (Fraction(365689129, 9801), Fraction(5156125463944, 970299)),
        ]
        for p, (ex, ey) in zip(euler_family_points(), expected):
            q = specialize_euler(p, 2)
            assert q.curve.b == -635318657
            assert q.x == ex
            assert abs(q.y) == ey  # y-sign is a curve automorphism

    def test_x1_at_2_factors(self):
        p1 = euler_family_points()[0]
        assert p1.z == 1
        assert p1.x.evaluate(2) == 241 * 569 == 137129

    def test_denominators_at_2(self):
        _, _, p3, p4 = euler_family_points()
        x3 = p3.x.evaluate(2) / p3.z.evaluate(2) ** 2
        x4 = p4.x.evaluate(2) / p4.z.evaluate(2) ** 2
        assert x3.denominator == 16
        assert x4.denominator == 9801 == 99**2

    def test_round_trip_random_specializations(self, rng):
        n = euler_n_poly()
        pts = euler_family_points()
        done = 0
        while done < 12:
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if euler_degenerate(u) is not None:
                continue
            curve, _ = euler_integral_model(u)
            for p in pts:
                q = specialize_euler(p, u)
                assert on_curve(curve, q)
            done += 1

    def test_degenerate_u(self):
        for u in (0, 1, -1):
            with pytest.raises(DegenerateSpecializationError):
                euler_integral_model(u)


class TestVerifyParametricPoint:
    def test_negative(self):
        n = euler_n_poly()
        one = BivarPoly.const(("u",), 1)
        bad = ParametricPoint(BivarPoly.const(("u",), 0), one, one)
        assert not verify_parametric_point(bad, n)
        # P1 has z = 1; the same x and y with z = 2 is another point, off the curve
        p1 = euler_family_points()[0]
        moved = ParametricPoint(p1.x, p1.y, BivarPoly.const(("u",), 2))
        assert not verify_parametric_point(moved, n)


class TestParametricPoint:
    def test_zero_z_rejected(self):
        one = BivarPoly.const(("u",), 1)
        with pytest.raises(PolyUsageError):
            ParametricPoint(one, one, BivarPoly.const(("u",), 0))

    def test_vanishing_z_is_degenerate(self):
        u = BivarPoly.var(("u",), "u")
        pt = ParametricPoint(u, u, u - 2)
        with pytest.raises(DegenerateSpecializationError, match="vanishes at u = 2"):
            specialize_euler(pt, 2)


class TestIdentitySuite:
    def test_all_pass(self):
        results = identity_suite()
        assert len(results) == 20
        failing = [name for name, ok in results if not ok]
        assert failing == []

    def test_mutation_negative_control(self):
        failing = [name for name, ok in identity_suite(mutate=True) if not ok]
        assert "euler-quadruple-balance" in failing
