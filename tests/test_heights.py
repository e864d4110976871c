import math
import random
from fractions import Fraction

import pytest
import sympy

from biquad.curves import Curve, add, scalar_mul
from biquad.heights import (
    GramMatrix,
    HeightUsageError,
    _curve_constants,
    _is_torsion,
    canonical_height,
    gram_matrix,
    log_big,
    naive_height,
    regulator_report,
)
from biquad.poly import BivarPoly
from conftest import family_curve_points, random_family_point

E17 = Curve(0, -17)


def doubling_limit_oracle(p, k=6):
    """Independent evaluation: 4^-k * naive_height(2^k p), exact coordinates.

    Its own error is O(4^-k), well under 0.01 for the points used here.
    """
    q = scalar_mul(2**k, p)
    return naive_height(q) / 4**k


class TestNaiveHeight:
    def test_examples(self):
        p = E17.point(Fraction(49, 9), Fraction(224, 27))
        assert naive_height(p) == pytest.approx(math.log(49))
        assert naive_height(E17.point(-1, 4)) == 0.0
        assert naive_height(E17.identity()) == 0.0

    def test_large_denominator(self):
        c = Curve(0, -635318657)
        p = c.point(Fraction(365689129, 9801), Fraction(-5156125463944, 970299))
        assert naive_height(p) == pytest.approx(math.log(365689129))

    def test_log_big_huge(self):
        assert log_big(10**500) == pytest.approx(500 * math.log(10))


class TestCanonicalHeight:
    def test_torsion_and_identity(self):
        assert canonical_height(E17.point(0, 0)).value == 0.0
        assert canonical_height(E17.identity()).value == 0.0

    def test_against_doubling_oracle(self):
        p = E17.point(-1, 4)
        h = canonical_height(p)
        assert h.abs_error <= 1e-3
        assert abs(h.value - doubling_limit_oracle(p)) < 2e-2
        # frozen oracle fixture, k = 6: 4^-6 * log(max parts of x(64 P))
        assert h.value == pytest.approx(1.17218, abs=2e-2)

    def test_oracle_on_larger_point(self):
        c = Curve(0, -635318657)
        p = c.point(137129, 49914956)
        h = canonical_height(p)
        assert abs(h.value - doubling_limit_oracle(p, k=6)) < 5e-2

    def test_quadraticity(self):
        p = E17.point(-1, 4)
        h1 = canonical_height(p).value
        assert abs(canonical_height(scalar_mul(2, p)).value - 4 * h1) <= 2e-3
        assert abs(canonical_height(scalar_mul(3, p)).value - 9 * h1) <= 10e-3

    def test_quadraticity_random(self, rng):
        for _ in range(20):
            p = random_family_point(rng, max_param=4)
            h = canonical_height(p).value
            for k in (2, 3):
                hk = canonical_height(scalar_mul(k, p)).value
                assert abs(hk - k * k * h) <= (k * k + 1) * 1e-3

    def test_parallelogram_law(self, rng):
        done = 0
        while done < 20:
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            p1, p2 = family_curve_points(m, n)
            p = scalar_mul(rng.randint(1, 2), p1)
            q = scalar_mul(rng.randint(1, 2), p2)
            s, d = add(p, q), add(p, -q)
            if s.is_identity or d.is_identity:
                continue
            lhs = (
                canonical_height(s).value
                + canonical_height(d).value
                - 2 * canonical_height(p).value
                - 2 * canonical_height(q).value
            )
            assert abs(lhs) <= 6e-3
            done += 1

    def test_torsion_vanishing_random_curves(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 20), rng.randint(1, 20)
            c = Curve(0, -(m**4 + n**4))
            assert canonical_height(c.point(0, 0)).value <= 1e-3

    def test_a2_rejected(self):
        c = Curve(1, -17)
        with pytest.raises(HeightUsageError):
            canonical_height(c.identity())


class TestIsTorsion:
    @staticmethod
    def check(p):
        assert _is_torsion(p) == scalar_mul(4, p).is_identity, p

    def test_family_points_and_multiples(self):
        for m in range(1, 5):
            for n in range(1, 5):
                p1, p2 = family_curve_points(m, n)
                t = p1.curve.point(0, 0)
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        p = add(scalar_mul(a, p1), scalar_mul(b, p2))
                        for q in (p, add(p, t)):
                            if not q.is_identity:
                                self.check(q)

    def test_full_two_torsion(self):
        for c in range(1, 8):
            curve = Curve(0, -c * c)
            for x in (0, c, -c):
                self.check(curve.point(x, 0))
        self.check(Curve(0, -25).point(-4, 6))  # rank-1 point of y^2 = x^3 - 25x

    def test_order_four(self):
        for t in range(1, 6):
            curve = Curve(0, 4 * t**4)
            for y in (4 * t**3, -4 * t**3):
                p = curve.point(2 * t * t, y)
                self.check(p)
                assert _is_torsion(p) and not scalar_mul(2, p).is_identity
            self.check(curve.point(0, 0))


class TestHeightPairing:
    def test_identity_pairing(self):
        p = E17.point(-1, 4)
        pairing = gram_matrix((p, E17.identity())).entries[0][1]
        assert pairing == pytest.approx(0.0, abs=1e-9)

    def test_self_pairing_is_height(self):
        p = E17.point(-1, 4)
        assert gram_matrix((p, p)).entries[0][1] == pytest.approx(
            canonical_height(p).value, abs=1e-9
        )

    def test_negation_pairing(self):
        p = E17.point(-1, 4)
        assert gram_matrix((p, -p)).entries[0][1] == pytest.approx(
            -canonical_height(p).value, abs=1e-9
        )

    def test_different_curves_rejected(self):
        with pytest.raises(HeightUsageError):
            gram_matrix((E17.point(-1, 4), Curve(0, -2).point(-1, 1)))


class TestRegulator:
    def test_rank2_witness(self):
        p1, p2 = family_curve_points(2, 1)
        assert gram_matrix([p1, p2]).determinant() > 0.05

    def test_rank4_witness(self):
        from biquad.families import euler_family_points, specialize_euler

        pts = [specialize_euler(p, 2) for p in euler_family_points()]
        rep = regulator_report(pts)
        assert float(rep["determinant"]) > 0.05
        assert float(rep["error_bound"]) < 0.01
        assert rep["independent"]

    def test_dependent_rows(self):
        p = E17.point(-1, 4)
        gm = gram_matrix([p, scalar_mul(2, p)])
        assert abs(gm.determinant()) <= max(0.01, gm.det_error_bound())

    def test_repeated_point(self):
        p = E17.point(-1, 4)
        rep = regulator_report([p, p])
        assert not rep["independent"]

    def test_empty_rejected(self):
        with pytest.raises(HeightUsageError):
            gram_matrix([])

    def test_mixed_curves_rejected(self):
        p1, p2 = family_curve_points(2, 1)
        with pytest.raises(HeightUsageError):
            gram_matrix([p1, p2, Curve(0, -2).point(-1, 1)])

    def test_gram_symmetric(self):
        p1, p2 = family_curve_points(2, 1)
        gm = gram_matrix([p1, p2])
        assert gm.entries[0][1] == gm.entries[1][0]

    def test_report_json_shape(self):
        p1, p2 = family_curve_points(2, 1)
        rep = regulator_report([p1, p2])
        assert set(rep) >= {
            "points",
            "gram",
            "determinant",
            "error_bound",
            "independent",
            "rank_lower_bound",
        }
        assert rep["rank_lower_bound"] == 2


class TestCurveConstants:
    def test_bezout_identities(self):
        xb = ("x", "b")
        x, b = BivarPoly.var(xb, "x"), BivarPoly.var(xb, "b")
        f, g = (x**2 - b) ** 2, 4 * x * (x**2 + b)
        assert 4 * (3 * x**2 + 4 * b) * f - x * (3 * x**2 - 5 * b) * g == 16 * b**3
        # reversed forms in y = v/u, written in x
        fr, gr = (1 - b * x**2) ** 2, 4 * x * (1 + b * x**2)
        assert 4 * (3 * b * x**2 + 4) * fr - b * x * (3 * b * x**2 - 5) * gr == 16

    @staticmethod
    def extgcd_oracle(b):
        """(D, log D, log_bound) from sympy's extended gcd of the duplication
        forms and their reversals, with denominators cleared by an lcm."""
        x = sympy.Symbol("x")
        d_const, bounds = 1, []
        for f, g in (
            ([1, 0, -2 * b, 0, b * b], [4, 0, 4 * b, 0]),
            ([b * b, 0, -2 * b, 0, 1], [4 * b, 0, 4, 0]),
        ):
            f, g = (sympy.Poly(p, x, domain="QQ") for p in (f, g))
            s, t, h = f.gcdex(g)
            assert h.as_expr() == 1
            coeffs = s.all_coeffs() + t.all_coeffs()
            r = math.lcm(*(int(sympy.Rational(c).q) for c in coeffs))
            k = sum(abs(int(c * r)) for c in coeffs)
            d_const *= r
            bounds.append(Fraction(r, k))
        c_low = min(bounds)
        c_up = max((1 + abs(b)) ** 2, 4 * (1 + abs(b)))
        log_bound = max(
            log_big(c_up), abs(log_big(c_low.numerator) - log_big(c_low.denominator))
        )
        return d_const, log_big(d_const), log_bound

    def test_closed_form_matches_extgcd_small(self):
        for b in range(-300, 301):
            if b:
                assert _curve_constants(b) == self.extgcd_oracle(b), b

    def test_closed_form_matches_extgcd_large(self):
        rng = random.Random(20261017)
        for _ in range(40):
            b = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randint(2, 40))
            assert _curve_constants(b) == self.extgcd_oracle(b), b
