import random
from fractions import Fraction
from math import isqrt

import pytest

import biquad.curves
from biquad.arith import ArithDomainError, is_perfect_square
from biquad.curves import (
    Curve,
    CurveUsageError,
    Point,
    TorsionKind,
    add,
    dual_isogeny,
    on_curve,
    scalar_mul,
    torsion_kind,
    transfer_from_associated,
)
from conftest import random_family_point

E17 = Curve(-17)


class TestOnCurve:
    def test_p1(self):
        assert on_curve(E17, Point(E17, Fraction(-1), Fraction(4)))

    def test_p2(self):
        assert on_curve(E17, Point(E17, Fraction(49, 9), Fraction(224, 27)))

    def test_off_curve(self):
        assert not on_curve(E17, Point(E17, Fraction(1), Fraction(1)))

    def test_identity(self):
        assert on_curve(E17, E17.identity())

    def test_point_off_curve_rejected(self):
        with pytest.raises(ArithDomainError, match="not on"):
            E17.point(1, 1)

    def test_singular_rejected(self):
        with pytest.raises(ArithDomainError, match="singular curve b=0"):
            Curve(0)


class TestGroupLaw:
    def test_doubling_oracle(self):
        # tangent slope at (-1, 4): (3x^2 + b)/(2y) = -14/8 = -7/4
        p = E17.point(-1, 4)
        q = add(p, p)
        assert (q.x, q.y) == (Fraction(81, 16), Fraction(423, 64))
        assert on_curve(E17, q)

    def test_identity_neutral(self):
        p = E17.point(-1, 4)
        assert add(p, E17.identity()) == p
        assert add(E17.identity(), p) == p

    def test_two_torsion_doubles_to_identity(self):
        t = E17.point(0, 0)
        assert add(t, t).is_identity

    def test_inverse(self):
        p = E17.point(-1, 4)
        assert add(p, -p).is_identity

    def test_mismatched_curves(self):
        p = E17.point(-1, 4)
        q = Curve(-2).point(-1, 1)
        with pytest.raises(CurveUsageError):
            add(p, q)

    def test_closure_random(self, rng):
        from conftest import family_curve_points

        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            p1, p2 = family_curve_points(m, n)
            p = add(scalar_mul(rng.randint(-2, 2), p1), scalar_mul(rng.randint(-2, 2), p2))
            q = add(scalar_mul(rng.randint(-2, 2), p1), scalar_mul(rng.randint(-2, 2), p2))
            assert on_curve(p1.curve, add(p, q))

    def test_associativity_commutativity(self, rng):
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            from conftest import family_curve_points

            p1, p2 = family_curve_points(m, n)
            t = p1.curve.point(0, 0)
            assert add(p1, p2) == add(p2, p1)
            assert add(add(p1, p2), t) == add(p1, add(p2, t))


class TestScalarMul:
    def test_doubling(self):
        p = E17.point(-1, 4)
        assert scalar_mul(2, p) == add(p, p)
        assert scalar_mul(2, p).x == Fraction(81, 16)

    def test_one(self):
        p = E17.point(-1, 4)
        assert scalar_mul(1, p) == p

    def test_zero_and_negative(self):
        p = E17.point(-1, 4)
        assert scalar_mul(0, p).is_identity
        assert scalar_mul(-3, p) == -scalar_mul(3, p)

    def test_two_torsion(self):
        assert scalar_mul(2, E17.point(0, 0)).is_identity

    def test_consistency_with_repeated_add(self, rng):
        p = random_family_point(rng)
        acc = p.curve.identity()
        for k in range(5):
            assert scalar_mul(k, p) == acc
            acc = add(acc, p)

    def test_no_doubling_past_top_bit(self, monkeypatch):
        p = Curve(-635318657).point(137129, 49914956)
        expected = p
        for _ in range(6):
            expected = add(expected, expected)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return add(a, b)

        monkeypatch.setattr(biquad.curves, "add", counting)
        assert scalar_mul(64, p) == expected
        assert len(calls) == 7  # six doublings, then identity + 64P


class TestTorsion:
    def test_z4(self):
        for t in range(1, 6):  # (2t^2, 4t^3) has order 4, e.g. (8, 32) on b = 64
            assert torsion_kind(4 * t**4) is TorsionKind.Z4

    def test_z2xz2(self):
        assert torsion_kind(-9) is TorsionKind.Z2XZ2

    def test_z2(self):
        assert torsion_kind(-17) is TorsionKind.Z2

    @staticmethod
    def torsion_oracle(b):
        """Torsion group from the integral points of order dividing 4.

        Torsion points are integral (Nagell-Lutz) with y = 0 or y^2 | 4|b|^3,
        and x > 2|b| would give y^2 = x^3 + b*x > 6|b|^3, so |x| <= 2|b|.
        """
        c = Curve(b)
        tors = []
        for x in range(-2 * abs(b), 2 * abs(b) + 1):
            r = x**3 + b * x
            if is_perfect_square(r):
                for y in {isqrt(r), -isqrt(r)}:
                    p = c.point(x, y)
                    if scalar_mul(4, p).is_identity:
                        tors.append(p)
        if any(not scalar_mul(2, p).is_identity for p in tors):
            return TorsionKind.Z4
        return TorsionKind.Z2XZ2 if len(tors) == 3 else TorsionKind.Z2

    def test_against_scalar_mul_oracle(self):
        bs = [b for b in range(-150, 151) if b] + [4 * t**4 for t in range(2, 6)]
        for b in bs:
            assert torsion_kind(b) is self.torsion_oracle(b), b

    def test_zero_rejected(self):
        with pytest.raises(ArithDomainError):
            torsion_kind(0)

    def test_family_always_z2(self):
        for m in range(1, 51):
            for n in range(m, 51):
                N = m**4 + n**4
                assert not is_perfect_square(N)
                assert torsion_kind(-N) is TorsionKind.Z2


class TestAssociatedAndTransfer:
    def test_coefficient(self):
        # y^2 = x^3 + 4N*x maps back to y^2 = x^3 - N*x
        assert transfer_from_associated(Curve(68).identity()).curve == E17
        big = transfer_from_associated(Curve(2541274628).identity())
        assert big.curve == Curve(-635318657)
        with pytest.raises(CurveUsageError):
            transfer_from_associated(Curve(-17).identity())

    def test_double_associated_scaling(self, rng):
        # associated twice is the original scaled by (x, y) -> (4x, 8y) onto
        # y^2 = x^3 + 16b*x, and transferring that back is the 2-isogeny
        # phi(x, y) = (y^2/x^2, y(x^2 - b)/x^2) onto y^2 = x^3 - 4b*x
        for _ in range(10):
            p = random_family_point(rng)
            b = p.curve.b
            q = Curve(16 * b).point(4 * p.x, 8 * p.y)
            r = transfer_from_associated(q)
            phi = (p.y**2 / p.x**2, p.y * (p.x**2 - b) / p.x**2)
            assert r == Curve(-4 * b).point(*phi)

    def test_transfer_known_point(self):
        e4 = Curve(68)
        q = e4.point(18, 84)
        p = transfer_from_associated(q)
        assert (p.x, p.y) == (Fraction(49, 9), Fraction(224, 27))
        assert p.curve == E17

    def test_dual_isogeny_on_ints(self):
        # weighted coordinates: (7056/36^2, 387072/36^3) = (49/9, 224/27)
        assert dual_isogeny(18, 84, 1, 68) == (7056, 387072, 36)

    def test_transfer_kernel(self):
        e4 = Curve(68)
        assert transfer_from_associated(e4.point(0, 0)).is_identity
        assert transfer_from_associated(e4.identity()).is_identity

    def test_isogeny_dual_composition_is_doubling(self, rng):
        # up-transfer then down-transfer equals multiplication by 2 (x only)
        for _ in range(20):
            p = random_family_point(rng)
            e = p.curve
            e4 = Curve(-4 * e.b)
            # up: phi(x, y) = (y^2/x^2, y(x^2 - b)/x^2) lands on e4
            if p.x == 0:
                continue
            X = p.y**2 / p.x**2
            Y = p.y * (p.x**2 - e.b) / p.x**2
            q = Point(e4, X, Y)
            assert on_curve(e4, q)
            r = transfer_from_associated(q)
            assert r.x == scalar_mul(2, p).x


class TestJson:
    def test_round_trip(self):
        p = E17.point(Fraction(49, 9), Fraction(224, 27))
        obj = p.to_json()
        assert obj["curve"] == {"a2": "0", "b": "-17"}
        assert Point.from_json(obj, E17) == p

    def test_identity_encoding(self):
        assert E17.identity().to_json() == {"identity": True}
        assert Point.from_json({"identity": True}, curve=E17).is_identity
