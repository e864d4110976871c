from fractions import Fraction

import pytest

from biquad.poly import BivarPoly, PolyUsageError, RatFunc, univariate

MN = ("m", "n")


def test_add_example():
    m4 = BivarPoly(MN, {(4, 0): 1})
    n4 = BivarPoly(MN, {(0, 4): 1})
    assert m4 + n4 == BivarPoly(MN, {(4, 0): 1, (0, 4): 1})


def test_square_expansion():
    one_plus_u = univariate("u", [1, 1])
    assert one_plus_u**2 == univariate("u", [1, 2, 1])


def test_pow_degree():
    p = univariate("u", [1, 0, 0, 0, 0, 0, 0, 2])  # degree 7
    assert (p**4).degree() == 28


def test_zero_coefficients_dropped():
    p = univariate("u", [1, 1]) - univariate("u", [0, 1])
    assert p.coeffs == {(0,): 1}
    assert (p - 1).is_zero


def test_mixed_contexts_rejected():
    with pytest.raises(PolyUsageError):
        univariate("u", [1]) + BivarPoly(MN, {(0, 0): 1})


def test_evaluate():
    p = BivarPoly(MN, {(2, 1): 3, (0, 0): -1})
    assert p.evaluate(2, Fraction(1, 2)) == 5


def test_homogeneity():
    p = BivarPoly(MN, {(4, 0): 1, (0, 4): 1})
    assert p.is_homogeneous(4)
    assert not (p + 1).is_homogeneous()


def test_substitute_last():
    p = BivarPoly(MN, {(2, 1): 3, (1, 2): 1})
    q = p.substitute_last(2)
    assert q == BivarPoly(("m",), {(2,): 6, (1,): 4})


def test_json_round_trip():
    p = BivarPoly(MN, {(2, 1): -3, (0, 0): 7})
    assert BivarPoly.from_json(MN, p.to_json()) == p
    assert p.to_json() == [
        {"exp": [0, 0], "coef": "7"},
        {"exp": [2, 1], "coef": "-3"},
    ]


class TestRatFunc:
    def test_cross_multiplied_equality(self):
        u = BivarPoly.var(("u",), "u")
        one = BivarPoly.const(("u",), 1)
        a = RatFunc(u * u - one, u - one)   # (u^2-1)/(u-1)
        b = RatFunc(u + one)                # u+1
        assert a == b

    def test_canonical_sign_and_content(self):
        u = BivarPoly.var(("u",), "u")
        r = RatFunc(2 * u, BivarPoly.const(("u",), -4))
        assert r.den.leading_coeff() > 0
        assert r.num.content() == 1 or r.den.content() == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(PolyUsageError):
            RatFunc(BivarPoly.const(("u",), 1), BivarPoly.zero(("u",)))

    def test_arithmetic(self):
        u = BivarPoly.var(("u",), "u")
        r = RatFunc(BivarPoly.const(("u",), 1), u)
        assert (r + r) == RatFunc(BivarPoly.const(("u",), 2), u)
        assert (r * r) == RatFunc(BivarPoly.const(("u",), 1), u * u)
        assert (r - r).is_zero
        assert (r**-2) == RatFunc(u * u)

    def test_evaluate_pole(self):
        u = BivarPoly.var(("u",), "u")
        r = RatFunc(BivarPoly.const(("u",), 1), u)
        assert r.evaluate(4) == Fraction(1, 4)
        with pytest.raises(ZeroDivisionError):
            r.evaluate(0)
