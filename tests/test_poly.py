from fractions import Fraction

import pytest

from biquad.poly import BivarPoly, PolyUsageError, univariate

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
    p4 = p**4
    assert max(p4.coeffs) == (28,)
    assert p4.coeffs[(28,)] == 2**4


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
