from fractions import Fraction

import pytest

from biquad.poly import BivarPoly, PolyUsageError, binary_form

MN = ("m", "n")
UW = ("u", "w")


def test_add_example():
    m4 = BivarPoly(MN, {(4, 0): 1})
    n4 = BivarPoly(MN, {(0, 4): 1})
    assert m4 + n4 == BivarPoly(MN, {(4, 0): 1, (0, 4): 1})


def test_square_expansion():
    w_plus_u = binary_form(UW, [1, 1])
    assert w_plus_u**2 == binary_form(UW, [1, 2, 1])


def test_binary_form_coefficients_low_degree_first():
    assert binary_form(UW, [5, 0, 7]) == BivarPoly(UW, {(0, 2): 5, (2, 0): 7})
    assert binary_form(UW, [0, 1, 0]).is_homogeneous(2)


def test_pow_degree():
    p = binary_form(UW, [1, 0, 0, 0, 0, 0, 0, 2])  # degree 7
    p4 = p**4
    assert max(p4.coeffs) == (28, 0)
    assert p4.coeffs[(28, 0)] == 2**4
    assert p4.is_homogeneous(28)


def test_zero_coefficients_dropped():
    p = binary_form(UW, [1, 1]) - binary_form(UW, [0, 1])
    assert p.coeffs == {(0, 1): 1}
    assert (p - BivarPoly.var(UW, "w")).is_zero


def test_mixed_contexts_rejected():
    with pytest.raises(PolyUsageError):
        binary_form(UW, [1]) + BivarPoly(MN, {(0, 0): 1})


def test_evaluate():
    p = BivarPoly(MN, {(2, 1): 3, (0, 0): -1})
    assert p.evaluate(2, Fraction(1, 2)) == 5


def test_evaluate_is_exact_for_ints_and_fractions():
    p = binary_form(MN, [1, 0, 0, 0, 1])
    v = p.evaluate(10**20, 3)
    assert type(v) is int and v == 10**80 + 81
    assert p.evaluate(Fraction(1, 2), 1) == Fraction(17, 16)


def test_homogeneity():
    p = BivarPoly(MN, {(4, 0): 1, (0, 4): 1})
    assert p.is_homogeneous(4)
    assert not (p + 1).is_homogeneous()
