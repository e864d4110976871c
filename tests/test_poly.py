from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biquad.poly import BinaryForm, PolyUsageError

coefficients = st.integers(-(10**6), 10**6)
values = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)


def draw_form(data, d):
    return BinaryForm(data.draw(st.lists(coefficients, min_size=d + 1, max_size=d + 1)))


def written_out(coeffs, s, t):
    d = len(coeffs) - 1
    return sum(c * s**i * t ** (d - i) for i, c in enumerate(coeffs))


@given(st.data())
def test_ring_operations_match_values(data):
    d, e = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    f, g, h = draw_form(data, d), draw_form(data, d), draw_form(data, e)
    s, t = data.draw(values), data.draw(values)
    k = data.draw(st.integers(0, 4))
    fv, gv, hv = f.evaluate(s, t), g.evaluate(s, t), h.evaluate(s, t)
    assert fv == written_out(f.coeffs, s, t)
    assert (f + g).evaluate(s, t) == fv + gv
    assert (f - g).evaluate(s, t) == fv - gv
    assert (f * h).evaluate(s, t) == fv * hv
    assert (f**k).evaluate(s, t) == fv**k


def test_add_example():
    m4 = BinaryForm([0, 0, 0, 0, 1])
    n4 = BinaryForm([1, 0, 0, 0, 0])
    assert (m4 + n4).coeffs == (1, 0, 0, 0, 1)


def test_square_expansion():
    w_plus_u = BinaryForm([1, 1])
    assert w_plus_u**2 == BinaryForm([1, 2, 1])


def test_coefficients_low_degree_first():
    # 5*w^2 + 7*u^2
    f = BinaryForm([5, 0, 7])
    assert f == 5 * BinaryForm([1, 0]) ** 2 + 7 * BinaryForm([0, 1]) ** 2
    assert BinaryForm([0, 1]).coeffs == (0, 1)
    assert BinaryForm([1, 0]).coeffs == (1, 0)


def test_pow_degree():
    p = BinaryForm([1, 0, 0, 0, 0, 0, 0, 2])  # degree 7
    p4 = p**4
    assert p4.degree == 28
    assert p4.coeffs[28] == 2**4
    assert p4.coeffs[0] == 1


def test_cancellation_gives_zero_form():
    p = BinaryForm([1, 1]) - BinaryForm([0, 1])
    assert p.coeffs == (1, 0)
    zero = p - BinaryForm([1, 0])
    assert zero.is_zero and zero.coeffs == (0,) and zero == 0


def test_zero_form_adds_to_any_degree():
    f = BinaryForm([1, 2, 3])
    zero = BinaryForm([0])
    assert f + zero == f == zero + f
    assert f - zero == f


def test_mixed_degrees_rejected():
    f = BinaryForm([1, 0, 1])
    with pytest.raises(PolyUsageError):
        f + BinaryForm([1, 1])
    with pytest.raises(PolyUsageError):
        f - BinaryForm([1, 0, 0, 1])
    with pytest.raises(PolyUsageError):
        f + 1


def test_negative_power_rejected():
    with pytest.raises(PolyUsageError):
        BinaryForm([1, 1]) ** -1


def test_evaluate():
    p = BinaryForm([-1, 0, 3, 0])  # 3*m^2*n - n^3
    assert p.evaluate(2, Fraction(1, 2)) == Fraction(47, 8)


def test_evaluate_is_exact_for_ints_and_fractions():
    p = BinaryForm([1, 0, 0, 0, 1])
    v = p.evaluate(10**20, 3)
    assert type(v) is int and v == 10**80 + 81
    assert p.evaluate(Fraction(1, 2), 1) == Fraction(17, 16)


def test_degree_is_length_minus_one():
    p = BinaryForm([1, 0, 0, 0, 1])
    assert p.degree == 4
    assert (p * p).degree == 8
    assert BinaryForm([3]).degree == 0


def test_a_form_is_its_coefficients():
    """No variable names: a form equals any form or int with its coefficients."""
    assert BinaryForm.__slots__ == ("coeffs",)
    assert not any(hasattr(BinaryForm, name) for name in ("vars", "const", "var"))
    assert repr(BinaryForm([1, 0, 0, 0, 1])) == "BinaryForm([1, 0, 0, 0, 1])"
    assert BinaryForm([2]) == 2 and BinaryForm([0, 0]) == 0


def test_only_int_operands():
    """A form takes ints and forms as operands and nothing else, so no
    operator puts a non-integer coefficient into a form."""
    f = BinaryForm([1, 0, 2])
    for op in (
        lambda: f + 1.5,
        lambda: f - 0.5,
        lambda: f * Fraction(1, 2),
        lambda: Fraction(1, 2) * f,
    ):
        with pytest.raises(TypeError):
            op()
    assert (f == "x") is False
    assert f * 2 == 2 * f == BinaryForm([2, 0, 4])
