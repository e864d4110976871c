import ast
import importlib
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, strategies as st

import biquad.cli
import biquad.families
from biquad.curves import Curve, on_curve, transfer_from_associated
from biquad.families import (
    A,
    B,
    EULER_FACTORS,
    EULER_N,
    F1,
    F2,
    F3,
    F4,
    M4N4,
    PRINTED_TRANSFER_X,
    SOLUTIONS,
    T10,
    Y1FAC,
    DegenerateSpecializationError,
    ParametricPoint,
    euler_associated_points,
    euler_degenerate,
    euler_family_points,
    euler_n,
    euler_quadruple,
    general_family_points,
    identity_suite,
    same_x,
    specialize_euler,
    specialize_general,
    verify_parametric_point,
)
from biquad.poly import BinaryForm, PolyUsageError
from conftest import euler_parts_oracle, specialize_on


class TestEulerQuadruple:
    def test_values_at_2_1(self):
        vals = [p.evaluate(2, 1) for p in euler_quadruple()]
        assert vals == [158, -59, 134, 133]
        assert 158**4 + 59**4 == 134**4 + 133**4 == 635318657

    def test_degenerate_at_1_1(self):
        vals = [p.evaluate(1, 1) for p in euler_quadruple()]
        assert vals == [4, -2, -2, 4]
        assert euler_degenerate(1) is not None

    def test_representations_coincide_only_at_degenerate_u(self):
        # the lemma in euler_degenerate: a = +-c or a = +-d, or b = +-c or
        # b = +-d, at a rational u = p/q (q >= 1) only where u is -1, 0 or 1
        u = sympy.symbols("u")
        a, b, c, d = euler_quadruple()
        roots = {
            name: set(sympy.roots(sympy.Poly(f.coeffs[::-1], u), filter="Q"))
            for name, f in [
                ("A+C", a + c), ("A-C", a - c), ("A+D", a + d), ("A-D", a - d),
                ("B+C", b + c), ("B-C", b - c), ("B+D", b + d), ("B-D", b - d),
            ]
        }
        assert roots == {
            "A+C": {0}, "A-C": {0}, "A+D": {-1}, "A-D": {1},
            "B+C": {-1}, "B-C": {1}, "B+D": set(), "B-D": {0},
        }

    def test_homogeneous_degree_7(self):
        for p in euler_quadruple():
            assert p.degree == 7

    def test_scaling_consistency(self):
        # homogeneity exercised through integer scalings of (u, w)
        for lam in (2, 3):
            for p in euler_quadruple():
                assert p.evaluate(2 * lam, lam) == lam**7 * p.evaluate(2, 1)


class TestEulerN:
    def test_at_2(self):
        assert euler_n(2) == 635318657

    def test_symbolic_equals_sums(self):
        a, b, c, d = euler_quadruple()
        n = EULER_N
        assert (n - (a**4 + b**4)).is_zero
        assert (n - (c**4 + d**4)).is_zero

    def test_at_0_degenerate(self):
        assert euler_n(0) == 1
        assert euler_degenerate(0) is not None

    def test_at_1(self):
        # 8 * 1 * 2 * 17, matching 4^4 + (-2)^4
        assert euler_n(1) == 272

    def test_factors_even(self):
        for f in EULER_FACTORS:
            assert not any(f.coeffs[1::2])

    def test_factors_are_forms_of_degree_28(self):
        assert [f.degree for f in EULER_FACTORS] == [4, 8, 8, 8]
        assert EULER_N.degree == 28

    def test_value_is_exact_fraction(self):
        assert euler_n(Fraction(1, 2)) == Fraction(635318657, 2**28)
        assert isinstance(euler_n(2), Fraction)

    def test_sums_of_squares(self):
        # the identities behind N(p, q) > 0 in euler_degenerate
        u = BinaryForm([0, 1])
        w = BinaryForm([1, 0])
        _, f2, f3, _ = EULER_FACTORS
        assert f2 == (u**4 - w**4) ** 2 + u**4 * w**4
        assert f3 == (u**4 - 2 * u**2 * w**2) ** 2 + (2 * u**2 * w**2 - w**4) ** 2

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_factors_positive(self, p, q):
        assume((p, q) != (0, 0))
        assert all(f.evaluate(p, q) > 0 for f in EULER_FACTORS)

    def test_parts_degenerate_rejected(self):
        with pytest.raises(DegenerateSpecializationError):
            specialize_euler(euler_family_points(), 1)


class TestGeneralFamily:
    def test_points_on_curve_symbolically(self):
        p1, p2 = general_family_points()
        n = M4N4
        assert verify_parametric_point(p1, -n)
        assert verify_parametric_point(p2, -n)

    def test_specialize_2_1(self):
        curve, (q1, q2), parts = specialize_general(general_family_points(), 2, 1)
        assert curve == Curve(-17) == q1.curve == q2.curve
        assert parts == [17]
        assert (q1.x, q1.y) == (Fraction(-1), Fraction(4))
        assert (q2.x, q2.y) == (Fraction(49, 9), Fraction(224, 27))

    def test_specialize_1_1(self):
        p1, _ = general_family_points()
        curve, [q], _ = specialize_general([p1], 1, 1)
        assert curve.b == q.curve.b == -2
        assert (q.x, q.y) == (-1, 1)

    def test_degenerate_m_plus_n_zero(self):
        _, p2 = general_family_points()
        with pytest.raises(DegenerateSpecializationError):
            specialize_general([p2], 1, -1)

    @given(st.integers(-5000, 5000), st.integers(-5000, 5000))
    def test_p2_closed_form(self, m, n):
        """P2 is the image under the dual isogeny of the d = 2 row's lift; at
        each (m, n) it is the paper's point, y-sign included (a flipped H
        keeps every on-curve identity but fails here)."""
        assume(m * n * (m + n) != 0 and math.gcd(m, n) == 1)
        _, [p2], _ = specialize_general(general_family_points()[1:], m, n)
        s = m * m + m * n + n * n
        y = Fraction(m * n * s * (2 * m * m + 3 * m * n + 2 * n * n), (m + n) ** 3)
        assert (p2.x, p2.y) == (Fraction(s * s, (m + n) ** 2), y)

    def test_p2_x_is_a_square(self):
        _, p2 = general_family_points()
        for m, n in [(2, 1), (3, 2), (5, 1)]:
            x = Fraction(p2.x.evaluate(m, n), p2.z.evaluate(m, n) ** 2)
            r = Fraction(m * m + m * n + n * n, m + n)
            assert x == r * r


class TestEulerFamilyPoints:
    def test_symbolic_on_curve(self):
        n = EULER_N
        for p in euler_family_points():
            assert verify_parametric_point(p, -n)

    def test_associated_points_symbolic(self):
        n = EULER_N
        q1, q2 = euler_associated_points()
        assert verify_parametric_point(q1, 4 * n)
        assert verify_parametric_point(q2, 4 * n)
        assert not verify_parametric_point(q1, -n)

    def test_transferred_x_match_printed(self):
        p1, p2, p3, p4 = euler_family_points()
        x3, x4 = PRINTED_TRANSFER_X
        assert same_x(p3, *x3)
        assert same_x(p4, *x4)
        assert not same_x(p3, *x4)

    def test_p3_p4_are_the_point_map_of_q2_q1(self, rng):
        # the forms of P3 and P4 and transfer_from_associated share one
        # dual isogeny; at each u both give the same points
        q1, q2 = euler_associated_points()
        for u in _non_degenerate_u(rng, 20):
            curve, (_, _, p3, p4), _ = specialize_euler(euler_family_points(), u)
            associate = Curve(-4 * curve.b)
            images = [
                transfer_from_associated(specialize_on(associate, q, u.numerator, u.denominator))
                for q in (q2, q1)
            ]
            assert images == [p3, p4]

    def test_specialize_u2(self):
        expected = [
            (Fraction(137129), Fraction(49914956)),
            (Fraction(-24964), Fraction(549998)),
            (Fraction(1766241, 16), Fraction(2285325807, 64)),
            (Fraction(365689129, 9801), Fraction(5156125463944, 970299)),
        ]
        curve, qs, _ = specialize_euler(euler_family_points(), 2)
        assert curve.b == -635318657
        for q, (ex, ey) in zip(qs, expected, strict=True):
            assert q.curve == curve
            assert q.x == ex
            assert abs(q.y) == ey  # y-sign is a curve automorphism

    def test_x1_at_2_factors(self):
        p1 = euler_family_points()[0]
        assert p1.z == BinaryForm([1, 0])
        assert p1.x.evaluate(2, 1) == 241 * 569 == 137129

    def test_denominators_at_2(self):
        _, _, p3, p4 = euler_family_points()
        x3 = Fraction(p3.x.evaluate(2, 1), p3.z.evaluate(2, 1) ** 2)
        x4 = Fraction(p4.x.evaluate(2, 1), p4.z.evaluate(2, 1) ** 2)
        assert x3.denominator == 16
        assert x4.denominator == 9801 == 99**2

    def test_round_trip_random_specializations(self, rng):
        n = EULER_N
        pts = euler_family_points()
        done = 0
        while done < 12:
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if euler_degenerate(u) is not None:
                continue
            curve, qs, _ = specialize_euler(pts, u)
            for q in qs:
                assert on_curve(curve, q)
            done += 1

    def test_degenerate_u(self):
        for u in (0, 1, -1):
            with pytest.raises(DegenerateSpecializationError):
                specialize_euler(euler_family_points(), u)


def _reference_specialize(pt: ParametricPoint, u: Fraction):
    """Oracle for ``specialize_euler``: (b, x, y) from the forms at (u, 1)
    over Fraction, moved to the integral model by b -> q^28 b and
    (x, y) -> (q^14 x, q^21 y)."""
    one = Fraction(1)
    x, y, z = (f.evaluate(u, one) for f in (pt.x, pt.y, pt.z))
    q = u.denominator
    return -EULER_N.evaluate(u, one) * q**28, q**14 * x / z**2, q**21 * y / z**3


def _non_degenerate_u(rng, count):
    us = []
    while len(us) < count:
        u = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if euler_degenerate(u) is None and u not in us:
            us.append(u)
    return us


class TestEulerIntegralModel:
    def test_matches_rescaled_rational_evaluation(self, rng):
        pts = euler_family_points()
        for u in _non_degenerate_u(rng, 200):
            curve, qs, parts = specialize_euler(pts, u)
            assert parts == euler_parts_oracle(u.numerator, u.denominator)
            assert math.prod(parts) == -curve.b
            for p, q in zip(pts, qs, strict=True):
                assert q.curve == curve
                assert (q.curve.b, q.x, q.y) == _reference_specialize(p, u)

    def test_p2_p4_are_the_general_points_at_b_a(self, rng):
        _, p2, _, p4 = euler_family_points()
        g1, g2 = general_family_points()
        for u in _non_degenerate_u(rng, 40):
            a, b, _, _ = (f.evaluate(u.numerator, u.denominator) for f in euler_quadruple())
            _, euler_points, _ = specialize_euler([p2, p4], u)
            _, general_points, _ = specialize_general([g1, g2], b, a)
            assert euler_points == general_points


class TestVerifyParametricPoint:
    def test_negative(self):
        n = EULER_N
        one = BinaryForm([1])
        bad = ParametricPoint(BinaryForm([0]), one, one)
        assert not verify_parametric_point(bad, -n)
        # P1 has z = w; the same x and y with z = 2w is another point, off the curve
        p1 = euler_family_points()[0]
        moved = ParametricPoint(p1.x, p1.y, 2 * p1.z)
        assert not verify_parametric_point(moved, -n)


class TestParametricPoint:
    def test_zero_z_rejected(self):
        one = BinaryForm([1])
        with pytest.raises(PolyUsageError):
            ParametricPoint(one, one, BinaryForm([0]))

    def test_vanishing_z_is_degenerate(self):
        u = BinaryForm([0, 1])
        w = BinaryForm([1, 0])
        pt = ParametricPoint(u, u, u - 2 * w)
        with pytest.raises(DegenerateSpecializationError, match="vanishes at u = 2"):
            specialize_euler([pt], 2)


def test_one_pair_of_variables():
    """(m, n) and (u, w) name the same two forms by position."""
    fam = biquad.families
    assert not any(hasattr(fam, name) for name in ("UW", "MN", "_ONE_MN", "_ONE_UW"))
    assert fam.M is fam.U and fam.N is fam.W
    assert (fam.U, fam.W) == (BinaryForm([0, 1]), BinaryForm([1, 0]))


class TestSolutionTable:
    def test_unchanged_points_keep_their_forms(self):
        """General P1, Euler P1 and P2, Q1 and Q2 are the lifts of their rows
        and equal, as forms, the points written out by hand."""
        u, w = m, n = BinaryForm([0, 1]), BinaryForm([1, 0])
        one, h = BinaryForm([1]), A + B
        p1, p2, _, _ = euler_family_points()
        assert general_family_points()[0] == ParametricPoint(-(n**2), m**2 * n, one)
        assert p1 == ParametricPoint(F2 * F4, u**2 * Y1FAC * F2 * F4, w)
        assert p2 == ParametricPoint(-(A**2), A * B**2, one)
        assert euler_associated_points() == (
            ParametricPoint(2 * h**2, 4 * h * (A**2 + A * B + B**2), one),
            ParametricPoint(4 * u**2 * F2 * F3, 4 * u * F2 * F3 * T10, w**2),
        )

    def test_row_products_are_the_curve_coefficients(self):
        """d*e = -N on the curve and 4N on the associated curve, as forms."""
        for name, (d, e, *_) in SOLUTIONS.items():
            n = M4N4 if name.startswith("general-") else EULER_N
            assert d * e == (4 * n if name.endswith("-associated") else -n), name

    def test_one_row_feeds_its_identity_and_its_point(self, monkeypatch):
        """A wrong H in one row breaks its space identity and its point."""
        d, e, u, v, h = SOLUTIONS["euler-space-d-f2f4"]
        with monkeypatch.context() as patch:
            patch.setitem(SOLUTIONS, "euler-space-d-f2f4", (d, e, u, v, h + v**8))
            euler_family_points.cache_clear()
            try:
                failing = [name for name, ok in identity_suite() if not ok]
            finally:
                euler_family_points.cache_clear()
        assert failing == ["euler-p1-on-curve", "euler-space-d-f2f4"]

    def test_points_only_from_lift_and_transfer(self):
        """Every ParametricPoint(...) call in families sits inside _lift or
        _transfer: a point written out by hand would copy a table row."""
        tree = ast.parse(Path(biquad.families.__file__).read_text())
        helpers = [f for f in tree.body if getattr(f, "name", None) in ("_lift", "_transfer")]

        def calls(node):
            return sorted(
                n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "ParametricPoint"
            )

        assert len(helpers) == 2 and all(calls(f) for f in helpers)
        assert calls(tree) == sorted(line for f in helpers for line in calls(f))


@pytest.mark.parametrize(
    "module, owners",
    [(biquad.families, ["_specialize", "euler_n"]), (biquad.cli, ["_check_n_digits"])],
)
def test_n_evaluated_in_one_place(module, owners):
    """Every .evaluate( call in families sits in _specialize, which evaluates
    a family's factor tuple, or in euler_n, which evaluates EULER_N; in cli
    it sits in _check_n_digits.  The getters of N's forms are gone."""
    tree = ast.parse(Path(module.__file__).read_text())
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def calls(node):
        return sorted(
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "evaluate"
        )

    assert all(calls(defs[name]) for name in owners)
    assert calls(tree) == sorted(line for name in owners for line in calls(defs[name]))
    gone = ("general_n_poly", "euler_n_poly", "euler_n_factors", "printed_transfer_x")
    submodules = pkgutil.iter_modules(biquad.__path__, "biquad.")
    for mod in [biquad, *(importlib.import_module(m.name) for m in submodules)]:
        assert not any(hasattr(mod, name) for name in gone), mod.__name__


class TestIdentitySuite:
    def test_all_pass(self):
        results = identity_suite()
        assert len(results) == 20
        failing = [name for name, ok in results if not ok]
        assert failing == []

    def test_mutation_negative_control(self):
        failing = [name for name, ok in identity_suite(mutate=True) if not ok]
        assert failing == ["euler-quadruple-balance", "euler-n-equals-a4-plus-b4"]


class TestParametricPointCache:
    def test_same_object(self):
        assert euler_family_points() is euler_family_points()
        assert general_family_points() is general_family_points()

    def test_mutate_after_cache(self, capsys):
        from biquad.cli import main

        euler_family_points(), general_family_points()
        assert main(["verify-identities", "--mutate"]) == 1
        doc = json.loads(capsys.readouterr().out)
        failing = [row["name"] for row in doc["identities"] if not row["pass"]]
        assert failing == ["euler-quadruple-balance", "euler-n-equals-a4-plus-b4"]
        # the perturbed A stays inside the suite: the cached points are intact
        assert all(ok for _, ok in identity_suite())
