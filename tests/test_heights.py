import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import biquad.heights
from biquad.arith import factorize
from biquad.curves import Curve, add, scalar_mul
from biquad.heights import (
    _TARGET,
    GramMatrix,
    HeightUsageError,
    HeightValue,
    _curve_constants,
    _green,
    _is_torsion,
    _part,
    canonical_height,
    gram_matrix,
    log_big,
    naive_height,
    regulator_report,
)
from conftest import family_curve_points, random_family_point

E17 = Curve(-17)
ORACLE_DPS = 120  # digits of the oracles' mpmath Green loop


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
        c = Curve(-635318657)
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
        c = Curve(-635318657)
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
            c = Curve(-(m**4 + n**4))
            assert canonical_height(c.point(0, 0)).value <= 1e-3


def oracle_n_iter(b):
    _, log_d, log_bound = _curve_constants(b)
    worst = max(log_d, log_bound)
    n_iter = max(8, math.ceil(math.log(worst / (3 * _TARGET)) / math.log(4)))
    return min(n_iter, 60)


def oracle_green(u0, v0, b, n_iter, dps=ORACLE_DPS):
    """The Green's-function loop by normalized iteration in mpmath at dps digits."""
    with mpmath.workdps(dps):
        au = mpmath.mpf(u0)
        av = mpmath.mpf(v0)
        s = max(abs(au), av)
        green = mpmath.log(s)
        au, av = au / s, av / s
        bb = mpmath.mpf(b)
        for n in range(1, n_iter + 1):
            fu = (au * au - bb * av * av) ** 2
            gv2 = 4 * au * av * (au * au + bb * av * av)
            s = max(abs(fu), abs(gv2))
            green += mpmath.log(s) / mpmath.mpf(4) ** n
            au, av = fu / s, gv2 / s
        return float(green)


def full_modulus_oracle(p):
    """canonical_height with the gcd residues carried modulo D^(n_iter + 1),
    the modulus that needs no check, and the Green loop in mpmath;
    returns (HeightValue, [g_1, ..., g_n])."""
    if p.is_identity or _is_torsion(p):
        return HeightValue(0.0, 0.0), []
    b = p.curve.b
    d_const, log_d, log_bound = _curve_constants(b)
    n_iter = oracle_n_iter(b)
    u0, v0 = p.x.numerator, p.x.denominator

    mod = d_const ** (n_iter + 1)
    a_res, b_res = u0 % mod, v0 % mod
    gcd_sum, gs = 0.0, []
    for j in range(1, n_iter + 1):
        fv = (a_res * a_res - b * b_res * b_res) ** 2 % mod
        gv = 4 * a_res * b_res * (a_res * a_res + b * b_res * b_res) % mod
        g = math.gcd(math.gcd(fv % d_const, gv % d_const), d_const)
        gs.append(g)
        if g > 1:
            gcd_sum += log_big(g) / 4**j
        mod //= g
        a_res, b_res = (fv // g) % mod, (gv // g) % mod
    gcd_tail = log_d * 4.0**-n_iter / 3.0

    green_f = oracle_green(u0, v0, b, n_iter)
    green_tail = log_bound * 4.0**-n_iter / 3.0

    value = green_f - gcd_sum
    err = gcd_tail + green_tail + 1e-20 * max(1.0, abs(value))
    return HeightValue(value, err), gs


def passes(gs, d_const):
    """Steps done by each pass of the loop in canonical_height: from D^2, the
    exponent doubled after each pass that loses D from its modulus.  The
    loop carries only the part d_j of D that can still divide a g, and its
    check on d_j fails at the same steps (module docstring, "Precision")."""
    k, done = 2, []
    while True:
        mod, j = d_const**k, 0
        while j < len(gs) and mod % d_const == 0:
            mod //= gs[j]
            j += 1
        done.append(j)
        if j == len(gs):
            return done
        k = min(2 * k, len(gs) + 1)


def euler_gram_points(u):
    """The Euler family points at u and their sums P_i + P_j, i <= j: the
    points whose heights make up the Gram matrix."""
    from biquad.families import euler_family_points, specialize_euler

    _, pts, _ = specialize_euler(euler_family_points(), u)
    sums = [add(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))]
    return pts, sums


@st.composite
def points_on_lines(draw):
    """P = (x, k*x) on y^2 = x^3 + b*x with b = k^2*x - x^2, x = +-2^a 3^c m:
    small powers of 2 and 3 make gcds that repeat from step to step."""
    x = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 12))
    x *= 3 ** draw(st.integers(0, 8)) * draw(st.integers(1, 60))
    k = draw(st.integers(1, 80))
    b = k * k * x - x * x
    assume(b != 0)
    return Curve(b).point(x, k * x)


@st.composite
def non_minimal_points(draw):
    """Points on y^2 = x^3 + b*x with t^4 | b, t in {2, 4, 3, 5, 7, 11}: a
    point of points_on_lines moved by (x, y) -> (t^2 x, t^3 y) to t^4 b, so
    t | x; or P = (x, k*x) with x = k^2 + t^4 s, so b = -t^4 s x and t need
    not divide x."""
    t = draw(st.sampled_from((2, 4, 3, 5, 7, 11)))
    if draw(st.booleans()):
        p = draw(points_on_lines())
        return Curve(t**4 * p.curve.b).point(t * t * p.x, t**3 * p.y)
    k = draw(st.integers(1, 80))
    x = k * k + t**4 * draw(st.integers(-30, 30).filter(bool))
    assume(x != 0)
    return Curve(k * k * x - x * x).point(x, k * x)


def odd_part(n):
    return n >> ((n & -n).bit_length() - 1)


class TestGcdPrecision:
    """canonical_height equals the full-modulus loop bit for bit."""

    @staticmethod
    def check(p):
        h, gs = full_modulus_oracle(p)
        got = canonical_height(p)
        assert (got.value, got.abs_error) == (h.value, h.abs_error), p
        return gs

    @settings(max_examples=150, deadline=None)
    @given(points_on_lines())
    def test_points_on_lines_and_doubles(self, p):
        self.check(p)
        self.check(add(p, p))

    @settings(max_examples=150, deadline=None)
    @given(non_minimal_points())
    def test_non_minimal_curves_and_doubles(self, p):
        self.check(p)
        self.check(add(p, p))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(points_on_lines(), non_minimal_points()))
    def test_lemma_on_oracle_gcds(self, p):
        """The odd part of g_1 divides a power of gcd(u_0, D), the odd
        primes of g_{j+1} are among those of g_j, and after an odd g_j
        (j >= 1) every later g is odd."""
        for q in (p, add(p, p)):
            _, gs = full_modulus_oracle(q)
            prev = math.gcd(q.x.numerator, _curve_constants(q.curve.b)[0])
            for g in gs:
                assert pow(prev, g.bit_length(), odd_part(g)) == 0, (q, gs)
                prev = g
            odd = [j for j, g in enumerate(gs) if g % 2]
            assert all(g % 2 for g in gs[odd[0] if odd else len(gs):]), (q, gs)

    @pytest.mark.parametrize("b, x, y, restarts", [(-192, -8, 32, 1), (243, 9, 54, 3)])
    def test_restart_cases(self, monkeypatch, b, x, y, restarts):
        p = Curve(b).point(x, y)
        gs = self.check(p)
        done = passes(gs, _curve_constants(b)[0])
        assert len(done) == restarts + 1
        # the loop logs each g > 1 of every pass, restarted ones included
        logged = []
        monkeypatch.setattr(
            biquad.heights, "log_big", lambda n: logged.append(n) or log_big(n)
        )
        canonical_height(p)
        assert logged == [g for j in done for g in gs[:j] if g > 1]

    def test_euler_points(self):
        for u in (Fraction(5, 3), Fraction(-37, 40)):
            pts, sums = euler_gram_points(u)
            for p in pts + sums:
                self.check(p)

    def test_moduli_pinned(self, monkeypatch):
        """The digits of the argument n and of the result of every _part
        call, at the ten Gram points of u = 5/3 (D has 62 digits): one call
        per height, d = part(D, 2 u_0).  At P1 and its sums d has 40
        digits; at P2, P3, P4 and the sums without P1 it is the 2-part of
        D (5 digits)."""
        pts, _ = euler_gram_points(Fraction(5, 3))
        sums = [add(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)]
        calls = []

        def recording(n, r):
            result = _part(n, r)
            calls.append((len(str(n)), len(str(result))))
            return result

        monkeypatch.setattr(biquad.heights, "_part", recording)
        got = []
        for p in pts + sums:
            canonical_height(p)
            got.append(calls[:])
            calls.clear()
        odd, two = [(62, 40)], [(62, 5)]
        assert got == [odd, two, two, two, odd, odd, odd, two, two, two]

    def test_pass_ends_at_first_g_1(self, monkeypatch):
        """At the ten Gram points of u = 5/3 only g_1 can exceed 1, so each
        height's one pass ends at its second step (at P3 + P4, where
        g_1 = 1, at its first), not after all n_iter.  Each step takes one
        three-argument gcd, and nothing else in the module does."""
        pts, _ = euler_gram_points(Fraction(5, 3))
        sums = [add(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)]
        steps = []

        def gcd(*args):
            steps.append(len(args) == 3)
            return math.gcd(*args)

        monkeypatch.setattr(
            biquad.heights, "math", SimpleNamespace(**vars(math) | {"gcd": gcd})
        )
        got = []
        for p in pts + sums:
            canonical_height(p)
            got.append(sum(steps))
            steps.clear()
        assert got == [2] * 9 + [1]

    def test_169_digit_regulator_pinned(self):
        """u = 1000003/7: ten heights on a 13,000-digit full modulus; the
        strings were recorded with the full-modulus loop."""
        from biquad.families import euler_family_points, specialize_euler

        u = Fraction(1000003, 7)
        curve, pts, _ = specialize_euler(euler_family_points(), u)
        assert len(str(-curve.b)) == 169
        rep = regulator_report(pts)
        assert rep["gram"] == [
            ["110.524108463750", "82.893088347787", "-0.000013999958", "-110.524115463729"],
            ["82.893088347787", "192.377469040695", "-137.461988398940", "-192.377476040527"],
            ["-0.000013999958", "-137.461988398940", "274.577403207600", "218.622215795159"],
            ["-110.524115463729", "-192.377476040527", "218.622215795159", "384.061804900516"],
        ]
        assert rep["determinant"] == "185310944.589705318213"
        assert rep["error_bound"] == "4.678e-03"


@st.composite
def euler_parameters(draw):
    """A non-degenerate u = p/q with coprime |p|, q <= 40."""
    from biquad.families import euler_degenerate

    p = draw(st.integers(-40, 40))
    q = draw(st.integers(1, 40))
    assume(math.gcd(p, q) == 1 and euler_degenerate(Fraction(p, q)) is None)
    return Fraction(p, q)


class TestGreenFixedPoint:
    """The fixed-point Green loop returns the float of the mpmath loop."""

    @staticmethod
    def check(p, dps=ORACLE_DPS):
        b, u0, v0 = p.curve.b, p.x.numerator, p.x.denominator
        n_iter = oracle_n_iter(b)
        assert _green(u0, v0, b, n_iter) == oracle_green(u0, v0, b, n_iter, dps), p

    @settings(max_examples=40, deadline=None)
    @given(euler_parameters())
    def test_euler_gram_points_and_multiples(self, u):
        pts, sums = euler_gram_points(u)
        for p in pts + sums:
            self.check(p)
        for p in pts:
            for k in (2, 3):
                self.check(scalar_mul(k, p))

    @pytest.mark.parametrize("u, bits", [
        (Fraction(1000000000007, 3), 1117),
        (Fraction(1000000000000000003, 11), 1675),
    ])
    def test_large_b_against_300_digits(self, u, bits):
        """Fixed point loses the bits of b*v^2 that a floating mantissa
        keeps, so the loop's precision grows with the bits of b; 400 bits
        alone give a different float on some of these points."""
        pts, sums = euler_gram_points(u)
        assert abs(pts[0].curve.b).bit_length() == bits
        for p in pts + sums:
            self.check(p, dps=300)


class TestPart:
    @staticmethod
    def oracle(n, r):
        return math.prod(p**e for p, e in factorize(n).items() if r % p == 0)

    def test_against_factorize(self, rng):
        primes = (2, 3, 5, 7, 11, 13, 101, 10007)
        for _ in range(300):
            n = math.prod(p ** rng.randint(0, 12) for p in rng.sample(primes, 4))
            n *= rng.randint(1, 10**4)
            r = math.prod(rng.sample(primes, rng.randint(0, 3))) * rng.randint(1, 99)
            assert _part(n, r) == self.oracle(n, r), (n, r)
            assert _part(n, -r) == _part(n, r)

    def test_edges(self):
        assert _part(1, 6) == 1
        assert _part(2**10 * 3**7 * 5, 1) == 1
        assert _part(2**10 * 3**7 * 5, 0) == 2**10 * 3**7 * 5
        assert _part(2**10 * 3**7 * 5, 6) == 2**10 * 3**7
        assert _part(2**10 * 3**7 * 5, 2**100) == 2**10


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
            curve = Curve(-c * c)
            for x in (0, c, -c):
                self.check(curve.point(x, 0))
        self.check(Curve(-25).point(-4, 6))  # rank-1 point of y^2 = x^3 - 25x

    def test_order_four(self):
        for t in range(1, 6):
            curve = Curve(4 * t**4)
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
            gram_matrix((E17.point(-1, 4), Curve(-2).point(-1, 1)))


class TestRegulator:
    def test_rank2_witness(self):
        p1, p2 = family_curve_points(2, 1)
        assert gram_matrix([p1, p2]).determinant() > 0.05

    def test_rank4_witness(self):
        from biquad.families import euler_family_points, specialize_euler

        _, pts, _ = specialize_euler(euler_family_points(), 2)
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60))
    @example(1, 1)  # theorem1 --m 1 --n 1 printed -0.000000000000
    def test_printed_determinant_never_negative(self, m, n):
        # dependent points give a determinant of 0 up to float cancellation
        assume(math.gcd(m, n) == 1)
        p1, p2 = family_curve_points(m, n)
        for pts in ([p1, p2], [p1, p1], [p1, scalar_mul(2, p1)], [p2, scalar_mul(-3, p2)]):
            assert not regulator_report(pts)["determinant"].startswith("-")

    def test_empty_rejected(self):
        with pytest.raises(HeightUsageError):
            gram_matrix([])

    def test_mixed_curves_rejected(self):
        p1, p2 = family_curve_points(2, 1)
        with pytest.raises(HeightUsageError):
            gram_matrix([p1, p2, Curve(-2).point(-1, 1)])

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


@st.composite
def general_parameters(draw):
    """Coprime (m, n) with m n (m + n) != 0, |m|, |n| <= 5000."""
    m, n = draw(st.integers(-5000, 5000)), draw(st.integers(-5000, 5000))
    assume(math.gcd(m, n) == 1 and m * n * (m + n) != 0)
    return m, n


class TestGramDiagonal:
    """gram_matrix reads its diagonal as hhat(P) rather than through 2P:
    the two agree because hhat(2P) = 4 hhat(P), which holds here within
    the two heights' error bounds."""

    @staticmethod
    def check(p):
        h, h2 = canonical_height(p), canonical_height(add(p, p))
        assert abs(h2.value / 4 - h.value) <= h2.abs_error / 4 + h.abs_error, p

    @settings(max_examples=40, deadline=None)
    @given(euler_parameters())
    def test_euler_points(self, u):
        from biquad.families import euler_family_points, specialize_euler

        _, pts, _ = specialize_euler(euler_family_points(), u)
        for p in pts:
            self.check(p)

    @settings(max_examples=100, deadline=None)
    @given(general_parameters())
    def test_general_points(self, mn):
        for p in family_curve_points(*mn):
            self.check(p)

    def test_diagonal_is_height(self):
        pts, _ = euler_gram_points(Fraction(5, 3))
        gm = gram_matrix(pts)
        for i, p in enumerate(pts):
            h = canonical_height(p)
            assert gm.entries[i][i] == h.value
            assert gm.entry_error >= h.abs_error


class TestCurveConstants:
    def test_bezout_identities(self):
        x, b = sympy.symbols("x b")
        f, g = (x**2 - b) ** 2, 4 * x * (x**2 + b)
        lhs = 4 * (3 * x**2 + 4 * b) * f - x * (3 * x**2 - 5 * b) * g
        assert sympy.expand(lhs) == 16 * b**3
        # reversed forms in y = v/u, written in x
        fr, gr = (1 - b * x**2) ** 2, 4 * x * (1 + b * x**2)
        lhs = 4 * (3 * b * x**2 + 4) * fr - b * x * (3 * b * x**2 - 5) * gr
        assert sympy.expand(lhs) == 16

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
