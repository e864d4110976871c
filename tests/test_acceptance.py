"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Each test times itself and enforces the stated runtime budget.
"""

import sys
import time
from fractions import Fraction

from biquad.curves import Curve, TorsionKind, add, scalar_mul, torsion_kind
from biquad.descent import rank_lower_bound
from biquad.families import (
    euler_family_points,
    euler_n_poly,
    general_family_points,
    general_n_poly,
    identity_suite,
    printed_transfer_x,
    same_x,
    specialize_euler,
    specialize_general,
    verify_parametric_point,
)
from biquad.heights import canonical_height, regulator_report
from biquad.search import twin_search, verify_decomposition_tables
from conftest import family_curve_points


def _report(name, ok, elapsed, budget):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {elapsed:.2f}s (budget {budget}s)"
    print(line, file=sys.stderr)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_theorem1_symbolic():
    t0 = time.monotonic()
    p1, p2 = general_family_points()
    n = general_n_poly()
    wanted = {
        "general-p1-on-curve",
        "general-p2-on-curve",
        "general-space-d-minus1",
        "general-space-d2-associated",
    }
    suite = dict(identity_suite())
    ok = (
        verify_parametric_point(p1, -n)
        and verify_parametric_point(p2, -n)
        and all(suite[name] for name in wanted)
    )
    _report("criterion-1 theorem-1 symbolic suite", ok, time.monotonic() - t0, 1)


def test_criterion_2_theorem2_symbolic():
    t0 = time.monotonic()
    suite = dict(identity_suite())
    n = euler_n_poly()
    points = euler_family_points()
    x3, x4 = printed_transfer_x()
    ok = (
        suite["euler-quadruple-balance"]
        and suite["euler-n-equals-a4-plus-b4"]
        and suite["euler-n-equals-c4-plus-d4"]
        and all(verify_parametric_point(p, -n) for p in points)
        and same_x(points[2], *x3)
        and same_x(points[3], *x4)
    )
    _report("criterion-2 theorem-2 symbolic suite", ok, time.monotonic() - t0, 10)


def test_criterion_3_specialization_fidelity():
    t0 = time.monotonic()
    curve, (p1, p2), parts = specialize_general(general_family_points(), 2, 1)
    ok = (
        curve == Curve(-17)
        and parts == [17]
        and (p1.x, p1.y) == (-1, 4)
        and (p2.x, p2.y) == (Fraction(49, 9), Fraction(224, 27))
    )
    expected = [
        (Fraction(137129), 49914956),
        (Fraction(-24964), 549998),
        (Fraction(1766241, 16), Fraction(2285325807, 64)),
        (Fraction(365689129, 9801), Fraction(5156125463944, 970299)),
    ]
    curve, qs, _ = specialize_euler(euler_family_points(), 2)
    ok = ok and curve.b == -635318657
    for q, (ex, ey) in zip(qs, expected):
        ok = ok and q.curve == curve and q.x == ex and abs(q.y) == ey
    ok = ok and qs[2].x.denominator == 16 and qs[3].x.denominator == 9801
    _report("criterion-3 specialization fidelity", ok, time.monotonic() - t0, 10)


def test_criterion_4_independence_witnesses():
    t0 = time.monotonic()
    rep2 = regulator_report(list(family_curve_points(2, 1)))
    t1 = time.monotonic()
    _, pts, _ = specialize_euler(euler_family_points(), 2)
    rep4 = regulator_report(pts)
    t2 = time.monotonic()
    ok = (
        float(rep2["determinant"]) > 0.05
        and float(rep2["error_bound"]) < 0.01
        and rep2["independent"]
        and rep2["rank_lower_bound"] == 2
        and float(rep4["determinant"]) > 0.05
        and float(rep4["error_bound"]) < 0.01
        and rep4["independent"]
        and rep4["rank_lower_bound"] == 4
        and t1 - t0 < 30
        and t2 - t1 < 30
    )
    _report("criterion-4 regulator witnesses", ok, t2 - t0, 60)


def test_criterion_5_descent_bound():
    t0 = time.monotonic()
    ok = rank_lower_bound(17, 10).rank_lower_bound == 2
    _report("criterion-5 descent bound N=17", ok, time.monotonic() - t0, 1)


def test_criterion_6_height_properties(rng):
    t0 = time.monotonic()
    curves = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
    ok = True
    checked = 0
    while checked < 20:
        m, n = curves[checked % len(curves)]
        p1, p2 = family_curve_points(m, n)
        p = add(scalar_mul(rng.randint(0, 2), p1), scalar_mul(rng.randint(-1, 2), p2))
        q = add(scalar_mul(rng.randint(-1, 2), p1), scalar_mul(rng.randint(0, 2), p2))
        s, d = add(p, q), add(p, -q)
        if p.is_identity or q.is_identity or s.is_identity or d.is_identity:
            continue
        hp = canonical_height(p).value
        hq = canonical_height(q).value
        ok = ok and abs(canonical_height(scalar_mul(2, p)).value - 4 * hp) <= 2e-3
        para = canonical_height(s).value + canonical_height(d).value - 2 * hp - 2 * hq
        ok = ok and abs(para) <= 6e-3
        checked += 1
    _report("criterion-6 height properties", ok, time.monotonic() - t0, 60)


def test_criterion_7_twin_search():
    t0 = time.monotonic()
    small = twin_search(200)
    ok = (
        len(small) == 1
        and small[0].n == 635318657
        and [(r.a, r.b) for r in small[0].representations]
        == [(59, 158), (133, 134)]
    )
    big = {rec.n: rec for rec in twin_search(3500)}
    ok = ok and 155974778565937 in big
    reps = {(r.a, r.b) for r in big[155974778565937].representations}
    ok = ok and reps == {(1623, 3494), (2338, 3351)}
    _report("criterion-7 twin search", ok, time.monotonic() - t0, 300)


def test_criterion_8_table_verification():
    t0 = time.monotonic()
    rows = verify_decomposition_tables()
    ok = bool(rows) and all(row["pass"] for row in rows)
    _report("criterion-8 decomposition tables", ok, time.monotonic() - t0, 1)


def test_criterion_9_torsion():
    t0 = time.monotonic()
    ok = torsion_kind(4) is TorsionKind.Z4 and torsion_kind(-9) is TorsionKind.Z2XZ2
    for m in range(1, 51):
        for n in range(m, 51):
            ok = ok and torsion_kind(-(m**4 + n**4)) is TorsionKind.Z2
    _report("criterion-9 torsion classification", ok, time.monotonic() - t0, 10)
