import bisect
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biquad import search
from biquad.arith import ArithDomainError
from biquad.curves import TorsionKind, torsion_kind
from biquad.search import (
    Representation,
    TwinRecord,
    load_decomposition_tables,
    twin_search,
    verify_decomposition_tables,
)


def brute_force_oracle(limit):
    """Independent dict-of-lists enumeration, no shared code paths."""
    seen = {}
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            seen.setdefault(a**4 + b**4, []).append((a, b))
    return {n: sorted(reps) for n, reps in seen.items() if len(reps) >= 2}


def assert_matches_oracle(records, limit):
    """Same values, order and Python-int types as the oracle."""
    expected = [
        (n, tuple(Representation(a, b) for a, b in reps))
        for n, reps in sorted(brute_force_oracle(limit).items())
    ]
    assert [(r.n, r.representations) for r in records] == expected
    assert all(
        type(r.n) is int and type(rep.a) is int and type(rep.b) is int
        for r in records
        for rep in r.representations
    )


@functools.cache
def top_pair_runs():
    return search._pair_runs(46340)


@functools.cache
def class_fourths(g):
    """b^4 for the b <= 46340 prime to g = gcd(a, 6), as Python ints."""
    return [b**4 for b in range(1, 46341) if math.gcd(g, b) == 1]


def assert_first_b(key):
    """At the largest allowed limit, every a's lookup for one key is its
    class's start plus the Python-int count of the b in it with b^4 < key."""
    runs, a4, groups = top_pair_runs()
    got = search._first_b(runs, groups, np.full(len(a4), key, dtype=np.int64))
    for r, s in groups:
        (g,) = set(np.gcd(a4[s], 6).tolist())  # gcd(a^4, 6) = gcd(a, 6)
        assert (got[s] == r.start + bisect.bisect_left(class_fourths(g), key)).all()


class TestFirstB:
    @settings(max_examples=30, deadline=None)
    @given(b=st.integers(min_value=1, max_value=46340))
    @example(b=1)
    @example(b=2)
    @example(b=3)
    @example(b=5)
    @example(b=46339)
    @example(b=46340)
    def test_around_fourth_powers(self, b):
        # 1 is the first b of every class; 46340 is the last b of two
        # classes and 46339 of the other two
        for key in (b**4 - 1, b**4, b**4 + 1):
            assert_first_b(key)

    def test_top_of_search_range(self):
        top = 2 * 46340**4
        for key in (top - 1, top, top + 1, 2**63 - 1):
            assert_first_b(key)

    def test_negative(self):
        for key in (0, -1, -(2**62), -(2**63)):
            assert_first_b(key)


class TestRepresentation:
    def test_value(self):
        assert Representation(59, 158).value == 635318657

    def test_normalization_enforced(self):
        with pytest.raises(ArithDomainError):
            Representation(158, 59)
        with pytest.raises(ArithDomainError):
            Representation(0, 5)

    def test_twin_record_validation(self):
        r1, r2 = Representation(59, 158), Representation(133, 134)
        TwinRecord(635318657, (r1, r2))
        with pytest.raises(ArithDomainError):
            TwinRecord(635318657, (r1,))
        with pytest.raises(ArithDomainError):
            TwinRecord(635318657, (r1, r1))
        with pytest.raises(ArithDomainError):
            TwinRecord(635318658, (r1, r2))


class TestTwinSearch:
    def test_limit_200_exact(self):
        records = twin_search(200)
        assert len(records) == 1
        rec = records[0]
        assert rec.n == 635318657
        assert [(r.a, r.b) for r in rec.representations] == [(59, 158), (133, 134)]

    def test_no_twins_below_158(self):
        assert twin_search(157) == []

    def test_matches_oracle_small(self):
        for limit in (50, 157, 200):
            got = {
                rec.n: [(r.a, r.b) for r in rec.representations]
                for rec in twin_search(limit)
            }
            assert got == brute_force_oracle(limit)

    def test_numpy_and_bigint_paths_agree(self):
        # The int64 windowed search against an exact Python-int enumeration.
        # 960 holds the copies of 635318657 scaled by 2, 3, 4 and 6.
        for limit in (300, 960):
            assert_matches_oracle(twin_search(limit), limit)

    @settings(max_examples=20, deadline=None)
    @given(
        limit=st.integers(min_value=2, max_value=300),
        window=st.sampled_from([1, 7, 64, 1000]),
    )
    @example(limit=160, window=1)  # a window holding just the two reps of a twin
    def test_tiny_windows_match_oracle(self, limit, window):
        # Many window edges fall between and on twin values.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_WINDOW", window)
            records = twin_search(limit)
        assert_matches_oracle(records, limit)

    @settings(max_examples=3, deadline=None)
    @given(
        limit=st.integers(min_value=300, max_value=1000),
        window=st.sampled_from([7, 64, 1000]),
    )
    def test_windows_match_oracle_with_scaled_twins(self, limit, window):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_WINDOW", window)
            records = twin_search(limit)
        assert_matches_oracle(records, limit)

    def test_pairs_built_are_the_admissible_ones(self):
        # each a's slice, from its first b >= a to the end of its class,
        # holds exactly the b >= a with neither 2 nor 3 dividing both
        limit = 60
        runs, a4, groups = search._pair_runs(limit)
        start = search._first_b(runs, groups, a4)
        root = {b**4: b for b in range(1, limit + 1)}
        assert sorted(a4.tolist()) == list(root)
        for r, s in groups:
            assert (np.diff(a4[s]) < 0).all()
            for x, first in zip([root[v] for v in a4[s].tolist()], start[s].tolist()):
                built = [root[v] for v in runs[first : r.stop].tolist()]
                assert built == [b for b in range(x, limit + 1) if math.gcd(x, b, 6) == 1]

    def test_every_small_limit_is_a_cut_of_limit_1000(self):
        # the twins at a limit are those at 1000 cut to the b <= limit
        full = twin_search(1000)
        for limit in range(2, 1001):
            expected = []
            for rec in full:
                reps = tuple(r for r in rec.representations if r.b <= limit)
                if len(reps) >= 2:
                    expected.append(TwinRecord(rec.n, reps))
            assert twin_search(limit) == expected, limit

    def test_wheel_lemma(self):
        # 2 or 3 divides both entries of every representation, or of none
        for rec in twin_search(1500):
            for p in (2, 3):
                assert len({r.a % p == r.b % p == 0 for r in rec.representations}) == 1
        # why: c^4 + d^4 is 1 or 2 mod 16 (mod 3) unless 2 (3) divides c and d
        for p, m in ((2, 16), (3, 3)):
            sums = {(c**4 + d**4) % m for c in range(m) for d in range(m) if c % p or d % p}
            assert sums == {1, 2}

    def test_sorted_by_n(self):
        ns = [rec.n for rec in twin_search(600)]
        assert ns == sorted(ns)

    def test_limit_too_small(self):
        with pytest.raises(ArithDomainError):
            twin_search(1)

    def test_scaled_copies_present(self):
        # twins are closed under scaling (a, b) -> (t*a, t*b)
        records = {rec.n: rec for rec in twin_search(480)}
        base = records[635318657]
        for t in (2, 3):
            scaled = records[t**4 * 635318657]
            assert {(r.a, r.b) for r in scaled.representations} == {
                (t * r.a, t * r.b) for r in base.representations
            }

    def test_twin_curves_have_z2_torsion(self):
        for rec in twin_search(400):
            assert torsion_kind(-rec.n) is TorsionKind.Z2


class TestDecompositionTables:
    def test_all_rows_pass(self):
        rows = verify_decomposition_tables()
        assert rows and all(row["pass"] for row in rows)

    def test_group_shape(self):
        tables = load_decomposition_tables()
        names = [g["name"] for g in tables["groups"]]
        assert names == ["rank7", "rank8", "rank9", "twin_rank8"]
        sizes = {g["name"]: len(g["entries"]) for g in tables["groups"]}
        assert sizes == {"rank7": 7, "rank8": 8, "rank9": 1, "twin_rank8": 2}

    def test_rank9_entry(self):
        rows = verify_decomposition_tables()
        nine = [r for r in rows if r["group"] == "rank9"]
        assert len(nine) == 1
        assert (nine[0]["N"], nine[0]["a"], nine[0]["b"]) == (
            "228746044559762",
            "2387",
            "3743",
        )

    def test_corrupted_row_fails(self):
        tables = load_decomposition_tables()
        entry = tables["groups"][0]["entries"][0]
        entry["N"] = str(int(entry["N"]) + 1)
        rows = verify_decomposition_tables(tables)
        assert any(not row["pass"] for row in rows)

    def test_twin_entries_match_search(self):
        tables = load_decomposition_tables()
        twins = next(g for g in tables["groups"] if g["name"] == "twin_rank8")
        small = next(e for e in twins["entries"] if int(e["N"]) == 155974778565937)
        found = {rec.n for rec in twin_search(3500)}
        assert int(small["N"]) in found
