import pytest

from biquad.arith import ArithDomainError
from biquad.curves import TorsionKind, torsion_kind
from biquad.search import (
    Representation,
    TwinRecord,
    euler_membership_scan,
    load_decomposition_tables,
    twin_search,
    verify_decomposition_tables,
    verify_representation,
)


def brute_force_oracle(limit):
    """Independent dict-of-lists enumeration, no shared code paths."""
    seen = {}
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            seen.setdefault(a**4 + b**4, []).append((a, b))
    return {n: sorted(reps) for n, reps in seen.items() if len(reps) >= 2}


class TestRepresentation:
    def test_value(self):
        assert Representation(59, 158).value == 635318657

    def test_normalization_enforced(self):
        with pytest.raises(ArithDomainError):
            Representation(158, 59)
        with pytest.raises(ArithDomainError):
            Representation(0, 5)

    def test_verify(self):
        assert verify_representation(635318657, Representation(133, 134))
        assert not verify_representation(635318657, Representation(133, 135))

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
        # The int64 sort-and-scan against an exact Python-int enumeration.
        fast = twin_search(300)
        slow = [
            (n, tuple(Representation(a, b) for a, b in reps))
            for n, reps in sorted(brute_force_oracle(300).items())
        ]
        assert [(r.n, r.representations) for r in fast] == slow
        assert all(
            type(r.n) is int and type(rep.a) is int and type(rep.b) is int
            for r in fast
            for rep in r.representations
        )

    def test_sorted_by_n(self):
        ns = [rec.n for rec in twin_search(600)]
        assert ns == sorted(ns)

    def test_limit_too_small(self):
        with pytest.raises(ArithDomainError):
            twin_search(1)

    def test_scaled_copies_present(self):
        # twins are closed under scaling (a, b) -> (t*a, t*b)
        records = {rec.n: rec for rec in twin_search(400)}
        base = records[635318657]
        scaled = records[16 * 635318657]
        assert {(r.a, r.b) for r in scaled.representations} == {
            (2 * r.a, 2 * r.b) for r in base.representations
        }

    def test_twin_curves_have_z2_torsion(self):
        for rec in twin_search(400):
            assert torsion_kind(-rec.n) is TorsionKind.Z2


class TestEulerMembershipScan:
    def test_u2_record(self):
        records = euler_membership_scan(2)
        assert len(records) == 1
        assert records[0].n == 635318657

    def test_subset_of_direct_search(self):
        # every scanned record at small u must reappear in a direct search
        # over a large enough coordinate range
        records = euler_membership_scan(3)
        direct = {rec.n for rec in twin_search(2500)}
        for rec in records:
            assert rec.n in direct

    def test_all_records_valid(self):
        for rec in euler_membership_scan(6):
            for r in rec.representations:
                assert verify_representation(rec.n, r)

    def test_limit_too_small(self):
        with pytest.raises(ArithDomainError):
            euler_membership_scan(1)


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
