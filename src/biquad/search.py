"""Enumeration of N = a^4 + b^4 and twin-representation detection."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .arith import ArithDomainError


@dataclass(frozen=True)
class Representation:
    """Normalized pair a <= b of positive integers with value a^4 + b^4."""

    a: int
    b: int

    def __post_init__(self):
        if not (0 < self.a <= self.b):
            raise ArithDomainError(f"need 0 < a <= b, got ({self.a}, {self.b})")

    @property
    def value(self) -> int:
        return self.a**4 + self.b**4

    def to_json(self) -> list[str]:
        return [str(self.a), str(self.b)]


@dataclass(frozen=True)
class TwinRecord:
    """An integer with at least two distinct fourth-power representations."""

    n: int
    representations: tuple[Representation, ...]

    def __post_init__(self):
        reps = self.representations
        if len(reps) < 2 or len({(r.a, r.b) for r in reps}) != len(reps):
            raise ArithDomainError("twin record needs >= 2 distinct representations")
        if any(r.value != self.n for r in reps):
            raise ArithDomainError("representation does not evaluate to N")

    def to_json(self) -> dict:
        return {
            "N": str(self.n),
            "representations": [r.to_json() for r in self.representations],
        }


# Pairs per value window of twin_search. A window's int64 work arrays
# take a few MB each, whatever the limit. Smaller windows sort faster in
# cache, but every window also runs four binary searches over all limit
# values of a: at limit 40540 about 1 ms a window against 5 ms for its
# sort, so each halving of the window adds about 1 s to a 9-10 s search.
_WINDOW = 2**19


def twin_search(limit: int) -> list[TwinRecord]:
    """All N = a^4 + b^4 with two or more representations, b <= limit.

    Only the admissible pairs, those where neither 2 nor 3 divides both
    a and b (2/3 of all pairs), are built; the other twins follow from a
    lemma. If p = 2 or 3 divides both entries of one representation of
    N, it divides both entries of every one: p^4 | N, while c^4 + d^4 is
    1 or 2 (mod 16) when c and d are not both even, and 1 or 2 (mod 3)
    when they are not both divisible by 3. So each twin at this limit is
    k^4 n', with k {2,3}-smooth and n' a twin among the admissible
    pairs, and the representations of k^4 n' are exactly the (k a, k b)
    for the representations (a, b) of n' with k b <= limit. Primes with
    -1 not a fourth power modulo them, such as 5 and 7, obey the lemma
    too, but each would leave out only 1/p^2 of the pairs. No prime
    p = 1 (mod 8) may join: 2^4 = -1 (mod 17), and 17 divides both
    entries of 18292^4 + 45883^4 = 10757^4 + 46136^4 but neither of the
    other.

    The values 2 .. 2*limit^4 are cut into windows [lo, hi) of equal width
    in sqrt(value), which hold similar numbers of pairs because the pair
    count below X grows like sqrt(X). In each window the b range of every a
    is one slice of its class in _pair_runs, which ends at its first b with
    b^4 >= hi - a^4, found by binary search (after Bernstein, "Enumerating
    solutions to p(a)+q(b)=r(c)+s(d)", Math. Comp. 70, 2001). The window's
    values are built, sorted and checked for repeats in numpy, so memory is
    O(_WINDOW) rather than O(limit^2). The representations of a repeated
    value n' are the a <= b with n' - a^4 a fourth power; those of its
    scaled copies are multiplied out from them, with no second search.
    Everything is exact int64, which holds every a^4 + b^4 for
    limit <= 46340; larger limits are rejected. Records come in ascending
    N, and their representations in ascending a.
    """
    if limit < 2:
        raise ArithDomainError("limit must be at least 2")
    if 2 * limit**4 >= 2**63:
        raise ArithDomainError("limit must be at most 46340 (int64 range)")
    fourths = np.arange(limit + 1, dtype=np.int64) ** 4
    runs, a4, groups = _pair_runs(limit)
    start = _first_b(runs, groups, a4)  # for each a, the runs index of its first b >= a
    top = 2 * limit**4 + 1
    pairs = int((_first_b(runs, groups, top - a4) - start).sum())
    k = -(-pairs // _WINDOW)
    found = []
    for i in range(1, k + 1):
        hi = top * i * i // (k * k)
        stop = np.maximum(start, _first_b(runs, groups, hi - a4))
        counts = stop - start
        total = int(counts.sum())
        if total >= 2:
            # built in place, so that at most two window-sized arrays live
            offsets = np.cumsum(counts) - counts
            j = np.repeat(start - offsets, counts)
            j += np.arange(total, dtype=np.int64)
            values = runs[j]
            del j
            values += np.repeat(a4, counts)
            values.sort()
            twins = np.unique(values[1:][values[1:] == values[:-1]])
            del values
            found.extend(twins.tolist())
        start = stop
    smooth = sorted(
        t
        for i in range(limit.bit_length())
        for j in range(limit.bit_length())
        if 1 < (t := 2**i * 3**j) <= limit
    )
    records = []
    for n in found:
        record = _twin_record(n, fourths)
        records.append(record)
        for t in smooth:
            reps = [r for r in record.representations if t * r.b <= limit]
            if len(reps) < 2:
                break
            records.append(
                TwinRecord(t**4 * n, tuple(Representation(t * r.a, t * r.b) for r in reps))
            )
    records.sort(key=lambda r: r.n)
    return records


def _pair_runs(limit: int) -> tuple[np.ndarray, np.ndarray, list[tuple[slice, slice]]]:
    """The admissible b of every a <= limit, as slices of one array.

    The b of an a run over one class, chosen by gcd(a, 6): all b, odd b,
    b prime to 3, or b prime to 6. Returns (runs, a4, groups): runs holds
    the fourth powers of each class in ascending b, one class after the
    other, a4 those of 1 .. limit grouped by class and descending in each,
    and groups pairs the slice of each class in runs with its slice of a4.
    """
    x = np.arange(1, limit + 1, dtype=np.int64)
    kind = (x % 2 == 0) + 2 * (x % 3 == 0)  # a and b pair iff kind[a] & kind[b] == 0
    b = [x[(kind & c) == 0] for c in range(4)]
    a = [x[kind == c][::-1] for c in range(4)]
    ends = np.cumsum([[0, 0]] + [[len(u), len(v)] for u, v in zip(b, a)], axis=0).tolist()
    groups = [(slice(r0, r1), slice(s0, s1)) for (r0, s0), (r1, s1) in zip(ends, ends[1:])]
    return np.concatenate(b) ** 4, np.concatenate(a) ** 4, groups


def _first_b(runs: np.ndarray, groups: list[tuple[slice, slice]], keys: np.ndarray) -> np.ndarray:
    """For each a, the runs index of the first b of its class with b^4 >= its
    key, or the end of the class. The keys hi - a^4 ascend in each class."""
    return np.concatenate([r.start + np.searchsorted(runs[r], keys[s]) for r, s in groups])


def _twin_record(n: int, fourths: np.ndarray) -> TwinRecord:
    """The record of n, from the a <= b <= limit with n - a^4 = b^4."""
    a = np.arange(1, math.isqrt(math.isqrt(n // 2)) + 1, dtype=np.int64)
    rest = n - fourths[a]
    b = np.minimum(np.searchsorted(fourths, rest), len(fourths) - 1)
    hit = fourths[b] == rest
    return TwinRecord(
        n,
        tuple(Representation(x, y) for x, y in zip(a[hit].tolist(), b[hit].tolist())),
    )


# ---------------------------------------------------------------------------
# Transcribed decomposition tables
# ---------------------------------------------------------------------------


def load_decomposition_tables() -> dict:
    data = resources.files("biquad.data").joinpath("decompositions.json")
    return json.loads(data.read_text())


def verify_decomposition_tables(tables: dict | None = None) -> list[dict]:
    """Check every tabulated equality N = a^4 + b^4 exactly.

    Rank labels in the table are informational only and never tested.
    Returns one row per (N, representation) pair with a pass flag.
    """
    if tables is None:
        tables = load_decomposition_tables()
    rows = []
    for group in tables["groups"]:
        for entry in group["entries"]:
            n = int(entry["N"])
            for a, b in entry["representations"]:
                rep = Representation(int(a), int(b))
                rows.append(
                    {
                        "group": group["name"],
                        "N": str(n),
                        "a": str(rep.a),
                        "b": str(rep.b),
                        "pass": rep.value == n,
                    }
                )
    return rows
