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
# take tens of MB, whatever the limit.
_WINDOW = 2**20


def _iroot4(x):
    """floor(x^(1/4)) elementwise for int64 x >= 0, and -1 where x < 0.

    The float64 estimate is off by at most one either way. Each fix
    compares s with y // s for s = r^2, which cannot overflow int64.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.maximum(x, 0)
    r = np.sqrt(np.sqrt(y.astype(np.float64))).astype(np.int64)
    s = r * r
    r -= s > y // np.maximum(s, 1)
    s = (r + 1) ** 2
    r += s <= y // s
    return np.where(x < 0, -1, r)


def twin_search(limit: int) -> list[TwinRecord]:
    """All N = a^4 + b^4 with two or more representations, b <= limit.

    The values 2 .. 2*limit^4 are cut into windows [lo, hi) of equal
    width in sqrt(value), which hold similar numbers of pairs because
    the pair count below X grows like sqrt(X). In each window the b
    range of every a comes from an integer fourth root (Bernstein,
    "Enumerating solutions to p(a)+q(b)=r(c)+s(d)", Math. Comp. 70,
    2001), and the window's values are built, sorted and checked for
    repeats in numpy, so memory is O(_WINDOW) rather than O(limit^2).
    The representations of a repeated value n are the a <= b with
    n - a^4 a fourth power. Everything is int64, which holds every
    a^4 + b^4 for limit <= 46340; larger limits are rejected. Records
    come in ascending N, and their representations in ascending a.
    """
    if limit < 2:
        raise ArithDomainError("limit must be at least 2")
    if 2 * limit**4 >= 2**63:
        raise ArithDomainError("limit must be at most 46340 (int64 range)")
    fourths = np.arange(limit + 1, dtype=np.int64) ** 4
    a4 = fourths[1:]
    pairs = limit * (limit + 1) // 2
    k = -(-pairs // _WINDOW)
    top = 2 * limit**4 + 1
    done = np.arange(limit, dtype=np.int64)  # for each a, the largest b so far
    records = []
    for i in range(1, k + 1):
        hi = top * i * i // (k * k)
        upto = np.clip(_iroot4(hi - 1 - a4), done, limit)
        counts = upto - done
        total = int(counts.sum())
        if total >= 2:
            starts = np.cumsum(counts) - counts
            b = np.arange(total, dtype=np.int64) + np.repeat(done + 1 - starts, counts)
            values = np.repeat(a4, counts) + fourths[b]
            values.sort()
            twins = np.unique(values[1:][values[1:] == values[:-1]])
            del b, values
            records.extend(_twin_record(n, fourths) for n in twins.tolist())
        done = upto
    return records


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
