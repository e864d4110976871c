"""Enumeration of N = a^4 + b^4 and twin-representation detection."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .arith import ArithDomainError
from .families import euler_degenerate, euler_quadruple


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


def verify_representation(N: int, r: Representation) -> bool:
    return r.value == N


def twin_search(limit: int) -> list[TwinRecord]:
    """All N = a^4 + b^4 with two or more representations, b <= limit.

    Sort-and-scan over the ~limit^2/2 normalized pairs in int64, which
    holds every a^4 + b^4 for limit <= 46340; larger limits are rejected.
    """
    if limit < 2:
        raise ArithDomainError("limit must be at least 2")
    if 2 * limit**4 >= 2**63:
        raise ArithDomainError("limit must be at most 46340 (int64 range)")
    fourths = np.arange(limit + 1, dtype=np.int64) ** 4
    values = []
    pairs = []
    for a in range(1, limit + 1):
        b = np.arange(a, limit + 1, dtype=np.int64)
        values.append(fourths[a] + fourths[b])
        pairs.append(np.stack([np.full(b.shape, a, dtype=np.int64), b], axis=1))
    values = np.concatenate(values)
    pairs = np.concatenate(pairs)
    order = np.argsort(values, kind="stable")
    values = values[order]
    pairs = pairs[order]
    records = []
    i = 0
    m = len(values)
    while i < m:
        j = i + 1
        while j < m and values[j] == values[i]:
            j += 1
        if j - i >= 2:
            reps = tuple(
                Representation(int(a), int(b))
                for a, b in sorted(map(tuple, pairs[i:j]))
            )
            records.append(TwinRecord(int(values[i]), reps))
        i = j
    return records


def euler_membership_scan(u_limit: int) -> list[TwinRecord]:
    """Twin records from the degree-7 quadruple at integer u in [2, u_limit]."""
    if u_limit < 2:
        raise ArithDomainError("u_limit must be at least 2")
    quad = euler_quadruple()
    records = []
    for u in range(2, u_limit + 1):
        if euler_degenerate(u) is not None:
            continue
        a, b, c, d = (int(p.evaluate(u, 1)) for p in quad)
        r1 = Representation(*sorted((abs(a), abs(b))))
        r2 = Representation(*sorted((abs(c), abs(d))))
        if (r1.a, r1.b) == (r2.a, r2.b) or 0 in (a, b, c, d):
            continue
        n = r1.value
        assert r2.value == n
        reps = tuple(sorted((r1, r2), key=lambda r: (r.a, r.b)))
        records.append(TwinRecord(n, reps))
    records.sort(key=lambda t: t.n)
    return records


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
                        "pass": verify_representation(n, rep),
                    }
                )
    return rows
