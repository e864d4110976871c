"""Regenerate data/twins.json: every N = a^4 + b^4 with two or more
representations 0 < a <= b <= LIMIT.

The enumeration is independent of biquad.search (which sorts all pairs
with numpy): it merges the rows a^4 + b^4, b = a..LIMIT, through a heap,
so values come out in increasing order with O(LIMIT) memory.

    python3 perfbench/pin_twins.py        # about 12 s on one core
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path

LIMIT = 3600
OUT = Path(__file__).resolve().parent / "data" / "twins.json"


def twins(limit: int) -> list[tuple[int, list[list[int]]]]:
    heap = [(2 * a**4, a, a) for a in range(1, limit + 1)]
    heapq.heapify(heap)
    out = []
    prev, reps = None, []
    while heap:
        value, a, b = heap[0]
        if b < limit:
            heapq.heapreplace(heap, (a**4 + (b + 1) ** 4, a, b + 1))
        else:
            heapq.heappop(heap)
        if value != prev:
            if len(reps) >= 2:
                out.append((prev, sorted(reps)))
            prev, reps = value, []
        reps.append([a, b])
    if len(reps) >= 2:
        out.append((prev, sorted(reps)))
    return out


def main() -> None:
    records = [{"N": str(n), "representations": reps} for n, reps in twins(LIMIT)]
    OUT.write_text(json.dumps({"limit": LIMIT, "records": records}, indent=1) + "\n")
    print(f"{len(records)} records with b <= {LIMIT} written to {OUT}")


if __name__ == "__main__":
    main()
