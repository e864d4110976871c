#!/usr/bin/env python3
"""Negative control for the benchmark's checks.

Runs one cheap input of each workload through biquad, then feeds the
genuine answers and corrupted copies of them (a perturbed point, a wrong
descent solution, a dropped twin record) through the same tally that
run.py uses.  Passes when every genuine answer is accepted and every
corrupted one is counted as failed.  Also re-derives the witness-euler
population and the start of the pinned twin table independently.

    python3 perfbench/selftest.py     # a few seconds; exit code 0 = pass
"""

from __future__ import annotations

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import biquad.cli  # noqa: E402
import pin_twins  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402


def corrupt_point(doc):
    doc["points"][0]["y"]["num"] = str(int(doc["points"][0]["y"]["num"]) + 1)


def corrupt_solution(doc):
    sol = doc["descent"]["solutions_E4"][0]
    sol["h"] = str(int(sol["h"]) + 1)


def corrupt_rank(doc):
    doc["descent"]["rank_lower_bound"] += 1


def drop_record(doc):
    del doc["records"][1]
    doc["count"] -= 1       # keep the count consistent: only the pinned table can tell


def main() -> int:
    euler = w.Item(("theorem2", "--u", "2"), lambda d: w.check_theorem2(Fraction(2), d))
    table = w.theorem1_item(81, 517, 7)
    twin = w.Item(("search", "--limit", "2500"), lambda d: w.check_search(2500, w.load_twins(), d))
    genuine = [(item, *run.call_cli(biquad.cli.main, item.argv)) for item in (euler, table, twin)]
    outputs = {item: out for item, _, out, _ in genuine}

    corrupted = []
    for item, corrupt in ((euler, corrupt_point), (table, corrupt_solution),
                          (table, corrupt_rank), (twin, drop_record)):
        doc = copy.deepcopy(json.loads(outputs[item]))
        corrupt(doc)
        corrupted.append((item, 0, json.dumps(doc), 0.0))
    corrupted.append((euler, 1, outputs[euler], 0.0))        # non-zero exit code

    ok = True
    good = w.failures(genuine)
    bad = w.failures(corrupted)
    print(f"genuine answers: {len(good)} of {len(genuine)} failed")
    print(f"corrupted answers: {len(bad)} of {len(corrupted)} failed, "
          f"failed_fraction {len(bad) / len(corrupted):.2f}")
    for argv, errors in bad:
        print(f"  caught {' '.join(argv)}: {errors[0]}")
    ok &= not good and len(bad) == len(corrupted)

    population = []
    for p in range(1, 13):
        for q in range(1, 13):
            a, b, c, d = w.euler_quadruple(p, q)
            if p != q and math.gcd(p, q) == 1 and {abs(a), abs(b)} != {abs(c), abs(d)}:
                population.append(str(Fraction(p, q)))
    listed = w.EULER_BY_COST + list(w.EULER_EXCLUDED)
    same = sorted(population) == sorted(listed) and len(set(listed)) == len(listed)
    print(f"witness-euler population of {len(population)} u matches the lists: {same}")
    ok &= same

    pinned = []
    for n, reps in w.load_twins():
        inside = [list(r) for r in reps if r[1] <= 1000]
        if len(inside) >= 2:
            pinned.append((n, inside))
    fresh = pin_twins.twins(1000)
    print(f"pinned twin records with b <= 1000 match a fresh enumeration: {pinned == fresh}")
    ok &= pinned == fresh

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
