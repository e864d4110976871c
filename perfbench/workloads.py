"""Workload inputs and the exact checks on biquad's answers.

The checks use only ``int`` and ``Fraction`` arithmetic and the formulas
of the paper; they import nothing from biquad, so a defect in the code
under test cannot hide itself.  Each check returns a list of error
strings, empty when the answer is right.

A workload is a sequence of rounds.  A round is a stratified sample: it
takes one input from each stratum (a group of inputs of similar cost),
so every round has the same cost profile and the median and tail of a
run do not hinge on which inputs the seed happened to draw.  Inputs are
drawn without replacement within a stratum, so no curve repeats inside
a round.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
TABLE = HERE.parent / "src" / "biquad" / "data" / "decompositions.json"
TWINS = HERE / "data" / "twins.json"

DESCENT_BOUND = 100      # certify-table: theorem1 --bound
THEOREM2_BOUND = 2       # witness-euler: theorem2 default --bound

# witness-euler population: every reduced, non-degenerate u = p/q with
# p, q <= 12 except EULER_EXCLUDED, ordered by the median of three
# theorem2 times on the seed code (Python 3.11.7, 2 cores, a fresh random
# state per call), cheapest first.  The order only defines the strata;
# it is not a pass/fail criterion.
EULER_BY_COST = [
    "2", "1/2", "3", "2/3", "1/3", "4", "1/4", "3/2", "4/3", "3/5", "5/3",
    "7", "3/4", "5", "1/6", "5/4", "1/5", "4/5", "3/8", "8/3", "9", "6",
    "1/9", "7/2", "7/3", "2/5", "1/7", "6/5", "5/2", "8/7", "11/6", "3/7",
    "3/11", "1/8", "5/7", "7/8", "11/4", "10", "2/7", "7/5", "8/9", "4/7",
    "3/10", "9/7", "11/5", "5/8", "7/4", "9/5", "2/11", "4/11", "5/6", "7/10",
    "6/7", "4/9", "7/9", "9/4", "5/9", "2/9", "7/6", "8/5", "9/8", "9/11",
    "1/10", "9/2", "12/7", "7/11", "10/7", "1/12", "11/10", "10/9", "5/12",
    "12/11", "9/10", "8", "11/9", "11/7", "7/12", "5/11", "11", "12",
]

# The u with p, q <= 12 whose theorem2 call took over 5 s on the seed
# code.  At each, a point's x-coordinate carries the square of a large
# prime that Pollard rho splits slowly: 7 s at 6/11, 6 to 65 s at the
# others, depending on the random state.  One of them would swamp every
# other input's time in a round, or exceed the per-run time limit.  They
# return once factorization checks for perfect squares or runs under a
# budget.
EULER_EXCLUDED = (
    "6/11", "11/12", "10/3", "11/2", "11/3", "11/8", "1/11", "12/5", "10/11", "8/11",
)
EULER_STRATA = 30

TWIN_LOW, TWIN_HIGH = 2500, 3600
TWIN_STRATA = 16         # L strata of 68-69 values: [2500, 2567], ..., [3532, 3600]
TWIN_SMALLEST = 635318657
TWIN_RANK8 = 155974778565937   # 1623^4 + 3494^4 = 2338^4 + 3351^4

# certify-table's seeded rows: 60 coprime (m, n) with m != n in [1, 4000],
# not in the table, drawn once by random.Random(2012) and ordered by the
# median of three theorem1 --bound 100 times on the seed code.  A round
# takes one from each of CERTIFY_STRATA groups of neighbours in this order.
CERTIFY_POOL = [
    (1346, 2393), (538, 1823), (1677, 454), (1670, 2157), (2428, 3777),
    (20, 597), (125, 133), (3215, 3008), (50, 2181), (830, 1451),
    (2899, 2059), (449, 2136), (2279, 1491), (2260, 2691), (607, 3352),
    (2770, 1019), (1862, 3333), (1292, 3717), (2396, 1049), (2091, 913),
    (395, 1939), (139, 2347), (3649, 2818), (3766, 3251), (1132, 2385),
    (3716, 1247), (853, 3828), (1903, 2817), (839, 3162), (1687, 3459),
    (571, 1743), (1971, 17), (511, 3755), (3523, 2569), (3427, 3626),
    (41, 2105), (1245, 2692), (3075, 218), (2888, 273), (1339, 1938),
    (1715, 708), (3663, 1922), (3551, 3762), (1327, 2869), (2616, 2293),
    (205, 2531), (3697, 1271), (460, 3983), (3932, 1365), (2096, 2087),
    (2581, 1449), (3517, 2865), (2879, 3910), (3893, 1633), (1663, 3219),
    (2209, 99), (2557, 3964), (1, 3511), (1699, 3777), (3445, 1433),
]
CERTIFY_STRATA = 20
# Smallest descent rank_lower_bound the seed code reaches at bound 100,
# keyed by (m, n).  A later change may raise a bound, never lower it.
CERTIFY_PINNED_MIN = {
    (83, 243): 7, (125, 243): 7, (155, 237): 7, (147, 241): 7,
    (77, 313): 7, (77, 405): 7, (81, 517): 7,
    (326, 347): 8, (88, 613): 8, (631, 726): 8, (972, 1727): 8,
    (491, 3210): 8, (1191, 3544): 8, (1652, 3739): 8, (3513, 3886): 7,
    (2387, 3743): 9,
    (1623, 3494): 7, (2338, 3351): 7, (2513, 40540): 6, (11888, 40465): 6,
}


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    pairs: int = 0           # twin-search: normalized pairs L(L+1)/2


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------


def euler_quadruple(p: int, q: int) -> tuple[int, int, int, int]:
    """(A, B, C, D)(p, q) of degree 7 with A^4 + B^4 = C^4 + D^4."""
    a = p**7 + p**5 * q**2 - 2 * p**3 * q**4 + 3 * p**2 * q**5 + p * q**6
    b = p**6 * q - 3 * p**5 * q**2 - 2 * p**4 * q**3 + p**2 * q**5 + q**7
    c = p**7 + p**5 * q**2 - 2 * p**3 * q**4 - 3 * p**2 * q**5 + p * q**6
    d = p**6 * q + 3 * p**5 * q**2 - 2 * p**4 * q**3 + p**2 * q**5 + q**7
    return a, b, c, d


def _fraction(obj: dict) -> Fraction:
    den = int(obj["den"])
    if den <= 0:
        raise ValueError(f"denominator {den}")
    return Fraction(int(obj["num"]), den)


def point_errors(points: list, b: int, count: int) -> list[str]:
    """Each point is affine, on y^2 = x^3 + b*x exactly, and not 2-torsion."""
    if len(points) != count:
        return [f"expected {count} points, got {len(points)}"]
    errors = []
    seen = set()
    for i, pt in enumerate(points):
        if pt.get("identity") or pt["curve"] != {"a2": "0", "b": str(b)}:
            errors.append(f"point {i} is the identity or on another curve")
            continue
        x, y = _fraction(pt["x"]), _fraction(pt["y"])
        if y * y != x**3 + b * x:
            errors.append(f"point {i} is not on y^2 = x^3 + {b}x")
        if y == 0 or (x, y) in seen:
            errors.append(f"point {i} is 2-torsion or repeated")
        seen.add((x, y))
    return errors


def _class_product(a: int, b: int) -> int:
    g = math.gcd(a, b)
    return a * b // (g * g)


def descent_errors(d: dict, n: int, bound: int) -> list[str]:
    """Quartic-space solutions, square-class groups and the rank bound."""
    errors = []
    if d["N"] != str(n):
        errors.append("descent N differs from the curve's N")
    for key, classes_key, big_b in (
        ("solutions_E", "classes_E", -n),
        ("solutions_E4", "classes_E4", 4 * n),
    ):
        classes = {int(c) for c in d[classes_key]}
        for s in d[key]:
            dd, u, v, h = (int(s[k]) for k in ("d", "u", "v", "h"))
            if dd == 0 or big_b % dd:
                errors.append(f"{key}: d = {dd} does not divide {big_b}")
                continue
            if dd * u**4 + (big_b // dd) * v**4 != h * h:
                errors.append(f"{key}: ({dd}, {u}, {v}, {h}) is not a solution")
            if not (0 <= u <= bound and 1 <= v <= bound and math.gcd(u, v) == 1):
                errors.append(f"{key}: ({u}, {v}) outside the search box")
            if h and dd not in classes:
                errors.append(f"{key}: class {dd} of a solution is missing")
        if len(classes) != len(d[classes_key]) or 1 not in classes:
            errors.append(f"{classes_key} repeats a class or lacks 1")
        if any(_class_product(a, b) not in classes for a in classes for b in classes):
            errors.append(f"{classes_key} is not closed under multiplication")
    s, s_prime = d["s"], d["s_prime"]
    if s != len(d["classes_E"]) or s_prime != len(d["classes_E4"]):
        errors.append("s or s' differs from the number of classes")
    elif s & (s - 1) or s_prime & (s_prime - 1):
        errors.append("s or s' is not a power of 2")
    else:
        expect = max(s.bit_length() + s_prime.bit_length() - 4, 0)
        if d["rank_lower_bound"] != expect:
            errors.append(f"rank_lower_bound {d['rank_lower_bound']} != log2(s s') - 2")
    return errors


def check_theorem2(u: Fraction, doc: dict) -> list[str]:
    p, q = u.numerator, u.denominator
    a, b, c, d = euler_quadruple(p, q)
    n = a**4 + b**4                       # N(u) * q^28
    if c**4 + d**4 != n:
        return ["benchmark's quadruple is wrong"]
    curve_b = int(doc["curve"]["b"])
    errors = []
    if doc["u"] != str(u) or curve_b != -n or doc["N"] != str(n):
        errors.append(f"curve is not y^2 = x^3 - N(u) q^28 x at u = {u}")
    if Fraction(doc["N_of_u"]) != Fraction(n, q**28):
        errors.append("N_of_u differs from A^4 + B^4")
    errors += point_errors(doc["points"], curve_b, 4)
    reg = doc["regulator"]
    if doc["verdict"] != "rank >= 4" or not reg["independent"] or reg["rank_lower_bound"] != 4:
        errors.append(f"verdict {doc['verdict']!r} is not rank >= 4")
    errors += descent_errors(doc["descent"], n, THEOREM2_BOUND)
    return errors


def check_theorem1(m: int, n: int, label: int | None, doc: dict) -> list[str]:
    big_n = m**4 + n**4
    errors = []
    if doc["N"] != str(big_n) or doc["curve"]["b"] != str(-big_n):
        errors.append(f"curve is not y^2 = x^3 - (m^4 + n^4) x at ({m}, {n})")
    errors += point_errors(doc["points"], -big_n, 2)
    if not errors:
        p1, p2 = doc["points"]
        if (_fraction(p1["x"]), _fraction(p1["y"])) != (-n * n, m * m * n):
            errors.append("P1 is not (-n^2, m^2 n)")
        if _fraction(p2["x"]) != Fraction(m * m + m * n + n * n, m + n) ** 2:
            errors.append("x(P2) is not ((m^2 + mn + n^2) / (m + n))^2")
    reg = doc["regulator"]
    if doc["verdict"] != "rank >= 2" or not reg["independent"] or reg["rank_lower_bound"] != 2:
        errors.append(f"verdict {doc['verdict']!r} is not rank >= 2")
    errors += descent_errors(doc["descent"], big_n, DESCENT_BOUND)
    if label is not None:
        got = doc["descent"]["rank_lower_bound"]
        low = CERTIFY_PINNED_MIN[(m, n)]
        if not low <= got <= label:
            errors.append(f"rank_lower_bound {got} outside [{low}, {label}]")
    return errors


def load_twins() -> list[tuple[int, list[tuple[int, int]]]]:
    data = json.loads(TWINS.read_text())
    return [
        (int(r["N"]), [(a, b) for a, b in r["representations"]])
        for r in data["records"]
    ]


def check_search(limit: int, twins: list, doc: dict) -> list[str]:
    records = doc["records"]
    errors = []
    if doc["limit"] != str(limit) or doc["count"] != len(records):
        errors.append("limit or count field is wrong")
    got = []
    for r in records:
        value = int(r["N"])
        reps = [(int(a), int(b)) for a, b in r["representations"]]
        if len(set(reps)) != len(reps) or len(reps) < 2:
            errors.append(f"{value}: fewer than two distinct representations")
        for a, b in reps:
            if not 0 < a <= b <= limit or a**4 + b**4 != value:
                errors.append(f"{value} != {a}^4 + {b}^4 within the limit")
        got.append((value, sorted(reps)))
    values = [v for v, _ in got]
    if any(x >= y for x, y in zip(values, values[1:])):
        errors.append("records are not strictly increasing")
    if TWIN_SMALLEST not in values:
        errors.append(f"{TWIN_SMALLEST} not found")
    if (TWIN_RANK8 in values) != (limit >= 3494):
        errors.append(f"{TWIN_RANK8} found = {TWIN_RANK8 in values} at L = {limit}")
    expect = []
    for value, reps in twins:
        inside = [r for r in reps if r[1] <= limit]
        if len(inside) >= 2:
            expect.append((value, inside))
    if len(got) != len(expect):
        errors.append(f"{len(got)} records, the pinned enumeration has {len(expect)}")
    elif got != expect:
        errors.append("records differ from the pinned enumeration")
    return errors


def failures(done: list) -> list[tuple[tuple[str, ...], list[str]]]:
    """(argv, errors) for each (item, exit code, stdout, seconds) in done
    whose exit code is not 0 or whose answer fails its check."""
    out = []
    for item, rc, stdout, _ in done:
        try:
            errors = [f"exit code {rc}"] if rc else item.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            errors = [f"malformed output: {exc!r}"]
        if errors:
            out.append((item.argv, errors))
    return out


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _strata_rounds(rng: random.Random, strata: list[list]) -> Iterator[list]:
    """One element per stratum per round, without replacement until a
    stratum runs out, then again in a fresh order."""
    orders = [rng.sample(s, len(s)) for s in strata]
    j = 0
    while True:
        round_ = [order[j % len(order)] for order in orders]
        rng.shuffle(round_)
        yield round_
        j += 1


def _split(seq: list, k: int) -> list[list]:
    return [seq[i * len(seq) // k:(i + 1) * len(seq) // k] for i in range(k)]


def witness_euler(rng: random.Random) -> Iterator[list[Item]]:
    for round_ in _strata_rounds(rng, _split(EULER_BY_COST, EULER_STRATA)):
        items = []
        for text in round_:
            u = Fraction(text)
            check = lambda doc, u=u: check_theorem2(u, doc)
            items.append(Item(("theorem2", "--u", text), check))
        yield items


def table_rows() -> list[tuple[int, int, int]]:
    """(m, n, rank_label) for every representation in the bundled table."""
    table = json.loads(TABLE.read_text())
    return [
        (int(a), int(b), group["rank_label"])
        for group in table["groups"]
        for entry in group["entries"]
        for a, b in entry["representations"]
    ]


def theorem1_item(m: int, n: int, label: int | None) -> Item:
    argv = ("theorem1", "--m", str(m), "--n", str(n), "--bound", str(DESCENT_BOUND))
    return Item(argv, lambda doc: check_theorem1(m, n, label, doc))


def certify_table(rng: random.Random) -> Iterator[list[Item]]:
    rows = table_rows()
    for picks in _strata_rounds(rng, _split(CERTIFY_POOL, CERTIFY_STRATA)):
        items = [theorem1_item(m, n, label) for m, n, label in rows]
        items += [theorem1_item(m, n, None) for m, n in picks]
        rng.shuffle(items)
        yield items


def twin_search(rng: random.Random) -> Iterator[list[Item]]:
    twins = load_twins()
    limits = list(range(TWIN_LOW, TWIN_HIGH + 1))
    strata = _split(limits, TWIN_STRATA)
    for round_ in _strata_rounds(rng, strata):
        # largest L first: the run's memory high-water mark is then set by
        # one call on a fresh heap, not by the allocator's history
        yield [
            Item(
                ("search", "--limit", str(L)),
                lambda doc, L=L: check_search(L, twins, doc),
                pairs=L * (L + 1) // 2,
            )
            for L in sorted(round_, reverse=True)
        ]


WORKLOADS = {
    "witness-euler": witness_euler,
    "certify-table": certify_table,
    "twin-search": twin_search,
}
