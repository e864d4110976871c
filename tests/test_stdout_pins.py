"""One sha256 of (exit code, stdout) per argv, over a sweep of every verb:
a refactor must leave all of them byte-identical.  The height runs take
the family points themselves, so the sweep is built from ``families``.

A change that alters stdout on purpose re-records the pins, and the
"stdout" and "code" fields of every case in golden_cli.json, with

    PYTHONPATH=src python tests/test_stdout_pins.py

and names the changed ones in CHANGES.md.  On an unchanged tree it leaves
both files byte-identical.
"""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from biquad.cli import main
from biquad.families import (
    euler_associated_points,
    euler_family_points,
    general_family_points,
    specialize_euler,
    specialize_general,
)

PINS = Path(__file__).parent / "data" / "stdout_pins.json"
GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
TABLE = Path(__file__).resolve().parent.parent / "src" / "biquad" / "data" / "decompositions.json"


def _height(b: int, x: Fraction, y: Fraction) -> list[str]:
    return ["height", "--curve", str(b), "--point", f"({x},{y})"]


def _associated(u: Fraction) -> list[list[str]]:
    """height of Q1 and Q2 at u = p/q on y^2 = x^3 + 4N(p, q)*x."""
    curve, _, _ = specialize_euler((), u)
    p, q = u.numerator, u.denominator
    values = [[f.evaluate(p, q) for f in (pt.x, pt.y, pt.z)] for pt in euler_associated_points()]
    return [_height(-4 * curve.b, Fraction(x, z * z), Fraction(y, z**3)) for x, y, z in values]


def sweep() -> list[list[str]]:
    """1,132 argv: degenerate, rejected and oversized inputs among them."""
    cases = [
        ["theorem2", f"--u={p}/{q}"]
        for q in range(1, 13)
        for p in range(-12, 13)
        if math.gcd(p, q) == 1
    ]
    cases += [
        ["theorem1", "--m", str(m), "--n", str(n)]
        for m in range(-14, 15)
        for n in range(-14, 15)
    ]
    table = json.loads(TABLE.read_text())
    cases += [
        ["theorem1", "--m", a, "--n", b, "--bound", "100"]
        for group in table["groups"]
        for entry in group["entries"]
        for a, b in entry["representations"]
    ]
    cases += [["verify-identities"], ["verify-identities", "--mutate"]]
    cases += [
        ["descent", "--N", str(N), "--bound", "20"]
        for N in (17, 635318657, 141262310897, 2, 4, 1024)
    ]
    cases += [["theorem2", f"--u={u}"] for u in ("1000003/7", "99991/10007", "1e5000", "1e160")]
    cases += [["descent", "--N", "17", "--bound", bound] for bound in ("10001", "-1")]
    for n in range(2, 9):
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                curve, points, _ = specialize_general(general_family_points(), m, n)
                cases += [_height(curve.b, pt.x, pt.y) for pt in points]
    for u in map(Fraction, ("2", "5/3", "3/2", "7/12")):
        curve, points, _ = specialize_euler(euler_family_points(), u)
        cases += [_height(curve.b, pt.x, pt.y) for pt in points] + _associated(u)
    # 635318657 = 59^4 + 158^4 = 133^4 + 134^4 first appears at limit 158
    cases += [["search", "--limit", str(L)] for L in (2, 100, 157, 158, 300, 600, 960, 1500)]
    return cases


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of the CLI on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def pin(argv: list[str]) -> str:
    code, out = run(argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def golden_text(cases: list[dict]) -> str:
    """golden_cli.json as written: per case one ' {"argv": ...' line, with
    "code" only when it is nonzero, then its '  "stdout": ...' line."""
    lines = [
        f' {{"argv": {json.dumps(c["argv"])}'
        + (f', "code": {c["code"]}' if c.get("code") else "")
        + f',\n  "stdout": {json.dumps(c["stdout"])}}}'
        for c in cases
    ]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_stdout_pins():
    pins = json.loads(PINS.read_text())
    cases = sweep()
    assert len(cases) == 1132 and sorted(pins) == sorted(" ".join(a) for a in cases)
    differ = [" ".join(a) for a in cases if pin(a) != pins[" ".join(a)]]
    assert not differ, f"{len(differ)} argv changed stdout or exit code: {differ}"


def test_golden_layout():
    """The recorder writes golden_cli.json back in the layout it has."""
    text = GOLDEN.read_text()
    assert golden_text(json.loads(text)) == text


if __name__ == "__main__":
    PINS.write_text(json.dumps({" ".join(a): pin(a) for a in sweep()}, indent=0) + "\n")
    cases = []
    for case in json.loads(GOLDEN.read_text()):
        code, out = run(case["argv"])
        cases.append({"argv": case["argv"], "code": code, "stdout": out})
    GOLDEN.write_text(golden_text(cases))
