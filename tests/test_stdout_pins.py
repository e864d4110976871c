"""One sha256 of (exit code, stdout) per argv, over a sweep of every verb
but search and height: a refactor must leave all of them byte-identical.

A change that alters stdout on purpose re-records the pins with

    PYTHONPATH=src python tests/test_stdout_pins.py

and names them in CHANGES.md, as for golden_cli.json.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from biquad.cli import main

PINS = Path(__file__).parent / "data" / "stdout_pins.json"
TABLE = Path(__file__).resolve().parent.parent / "src" / "biquad" / "data" / "decompositions.json"


def sweep() -> list[list[str]]:
    """1,058 argv: degenerate, rejected and oversized inputs among them."""
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
    return cases


def pin(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_stdout_pins():
    pins = json.loads(PINS.read_text())
    cases = sweep()
    assert len(cases) == 1058 and sorted(pins) == sorted(" ".join(a) for a in cases)
    differ = [" ".join(a) for a in cases if pin(a) != pins[" ".join(a)]]
    assert not differ, f"{len(differ)} argv changed stdout or exit code: {differ}"


if __name__ == "__main__":
    PINS.write_text(json.dumps({" ".join(a): pin(a) for a in sweep()}, indent=0) + "\n")
