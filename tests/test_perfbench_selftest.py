"""The benchmark's negative control runs as part of the test suite.

``perfbench/selftest.py`` feeds genuine and corrupted answers through the
exact checks the benchmark applies.  An output change those checks would
reject therefore fails here first, not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
