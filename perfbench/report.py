#!/usr/bin/env python3
"""Run every workload untraced and traced; print all metrics by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 15]

For each workload this prints run.py's own summary (end-to-end metrics,
the tail percentile with its sample count, pairs_per_s on twin-search,
failed_fraction, then every per-layer metric), followed by the tracing
overhead and how much of the traced item wall time the layers' self
times account for.  The exit code is 1 when any answer failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = (
    "heights.self_s", "arith.factorize.self_s", "descent.self_s", "curves.self_s",
    "families.self_s", "search.twin_search.self_s", "cli.self_s",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        rc0, plain = run(workload, args.seed, args.seconds, 0)
        rc1, traced = run(workload, args.seed, args.seconds, 1)
        ok &= rc0 == rc1 == 0 and plain.get("correct") and traced.get("correct")
        if not (plain and traced):
            print(f"{workload}: no result (exit codes {rc0}, {rc1})", flush=True)
            continue
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        accounted = sum(layer[k] for k in LAYERS) / layer["trace.item_wall_s"]
        print(f"{workload}: tracing overhead "
              f"latency_p50_s {layer['trace.latency_p50_s'] / e2e['latency_p50_s'] - 1:+.1%}, "
              f"items_per_s {layer['trace.items_per_s'] / e2e['items_per_s'] - 1:+.1%}; "
              f"layer self times cover {accounted:.4%} of traced item wall time",
              flush=True)
    print("all answers correct" if ok else "SOME ANSWERS FAILED THEIR CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
