#!/usr/bin/env python3
"""biquad benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload witness-euler --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; biquad is imported from ./src.
The run first times a fresh interpreter getting ready (setup_s), then
calls ``biquad.cli.main(argv)`` in this process with stdout captured,
round after round, until --seconds have passed (whole rounds only).
After the timed loop every answer is re-checked exactly.  All times are
scaled to a reference CPU speed (see Speed below and README.md).

--trace 0 reports the end-to-end metrics; --trace 1 wraps every layer's
entry point (see tracing.py), reports the per-layer metrics and writes
the spans to perfbench/out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; a readable summary
goes to stderr.  The exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
# The CPU speed of the machine this was built on drifts by 15-25% over
# seconds to minutes, far more than any bound could absorb.  A fixed
# reference loop therefore runs between timed intervals, and each interval
# is scaled by REF_NOMINAL_S / (the loop's median time in the six runs of
# it nearest that interval).
REF_LOOPS = 200_000
REF_NOMINAL_S = 0.022
# what a CLI call pays before it can start working
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import biquad.cli, biquad.search\n"
    "biquad.search.load_decomposition_tables()\n"
    "print('ready', flush=True)\n"
)


class Speed:
    """Times of the reference loop, taken between timed intervals."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Multiplier that scales a time taken while samples[lo:hi] were
        taken to the reference speed."""
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])


def spawn() -> float:
    """Wall time from spawning a fresh interpreter until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("setup child failed")
    return elapsed


def measure_setup(speed: Speed) -> list[float]:
    """SETUP_SAMPLES spawn times, scaled to the reference speed."""
    spawn()                         # untimed: the OS caches the files it reads
    first = len(speed.samples)
    speed.sample()
    samples = []
    for _ in range(SETUP_SAMPLES):
        samples.append(spawn())
        speed.sample()
    factor = speed.factor(first)
    return [t * factor for t in samples]


def call_cli(main, argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:       # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), time.perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it, and that
    percentile (the minimum when there are fewer than 11 samples)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "biquad" / "cli.py").is_file():
        print(f"error: no biquad sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one thread: numpy must not start a BLAS pool (set before it is imported)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import biquad.arith
    import biquad.cli
    import workloads
    from tracing import Tracer

    if Path(biquad.cli.__file__).resolve().parent != SRC / "biquad":
        print(f"error: imported biquad from {biquad.cli.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    speed = Speed()
    setup = None if args.trace else measure_setup(speed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sys.modules)

    # Pollard rho and Miller-Rabin draw from one generator seeded at import,
    # so an item's factoring work would depend on every item before it.
    # Restoring its import-time state gives each item the work a fresh
    # `biquad` process does for it.
    rng = getattr(biquad.arith, "_rng", None)
    rng_state = rng.getstate() if rng else None

    rounds = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    done = []                       # (item, rc, stdout, seconds)
    n_rounds = 0
    first = len(speed.samples)
    speed.sample()
    start, spent = time.perf_counter(), speed.spent
    while True:
        for item in next(rounds):
            if rng:
                rng.setstate(rng_state)
            if tracer:
                tracer.item = len(done)
            done.append((item, *call_cli(biquad.cli.main, item.argv)))
            speed.sample()
        n_rounds += 1
        wall = time.perf_counter() - start - (speed.spent - spent)
        if wall * speed.factor(first) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failures = workloads.failures(done)
    attempted, failed = len(done), len(failures)
    # item k ran between samples first + k and first + k + 1
    raw = [dt for *_, dt in done]
    latencies = [
        dt * speed.factor(max(first, first + k - 2), first + k + 4)
        for k, dt in enumerate(raw)
    ]
    factor = sum(latencies) / sum(raw)
    p50 = statistics.median(latencies)
    tail_s, tail_pct = tail(latencies)
    items_per_s = (attempted - failed) / (wall * factor)

    kind = "per_layer" if tracer else "end_to_end"
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.items"] = attempted
        metrics["trace.item_wall_s"] = sum(raw)
        metrics["trace.latency_p50_s"] = p50
        metrics["trace.items_per_s"] = items_per_s
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_s": p50,
            "latency_tail_s": tail_s,
            "items_per_s": items_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if units.keys() != metrics.keys():
        print(f"error: metrics differ from {kind} in BENCHMARK.json", file=sys.stderr)
        return 2

    log = sys.stderr
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} items "
          f"in {n_rounds} round(s), {wall:.1f} s; times scaled by {factor:.3f} "
          f"to the reference speed (raw p50 {statistics.median(raw):.4g} s)", file=log)
    for argv, errors in failures[:10]:
        print(f"  FAILED {' '.join(argv)}: {'; '.join(errors[:3])}", file=log)
    for name, value in metrics.items():
        print(f"  {name:40} {value:<12.6g} {units[name]}", file=log)
    if not tracer:
        print(f"  {'latency_tail_s percentile':40} p{tail_pct:<11.1f} of {attempted} samples", file=log)
        pairs = sum(item.pairs for item, *_ in done)
        if pairs:
            print(f"  {'pairs_per_s':40} {pairs / (wall * factor):<12.6g} 1/s", file=log)
        print(f"  {'failed_fraction':40} {failed / attempted:<12.6g} ({failed} of {attempted})", file=log)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
