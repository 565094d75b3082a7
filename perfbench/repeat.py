"""Repeat the benchmark to measure its own run-to-run spread.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --runs 10 --seconds 20 \
        [--workload batch-citations ...] [--trace 0] [--first-seed 1]

Each run uses the next seed.  Before every run a fixed pure-Python
reference loop is timed, so host-speed drift can be told apart from a
change in the program.  For each workload and metric the script prints
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread ``(q3 - q1) / median``.  For end-to-end metrics it
also prints the bound derived from that spread: three times the spread,
rounded up to a multiple of 0.05, at least 0.05 and at most 0.25.  A
metric whose three-times spread exceeds 0.25 is marked unsteady.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-citations", "dedup-addresses", "serve-citations")
MAX_BOUND = 0.25


def reference_loop() -> float:
    """Seconds for a fixed amount of pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        failures = [line for line in lines if line.startswith("FAILED")]
        print(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{failures or done.stderr.strip().splitlines()[-1:]}",
            flush=True,
        )
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def derived_bound(spread: float) -> float:
    return min(MAX_BOUND, max(0.05, math.ceil(3 * spread * 20 - 1e-9) / 20))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--same-seed", action="store_true",
        help="reuse --first-seed for every run (host noise alone)",
    )
    args = parser.parse_args()
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        references: list[float] = []
        failed_shares: set[float] = set()
        for index in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else index)
            references.append(reference_loop())
            started = time.perf_counter()
            result = run_once(workload, seed, seconds, args.trace)
            wall = time.perf_counter() - started
            if result is None:
                continue
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = " ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()
                if name in end_to_end
            )
            print(
                f"{workload} seed={seed} wall={wall:.1f}s "
                f"reference={references[-1]:.3f}s "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"{shown}",
                flush=True,
            )
        q1, q2, q3 = statistics.quantiles(references, n=4)
        print(
            f"{workload} reference loop: median={q2:.4f}s "
            f"q1={q1:.4f}s q3={q3:.4f}s spread={(q3 - q1) / q2:.3f}"
        )
        print(f"{workload} failed shares: {sorted(failed_shares)}")
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            line = (
                f"{workload} {name}: median={q2:.6g} q1={q1:.6g} "
                f"q3={q3:.6g} spread={spread:.3f}"
            )
            if name in end_to_end:
                line += f" bound>={derived_bound(spread):.2f}"
                if 3 * spread > MAX_BOUND:
                    line += " UNSTEADY"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
