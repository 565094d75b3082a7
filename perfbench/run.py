"""Benchmark entry point: run one workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-citations --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` arms the program's tracer and metrics registry and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and every answer check
passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.getcwd(), "src")
WORKLOADS = ("batch-citations", "dedup-addresses", "serve-citations")


def layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def stop_helpers() -> None:
    """Reap every child process and stop multiprocessing's resource tracker.

    A ``workers=2`` query forks a process pool and creates shared memory,
    which starts the resource tracker: a helper process that otherwise
    outlives this one by a moment, until it reads end-of-file on its pipe.
    Stopping it here closes that pipe and waits for the helper to end.
    """
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def terminate(signum, frame) -> None:
    """Turn SIGTERM into SystemExit so every ``finally`` stops its child."""
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    try:
        return run(argv)
    finally:
        stop_helpers()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(
            f"error: no program source at {SOURCE}/repro; run from the "
            f"root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE, os.environ.get("PYTHONPATH", "")])
    )

    from common import Ledger, report

    ledger = Ledger()
    if args.workload == "serve-citations":
        import serve as workload
    else:
        import inproc as workload
    if args.trace:
        units = layer_units()
        figures = workload.run_traced(
            args.workload, args.seed, args.seconds, ledger, list(units)
        )
        metrics = {name: (figures[name], unit) for name, unit in units.items()}
        return report(ledger, metrics)
    metrics, counts = workload.run_untraced(
        args.workload, args.seed, args.seconds, ledger
    )
    return report(ledger, metrics, counts)


if __name__ == "__main__":
    sys.exit(main())
