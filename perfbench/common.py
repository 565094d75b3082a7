"""Shared plumbing for the benchmark workloads.

Timing, operation accounting, peak memory, span arithmetic and the
result line live here so every workload measures the same way:

* every timed sample runs after ``gc.collect()`` with the collector left
  enabled, and is consumed inside the timer;
* operation kinds are interleaved round-robin inside a round, and a run
  only ever executes whole rounds;
* a metric is the median over the samples of one run;
* every timing is scaled to a nominal host speed (see
  :func:`reference_seconds`), because this class of host changes speed
  by up to 1.7x in phases lasting tens of seconds.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

#: Dataset and query constants shared by the workloads.
K = 10
WORLDS = 8

#: The threshold query runs at T = (K-th heaviest closure weight) - 0.5,
#: never exactly at a group weight: with T equal to a group's weight the
#: query drops that group on some inputs (prune keeps only groups whose
#: upper bound is strictly above T), and a benchmark operation must not
#: fail on some seeds only.  The check against the oracle stays exact.
THRESHOLD_OFFSET = 0.5

#: Seconds the reference loop takes on the nominal host.  Timings are
#: reported as ``measured * REFERENCE_NOMINAL_S / reference``, i.e. in
#: seconds on a host where the loop takes exactly this long.
REFERENCE_NOMINAL_S = 0.015
REFERENCE_ITERATIONS = 200_000


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def host_scale(references: list[float]) -> float:
    """Factor that turns seconds measured beside *references* into
    seconds on the nominal host."""
    return REFERENCE_NOMINAL_S / statistics.median(references)


class Ledger:
    """Attempted and failed operations per kind, plus the checks made."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.problems: list[str] = []
        self.checks = 0

    def attempt(self, kind: str, count: int = 1) -> None:
        self.attempted[kind] += count

    def fail(self, kind: str, why: str) -> None:
        self.failed[kind] += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {why}")

    def check(self, kind: str, ok: bool, why: str) -> bool:
        """Record one answer check against operation kind *kind*."""
        self.checks += 1
        if not ok:
            self.fail(kind, why)
        return ok

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        # A kind never reports more failures than attempts, so several
        # failed checks on one answer still count one failed operation.
        return sum(
            min(self.failed[kind], self.attempted[kind]) for kind in self.failed
        )


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Run *fn* once after a collection; return (seconds, result)."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def another_round(start: float, round_start: float, seconds: float) -> bool:
    """True when one more round as long as the last still ends within
    *seconds* of *start*: runs are whole rounds and stay near their
    nominal length."""
    now = time.perf_counter()
    return (now - start) + (now - round_start) <= seconds


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_seconds(span) -> float:
    """A span's wall time minus the part its children cover."""
    return span.wall_seconds - sum(child.wall_seconds for child in span.children)


def walk(span):
    """Yield *span* and every descendant, depth first."""
    yield span
    for child in span.children:
        yield from walk(child)


def self_time_by_name(root) -> dict[str, float]:
    """Sum of self times per span name under *root* (inclusive)."""
    totals: dict[str, float] = defaultdict(float)
    for span in walk(root):
        totals[span.name] += self_seconds(span)
    return totals


def report(
    ledger: Ledger,
    metrics: dict[str, tuple[float, str]],
    samples: dict[str, int] | None = None,
) -> int:
    """Print the human-readable lines and the final JSON result line.

    Returns the process exit code: 0 when every operation succeeded.
    """
    for kind in sorted(ledger.attempted):
        print(
            f"ops {kind}: attempted={ledger.attempted[kind]} "
            f"failed={min(ledger.failed[kind], ledger.attempted[kind])}"
        )
    print(f"checks made: {ledger.checks}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if samples and name in samples else ""
        print(f"metric {name} = {value:.6g} {unit}{count}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            ledger.fail("report", f"metric {name} is not finite")
    result = {
        "correct": ledger.total_failed == 0,
        "attempted": max(1, ledger.total_attempted),
        "failed": ledger.total_failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if ledger.total_failed == 0 else 1
