"""Arithmetic the benchmark reports with, kept free of ssdr and of I/O so
that it can be unit tested on its own.

- `tail_percentile`: the highest percentile with at least ten samples
  beyond it (never below the median).
- `fail_ratio`: failed operations over attempted operations.
- `Tracer`: nested spans with inclusive (busy) and self time, plus exact
  integer counters.
- `spread`: interquartile range over the median, the steadiness measure.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int:
    """1-based rank in the ascending sort of n samples of the highest order
    statistic with at least `beyond` samples above it.  When n is too small
    for that, the middle rank (the lower middle one for even n) is used
    instead, so the tail never reads below the middle of the sample."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(n - beyond, math.ceil(n / 2))


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the tail statistic described in `tail_rank`."""
    ordered = sorted(values)
    k = tail_rank(len(ordered), beyond)
    return float(ordered[k - 1]), 100.0 * k / len(ordered)


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def count_failures(ok_flags) -> tuple[int, int]:
    """(attempted, failed) over per-operation success flags."""
    flags = list(ok_flags)
    return len(flags), sum(1 for ok in flags if not ok)


def spread(values) -> float:
    """Interquartile distance over the median, as the steadiness check
    computes it (`statistics.quantiles(values, n=4)`)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Tracer:
    """Span and counter store.

    A span's busy time is its wall duration; its self time is that duration
    minus the durations of the spans opened directly inside it.  The traced
    run is single-threaded, so one span stack serves.  Counters are plain
    integers so that work counts repeat exactly between runs.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> float:
        name, t0, child = self._stack.pop()
        duration = self._clock() - t0
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "self": dict(self.self_time), "counts": dict(self.counts)}


def snapshot_delta(after: dict, before: dict) -> dict:
    """Per-key difference of two `Tracer.snapshot`s (keys absent before
    count from zero)."""
    return {kind: {k: v - before[kind].get(k, 0) for k, v in table.items()
                   if v != before[kind].get(k, 0)}
            for kind, table in after.items()}
