"""How fast the machine runs at the moment, from a fixed reference routine.

The shared virtual machines this benchmark runs on change speed by up to
1.8x in phases that last from a second to minutes (see NOTES.md, Noise).
Every run therefore times this routine many times, spread over the run
in between the program's work, and reports its times in *reference
seconds*: measured seconds divided by the run's speed factor, the median
time of the routine over ``REF_S``.  The routine is plain Python of the
kind invkostka does (a memoised recursion over tuple keys, big integers,
sorting tuples) and never imports invkostka, so a change to the program
cannot move it: a program that gets slower reads slower in reference
seconds as well.
"""

from __future__ import annotations

import gc
import statistics
import time

# typical mean time of one sample on the machine of the baseline (Python 3.11.7,
# 2 vCPUs of an "Intel(R) Xeon(R) Processor" at 2.1 GHz), the median of 20 runs
REF_S = 0.008


def reference_work() -> int:
    memo: dict[tuple[int, int], int] = {}

    def count(m: int, k: int) -> int:
        key = (m, k)
        got = memo.get(key)
        if got is not None:
            return got
        total = 1 if m == 0 else sum(count(m - j, j) for j in range(1, min(m, k) + 1))
        memo[key] = total
        return total

    x, rows = 12345, []
    for _ in range(4000):
        x = (x * 1103515245 + 12345) % 2147483648
        rows.append((x % 97, x, str(x)))
    rows.sort()
    return count(60, 60) * 3 ** 200 % 1000003 + len(rows)


def sample() -> float:
    """Seconds one run of the reference routine takes now.  The garbage
    collector is off meanwhile: its passes cost in proportion to the
    program's live objects, which would make the sample depend on the
    program's memos."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    """How much slower than the reference machine the samples ran.  The
    mean, not the median: time the machine takes away in bursts slows the
    program in proportion to the share of time it takes, which the mean
    sample time follows."""
    return statistics.fmean(samples) / REF_S
