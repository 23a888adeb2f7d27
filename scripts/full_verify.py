"""Run every cross-validation suite and print the report, each suite line
with that suite's time, then the total time and, where /proc is mounted,
the process's peak resident memory.

Usage: python scripts/full_verify.py [--max-weight W]

Weight 8 is the acceptance-level sweep; higher weights grow combinatorially.
"""

import argparse
import sys
import time

from invkostka import verify_suite


def peak_rss_mb() -> float | None:
    """This process's peak resident memory (VmHWM), or None without /proc."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", type=int, default=8)
    max_weight = ap.parse_args().max_weight
    if max_weight < 0:
        ap.error(f"--max-weight must be non-negative, got {max_weight}")

    t0 = time.perf_counter()
    report = verify_suite(max_weight)
    elapsed = time.perf_counter() - t0
    lines = report.summary_lines()
    for suite, line in zip(report.suites, lines):
        print(f"{line} [{suite.elapsed:.2f}s]")
    print(lines[-1])
    print(f"elapsed: {elapsed:.2f}s")
    peak = peak_rss_mb()
    if peak is not None:
        print(f"peak RSS: {peak:.1f} MB")
    return 0 if report.ok else 3


if __name__ == "__main__":
    sys.exit(main())
