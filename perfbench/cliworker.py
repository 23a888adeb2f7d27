"""Run one invkostka command line in a fresh process, for the benchmark.

Usage: python3 perfbench/cliworker.py REPORT TRACE SPANS OP -- ARGS...

Runs ``invkostka.cli.run(ARGS)`` exactly as ``python3 -m invkostka ARGS``
does, with the same stdout, stderr and exit code.  Before the command it
checks that every memo is empty and, when TRACE is 1, installs the span
wrappers (spans are written to SPANS unless it is ``-``; OP is the op id
spans carry).  After the command it takes CAL_SAMPLES reference samples
(calib.py) and writes the memo counts, its peak resident memory, the
sample times and the span totals as JSON to REPORT.
"""

import json
import sys

import invkostka.cli as cli

import calib
import probe

CAL_SAMPLES = 12


def main() -> int:
    report_path, trace, spans_path, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    report = {"cold": probe.memos_empty()}
    tracer = None
    if trace == "1":
        tracer = probe.Tracer()
        tracer.op = int(op)
        tracer.install()
    code = cli.run(argv)
    sys.stdout.flush()
    report["memo"] = probe.memo_counts()
    report["maxrss_kb"] = probe.peak_rss_kb()
    # after the peak memory is read, so that they do not add to it
    report["cal_ns"] = [round(calib.sample() * 1e9) for _ in range(CAL_SAMPLES)]
    if tracer is not None:
        report["spans"] = tracer.summary()
        if spans_path != "-":
            tracer.write(spans_path)
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
