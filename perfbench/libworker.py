"""One pass of a library workload, in a fresh process.

Usage: python3 perfbench/libworker.py JOB REPORT

JOB is a JSON file with the seeded calls, whether to check the answers,
whether to trace, where to write spans, and the golden h table.  The worker
checks that every memo is empty, times each call of the stream in order
(with a reference sample of calib.py before the first call and every 50 ms
of the stream, timed apart), records the memo counts and span totals, and
only then checks every answer by a second route, so that checking never
warms a memo the timed stream used.
It writes wall time, reference sample times, peak memory, per-call
latencies, failed call indices, an output digest, memo counts and span
totals as JSON to REPORT.
"""

import hashlib
import json
import sys
import time

import invkostka as ik

import calib
import probe

CAL_EVERY_NS = 50_000_000


def _call_table():
    """kind -> function of the decoded arguments.  Names are looked up in the
    package at call time, so installed span wrappers are the ones called."""
    return {
        "duan": lambda lam, mu: ik.inv_kostka_duan(lam, mu),
        "er": lambda lam, mu: ik.inv_kostka_er(lam, mu),
        "brute": lambda lam, mu: ik.inv_kostka_bruteforce(lam, mu),
        "row": lambda lam: ik.monomial_to_schur(lam),
        "chains_S": lambda lam, mu: ik.enumerate_chains_S(lam, mu),
        "chains_T": lambda lam, mu: ik.enumerate_chains_T(lam, mu),
        "fpoly": lambda lam, mu: ik.f_polynomial(lam, mu),
        "steenrod_P": lambda k, m, p: ik.steenrod_P(k, m, p),
        "steenrod_Sq": lambda k, m: ik.steenrod_Sq(k, m),
        "gpoly": lambda k, l: ik.g_polynomial(k, l),
        "pieri": lambda lam, r, n: (
            ik.expansion_to_polynomial(ik.pieri_multiply(ik.SchurExpansion({lam: 1}), r), n),
            ik.schur(lam, n) * ik.elementary_symmetric(r, n),
        ),
        "h_matrix": lambda b: (ik.h_polynomial(b), ik.h_polynomial_matrix(b)),
        "g_closed": lambda k, l: (ik.g_polynomial(k, l), ik.corollary5(k, l)),
        "golden_h": lambda b: ik.h_polynomial(b),
    }


def _decode(call):
    kind, *args = call
    return kind, tuple(ik.Partition(a) if isinstance(a, list) else a for a in args)


def _row_by_er(lam, p=None):
    out = {}
    for mu in ik.enumerate_partitions(lam.weight):
        v = ik.inv_kostka_er(lam, mu)
        if p is not None:
            v %= p
        if v:
            out[mu] = v
    return out


def _check(kind, args, ans, golden_h) -> bool:
    """The answer, re-derived by a route the call did not take."""
    if kind == "duan":
        return ans == ik.inv_kostka_er(*args)
    if kind in ("er", "brute"):
        return ans == ik.inv_kostka_duan(*args)
    if kind == "row":
        return ans.coeffs == _row_by_er(args[0])
    if kind in ("chains_S", "chains_T"):
        return sum(c.sign for c in ans) == ik.inv_kostka_er(*args)
    if kind == "fpoly":
        return ans(1) == ik.inv_kostka_er(*args)
    if kind in ("steenrod_P", "steenrod_Sq"):
        k, m, p = args if kind == "steenrod_P" else (*args, 2)
        lam = ik.Partition.from_multiplicities(((1, m - k), (p, k)))
        return ans.coeffs == _row_by_er(lam, p)
    if kind == "gpoly":
        k, l = args
        lam = ik.Partition.from_multiplicities(((1, k), (3, l)))
        w = k + 3 * l
        want = [
            ik.inv_kostka_er(lam, ik.Partition.from_multiplicities(((1, w - 2 * b), (2, b))))
            for b in range(w // 2 + 1)
        ]
        return ans == ik.UniPolynomial(want)
    if kind in ("pieri", "h_matrix", "g_closed"):
        return ans[0] == ans[1]
    if kind == "golden_h":
        return ans == ik.UniPolynomial(golden_h[str(args[0])])
    raise ValueError(kind)


def _canon(ans) -> str:
    if isinstance(ans, tuple):
        return "|".join(_canon(a) for a in ans)
    if isinstance(ans, ik.SparsePolynomial):
        return repr(ans.items())
    return repr(ans)


def main() -> int:
    job_path, report_path = sys.argv[1:]
    with open(job_path) as f:
        job = json.load(f)
    report = {"cold": probe.memos_empty()}
    tracer = None
    if job["trace"]:
        tracer = probe.Tracer()
        tracer.install()
    table = _call_table()
    calls = [_decode(c) for c in job["calls"]]
    ops = [(table[kind], args) for kind, args in calls]
    answers, lat_ns, failed = [], [], []
    clock = time.perf_counter_ns

    # reference samples (calib.py) before the first call and every
    # CAL_EVERY_NS of the stream, kept out of its wall time and latencies
    cal_ns, paused = [], 0
    start = clock()
    last_cal = start - CAL_EVERY_NS
    for i, (fn, args) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        if t0 - last_cal >= CAL_EVERY_NS:
            cal_ns.append(round(calib.sample() * 1e9))
            last_cal = clock()
            paused += last_cal - t0
            t0 = last_cal
        try:
            ans = fn(*args)
        except Exception as e:  # a failed op is counted, not fatal
            ans = e
            failed.append(i)
        lat_ns.append(clock() - t0)
        answers.append(ans)
    report["wall_ns"] = clock() - start - paused
    report["cal_ns"] = cal_ns
    # peak memory of the timed work, before checking adds its own
    report["maxrss_kb"] = probe.peak_rss_kb()

    report["memo"] = probe.memo_counts()
    if tracer is not None:
        timed = len(tracer.spans)
        report["spans"] = tracer.summary(timed)
        if job["spans"]:
            tracer.write(job["spans"], timed)

    if job["check"]:  # only now that timing is over
        for i, ((kind, args), ans) in enumerate(zip(calls, answers)):
            if not isinstance(ans, Exception) and not _check(kind, args, ans, job["golden_h"]):
                failed.append(i)
    report["failed"] = sorted(failed)
    report["lat_ns"] = lat_ns
    report["digest"] = hashlib.sha256(
        "\n".join(_canon(a) for a in answers).encode()
    ).hexdigest()
    with open(report_path, "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
