"""The invkostka benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S        # every workload in turn
    python3 perfbench/run.py --smoke

Workloads (see NOTES.md for why each exists): matrix-cold, verify-sweep,
query-mix, poly-kernels.  A run repeats one seeded pass of its workload,
each pass in fresh processes, while the next pass should end within S
seconds.  Every output is checked, every memo must be empty when a pass
starts, and every pass must produce the same output digest and the same
memo counts.  With --trace 1, untraced and traced passes alternate; the
traced ones give the per-layer metrics and the digests must agree.  Times
are reported in reference seconds: measured seconds over the run's speed
factor, which reference samples spread over the run give (calib.py).

A workload's report ends with one JSON line with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The lines before it
give each metric with its unit and sample count, and the memo counts.
--smoke runs every workload at a tiny size in both modes and checks that
the reported metric names and units are those of BENCHMARK.json.  Without
--seconds a run lasts BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import inputs
import probe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORK = OUT / f"run-{os.getpid()}"  # this run's child files, removed at its end
SETUP_SAMPLES = 9
SETUP_CODE = "import invkostka.cli as cli; cli.build_parser()"


def _child_env() -> dict:
    """The caller's environment, with invkostka from this checkout and with
    the interpreter's defaults for bytecode caching and stdout buffering, as
    an installed command gets them."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv: list[str]) -> tuple[int, float, bytes, bytes]:
    """Run one child to completion with stdout and stderr in files.
    Returns exit code, wall seconds, stdout, stderr."""
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_child_env())
        try:
            proc.wait()
        finally:
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, out_path.read_bytes(), err_path.read_bytes()


def _setup_sample() -> float:
    """Fresh interpreter to ready: start, import invkostka, build the parser."""
    code, wall, _, err = _spawn([sys.executable, "-c", SETUP_CODE])
    if code or err:
        raise SystemExit(f"set-up probe failed ({code}): {err.decode(errors='replace')}")
    return wall


# ---------------------------------------------------------------------------
# passes


def _add(total: dict, part: dict) -> None:
    """Add per-name counters (memo counts, span totals) of one process."""
    for name, counts in part.items():
        entry = total.setdefault(name, dict.fromkeys(counts, 0))
        for k, v in counts.items():
            entry[k] += v


def _cli_pass(argvs: list, trace: bool, spans_stem: str | None, ref: dict,
              cal: list[float]) -> dict:
    p = {"wall": 0.0, "lat": [], "rss": 0.0, "failed": 0, "cold": True,
         "memo": {}, "spans": {}, "output_bytes": 0}
    digest = hashlib.sha256()
    report_path = WORK / "report.json"
    for j, argv in enumerate(argvs):
        spans = str(OUT / f"{spans_stem}-op{j}.tsv") if spans_stem else "-"
        report_path.unlink(missing_ok=True)
        code, wall, out, err = _spawn(
            [sys.executable, str(HERE / "cliworker.py"), str(report_path),
             "1" if trace else "0", spans, str(j), "--", *argv])
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        # the process's reference samples are not the command's time
        samples = [t / 1e9 for t in report.get("cal_ns", [])]
        cal.extend(samples)
        wall -= sum(samples)
        ok = code == 0 and not err and report.get("cold", False) \
            and hashlib.sha256(out).hexdigest() == ref["stdout_sha256"][" ".join(argv)]
        if not ok:
            p["failed"] += 1
            print(f"op failed: {' '.join(argv)} exit={code} "
                  f"stderr={err[-300:].decode(errors='replace')!r}", file=sys.stderr)
        p["cold"] &= report.get("cold", False)
        p["wall"] += wall
        p["lat"].append(wall)
        p["rss"] = max(p["rss"], report.get("maxrss_kb", 0) / 1024)
        p["output_bytes"] += len(out)
        digest.update(hashlib.sha256(out).digest())
        _add(p["memo"], report.get("memo", {}))
        _add(p["spans"], report.get("spans", {}))
    p["digest"] = digest.hexdigest()
    return p


def _lib_pass(calls: list, check: bool, trace: bool, spans_stem: str | None, ref: dict,
              cal: list[float]) -> dict:
    job_path, report_path = WORK / "job.json", WORK / "report.json"
    job_path.write_text(json.dumps({
        "calls": calls, "check": check, "trace": trace, "golden_h": ref["golden_h"],
        "spans": str(OUT / f"{spans_stem}.tsv") if spans_stem else None,
    }))
    report_path.unlink(missing_ok=True)
    code, wall, _, err = _spawn(
        [sys.executable, str(HERE / "libworker.py"), str(job_path), str(report_path)])
    if code or err or not report_path.exists():
        print(f"worker failed: exit={code} stderr={err[-600:].decode(errors='replace')!r}",
              file=sys.stderr)
        return {"wall": wall, "lat": [wall / len(calls)] * len(calls), "rss": 0.0,
                "failed": len(calls), "cold": False, "memo": {}, "spans": {},
                "output_bytes": 0, "digest": ""}
    r = json.loads(report_path.read_text())
    cal.extend(t / 1e9 for t in r["cal_ns"])
    for i in r["failed"][:5]:
        print(f"op failed: {calls[i]}", file=sys.stderr)
    return {"wall": r["wall_ns"] / 1e9, "lat": [t / 1e9 for t in r["lat_ns"]],
            "rss": r["maxrss_kb"] / 1024,
            "failed": len(r["failed"]), "cold": r["cold"], "memo": r["memo"],
            "spans": r.get("spans", {}), "output_bytes": 0, "digest": r["digest"]}


# ---------------------------------------------------------------------------
# metrics


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _end_to_end(passes: list[dict], setup: list[float], speed: float) -> dict:
    """Times in reference seconds: measured seconds over the run's speed factor."""
    n, ops = len(passes), len(passes[0]["lat"])
    wall = statistics.median(p["wall"] for p in passes) / speed
    per_pass = f"{ops} ops per pass, median of {n} passes"
    return {
        "setup_s": (statistics.median(setup) / speed, "s",
                    f"median of {len(setup)} fresh interpreters"),
        "wall_s": (wall, "s", f"median of {n} passes"),
        "ops_per_s": (ops / wall, "1/s", per_pass),
        "latency_p50_ms": (statistics.median(t for p in passes for t in p["lat"])
                           / speed * 1e3, "ms", f"{ops * n} ops, {ops} per pass, all passes"),
        "latency_p99_ms": (statistics.median(_p99(p["lat"]) for p in passes) / speed * 1e3,
                           "ms", per_pass),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB",
                        f"median of {n} pass peaks"),
    }


def _layer_values(p: dict, speed: float) -> dict:
    out = {}
    for name in probe.SPAN_SITES:
        s = p["spans"].get(name, {"calls": 0, "self_ns": 0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_ns"] / 1e9 / speed, "s")
    for name in probe.MEMO_SITES:
        m = p["memo"].get(name, {"size": 0, "hits": 0, "misses": 0})
        lookups = m["hits"] + m["misses"]
        out[f"{name}.size"] = (m["size"], "count")
        out[f"{name}.hits"] = (m["hits"], "count")
        out[f"{name}.misses"] = (m["misses"], "count")
        out[f"{name}.hit_ratio"] = (m["hits"] / lookups if lookups else 0.0, "ratio")
    out["cli.output_bytes"] = (p["output_bytes"], "bytes")
    out["trace.spans"] = (sum(s["calls"] for s in p["spans"].values()), "count")
    return out


def _per_layer(traced: list[dict], untraced: list[dict], speed: float) -> dict:
    per_pass = [_layer_values(p, speed) for p in traced]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (statistics.median_low(v[name][0] for v in per_pass), unit,
                     f"median of {len(per_pass)} traced passes")
    # passes alternate untraced, traced; pairing each traced pass with the
    # untraced one just before it keeps slow phases of the machine out
    overhead = statistics.median(t["wall"] - u["wall"] for t, u in zip(traced, untraced)) / speed
    out["trace.overhead_s"] = (overhead, "s",
                               f"median of {len(traced)} traced minus preceding untraced wall_s")
    return out


# ---------------------------------------------------------------------------
# one run


def _consistency_errors(passes: list[dict]) -> list[str]:
    """Every pass, traced or not, runs the same inputs from empty memos."""
    errors = []
    if not all(p["cold"] for p in passes):
        errors.append("a memo was not empty when a pass began")
    if len({p["digest"] for p in passes}) != 1:
        errors.append("output digests differ between passes")
    if len({json.dumps(p["memo"], sort_keys=True) for p in passes}) != 1:
        errors.append("memo counts differ between passes")
    return errors


def _measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple:
    """The passes, set-up samples and reference samples of one run."""
    ref = json.loads((HERE / "reference.json").read_text())
    _setup_sample()  # untimed: leaves compiled bytecode, as an install does
    passes: dict[bool, list[dict]] = {False: [], True: []}
    if workload in inputs.CLI_WORKLOADS:
        argvs = inputs.CLI_WORKLOADS[workload](seed, tiny)

        def one_pass(traced: bool, stem: str | None) -> dict:
            return _cli_pass(argvs, traced, stem, ref, cal)
    else:
        calls = inputs.LIB_WORKLOADS[workload](seed, tiny)

        def one_pass(traced: bool, stem: str | None) -> dict:
            # the first pass checks every answer by a second route; the
            # later ones must match its output digest
            return _lib_pass(calls, not passes[False], traced, stem, ref, cal)

    # set-up samples are spread over the run, one before each pass, so that
    # they see the same machine as the passes do; so are the reference
    # samples (calib.py), taken after every CLI command and every 50 ms of
    # a library stream, by the busy worker process
    setup: list[float] = []
    cal: list[float] = []
    start = step_start = time.perf_counter()
    step = 0.0
    # a pass starts only if it should end within the run, judged by the
    # last one, so that a run lasts about `seconds` however long passes are
    while not passes[False] or (trace and not passes[True]) \
            or step_start - start + step <= seconds:
        setup.append(_setup_sample())
        traced = trace and len(passes[True]) < len(passes[False])
        # spans of the first traced pass only, overwritten by the next run
        stem = f"spans-{workload}" if traced and not passes[True] else None
        passes[traced].append(one_pass(traced, stem))
        now = time.perf_counter()
        step, step_start = now - step_start, now
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample())
    return passes, setup, cal


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        passes, setup, cal = _measure(workload, seed, seconds, trace, tiny)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    every = passes[False] + passes[True]
    errors = _consistency_errors(every)
    attempted = sum(len(p["lat"]) for p in every)
    failed = sum(p["failed"] for p in every)
    speed = calib.speed_factor(cal)
    e2e = _end_to_end(passes[False], setup, speed)
    layers = _per_layer(passes[True], passes[False], speed) if trace else {}
    return {"errors": errors, "attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "memo": passes[False][0]["memo"], "passes": len(every),
            "speed": (speed, len(cal))}


def _print_report(workload: str, seed: int, trace: bool, r: dict) -> None:
    print(f"{workload} seed={seed} trace={int(trace)}: {r['passes']} passes, "
          f"{r['attempted']} ops, {r['failed']} failed, "
          f"fail_ratio {r['failed'] / r['attempted']:.6g} ({r['failed']}/{r['attempted']})")
    speed, n = r["speed"]
    print(f"  speed factor {speed:.4f} (mean of {n} reference samples over "
          f"{calib.REF_S} s); times below are in reference seconds, measured ones are "
          f"{speed:.4f}x these")
    for section in ("e2e", "layers"):
        for name, (value, unit, samples) in r[section].items():
            print(f"  {name:36s} {value:>16.6g} {unit:6s} {samples}")
    print("  memo counts per pass (identical in every pass, empty at its start):")
    for name, c in r["memo"].items():
        print(f"    {name:32s} size={c['size']} hits={c['hits']} misses={c['misses']}")
    print("  no wait-time metric: nothing in invkostka queues or waits")
    for e in r["errors"]:
        print(f"  CHECK FAILED: {e}")


def _result_line(r: dict, trace: bool) -> str:
    metrics = r["layers"] if trace else r["e2e"]
    return json.dumps({
        "correct": not r["errors"] and r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    })


# ---------------------------------------------------------------------------
# smoke mode


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            where = f"{w['name']} trace={int(trace)}"
            result = json.loads(_result_line(run(w["name"], 1, 0, trace, tiny=True), trace))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                diff = set(got.items()) ^ set(want.items())
                problems.append(f"{where}: metric names/units differ: {sorted(diff)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct")
            print(f"smoke {where}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke FAILED: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [*inputs.CLI_WORKLOADS, *inputs.LIB_WORKLOADS]
    ap.add_argument("--workload", choices=names, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny and check metric names and units")
    args = ap.parse_args()
    # on SIGTERM, unwind like on Ctrl-C, so that children are stopped and
    # the run's files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "invkostka" / "__init__.py").is_file():
        print(f"no invkostka source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in [args.workload] if args.workload else names:
        r = run(workload, args.seed, args.seconds, bool(args.trace))
        _print_report(workload, args.seed, bool(args.trace), r)
        print(_result_line(r, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
