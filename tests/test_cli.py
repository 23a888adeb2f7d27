"""End-to-end CLI behaviour that a golden record cannot hold.

Frozen output bytes and exit codes live in the golden transcript
(``golden/cli_transcript.txt``, replayed by ``test_golden_cli.py``).  This
file keeps agreement with the library and with the built-then-rendered
``chains`` of before streaming, the streaming json encoder, monkeypatched
engines, memo state, output errors, the subprocess entry point, determinism
across reruns, and the few outputs and exit codes that no record holds."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import invkostka.cli as cli
from invkostka.cli import _parts_json, _query, run
from invkostka.inverse import (
    ChainS,
    enumerate_chains_S,
    enumerate_chains_T,
    inverse_kostka_matrix,
    kostka_matrix,
)
from invkostka.partitions import Partition, enumerate_partitions


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entry_plain(capsys):
    code, out, err = invoke(capsys, "entry", "--lambda", "[1,2]", "--mu", "[1,1,1]")
    assert (code, out, err) == (0, "-2\n", "")


def test_entry_json(capsys):
    code, out, _ = invoke(
        capsys, "entry", "--lambda", "[1,2]", "--mu", "[1,1,1]", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "query": {
            "subcommand": "entry",
            "lambda": [1, 2],
            "mu": [1, 1, 1],
            "engine": "duan",
        },
        "result": "-2",
    }


def test_entry_csv(capsys):
    code, out, _ = invoke(
        capsys, "entry", "--lambda", "[1,2]", "--mu", "[1,1,1]", "--format", "csv"
    )
    assert code == 0
    assert out == 'lambda,mu,engine,value\n"[1,2]","[1,1,1]",duan,-2\n'


def _built_matrix_text(mat, query, fmt):
    """The matrix command's expected output: the library's whole matrix
    rendered by the standard json and csv writers, or joined as plain text."""
    labels = [str(p) for p in mat.labels]
    text = [[str(v) for v in row] for row in mat.entries]
    if fmt == "json":
        result = {"labels": [list(p.parts) for p in mat.labels], "rows": text}
        return json.dumps({"query": query, "result": result}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [[""] + labels] + [[label] + row for label, row in zip(labels, text)])
        return buf.getvalue()
    lines = ["columns: " + " ".join(labels)]
    lines += [f"{label}: " + " ".join(row) for label, row in zip(labels, text)]
    return "".join(line + "\n" for line in lines)


def test_matrix_formats_agree_with_the_library(capsys):
    # the streamed rows must give the same bytes as rendering the
    # library's whole matrix
    for inverse in (False, True):
        for m in range(0, 13):
            mat = inverse_kostka_matrix(m) if inverse else kostka_matrix(m)
            query = {"subcommand": "matrix", "weight": m, "inverse": inverse}
            argv = ["matrix", "--weight", str(m)] + (["--inverse"] if inverse else [])
            for fmt in ("plain", "csv", "json"):
                got = invoke(capsys, *argv, "--format", fmt)
                assert got == (0, _built_matrix_text(mat, query, fmt), ""), (m, inverse, fmt)


@dataclass
class CommandOutput:
    result: object
    plain: list[str]
    csv_rows: list[list[str]] = field(default_factory=list)
    exit_code: int = 0


# the chains command as it was when it built every format before writing:
# the reference that the streamed output must equal byte for byte
def _reference_cmd_chains(ns) -> CommandOutput:
    lam, mu = ns.lam, ns.mu
    if ns.family == "S":
        chains = enumerate_chains_S(lam, mu)
        values = [c.b_values for c in chains]
    else:
        chains = enumerate_chains_T(lam, mu)
        values = [c.a_values for c in chains]
    total = sum(c.sign for c in chains)
    result = {
        "chains": [
            {
                "steps": [{"partition": _parts_json(p), "j": j} for p, j in c.steps],
                "values": list(vals),
                "sign": c.sign,
            }
            for c, vals in zip(chains, values)
        ],
        "signed_sum": str(total),
    }
    plain = []
    for c, vals in zip(chains, values):
        path = " <- ".join(f"{p}(j={j})" for p, j in c.steps)
        s = "+" if c.sign > 0 else "-"
        plain.append(f"{s}1 values={','.join(map(str, vals))} path=[] <- {path}" if c.steps
                     else f"{s}1 values= path=[]")
    plain.append(f"count: {len(chains)}")
    plain.append(f"signed sum: {total}")
    rows = [["index", "sign", "values", "steps"]]
    for idx, (c, vals) in enumerate(zip(chains, values)):
        steps = ";".join(f"{p}:{j}" for p, j in c.steps)
        rows.append([str(idx), str(c.sign), " ".join(map(str, vals)), steps])
    return CommandOutput(result, plain, rows)


def _reference_render(out: CommandOutput, ns) -> None:
    if out.result is None and out.exit_code:
        return
    if ns.format == "json":
        print(json.dumps({"query": _query(ns), "result": out.result}, indent=2))
    elif ns.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(out.csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in out.plain:
            print(line)


def test_chains_stream_the_bytes_of_the_built_output(capsys):
    parser = cli.build_parser()  # built once: run would build it for every pair
    for m in range(7):
        labels = [str(p) for p in enumerate_partitions(m)]
        for lam in labels:
            for mu in labels:
                for family in ("S", "T"):
                    for fmt in ("plain", "json", "csv"):
                        ns = parser.parse_args(["chains", "--family", family, "--lambda", lam,
                                                "--mu", mu, "--format", fmt])
                        _reference_render(_reference_cmd_chains(ns), ns)
                        want = capsys.readouterr().out
                        assert ns.handler(ns, sys.stdout) == 0
                        assert capsys.readouterr() == (want, ""), (family, lam, mu, fmt)


_SCALARS = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.floats() | st.text()


def _plain_values():
    return st.recursive(
        _SCALARS | st.tuples() | st.lists(_SCALARS, max_size=4).map(tuple),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )


def _lazy(value, rnd):
    """``value`` with lists turned into generators and values into zero-argument
    callables at random, wherever the encoder walks: at the top, in a dict
    and in a generator.  A list kept as a list is encoded whole, so it stays
    plain inside."""
    if type(value) is dict:
        value = {k: _lazy(v, rnd) for k, v in value.items()}
    elif type(value) is list and rnd.random() < 0.5:
        value = (item for item in [_lazy(v, rnd) for v in value])
    if rnd.random() < 0.25:
        value = (lambda v: lambda: v)(value)
    return value


@given(_plain_values(), st.randoms(use_true_random=False))
def test_the_streaming_json_encoder_writes_the_text_of_json_dumps(value, rnd):
    assert "".join(cli._json_pieces(_lazy(value, rnd))) == json.dumps(value, indent=2)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_closed_pipe_stops_the_chain_walk(capsys, monkeypatch, fmt):
    # 5,040 chains; the first is pulled before any output, and a stdout that
    # fails on its first write asks for no more
    built = []

    def chain_s(*args):
        built.append(args)
        return ChainS(*args)

    monkeypatch.setattr("invkostka.inverse.ChainS", chain_s)
    monkeypatch.setattr(sys, "stdout", _FailingStdout(0, BrokenPipeError(errno.EPIPE, "Broken pipe")))
    code = run(["chains", "--family", "S", "--lambda", "[1,2,3,4,5,6,7]", "--mu", "1^28",
                "--format", fmt])
    assert (code, capsys.readouterr().err) == (2, "error: cannot write the output: Broken pipe\n")
    assert 1 <= len(built) <= 2


def test_steenrod_square_json(capsys):
    code, out, _ = invoke(
        capsys, "steenrod", "--op", "Sq", "--k", "1", "--m", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["query"]["p"] == 2
    assert doc["result"] == [{"partition": [1, 2], "coeff": "1"}]


def test_usage_errors_exit_1(capsys):
    code, out, err = invoke(capsys, "entry", "--lambda", "1^10000000000000000000", "--mu", "1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


def test_domain_errors_exit_2(capsys):
    for argv in (
        ["matrix", "--weight", "-2", "--inverse", "--format", "csv"],
        ["matrix", "--weight", "-2", "--format", "json"],
        ["steenrod", "--op", "Sq", "--k", "1", "--m", "10000000000000000000"],
        ["gpoly", "99999999999999999999999", "4"],
        ["fpoly", "--lambda", "[1]", "--mu", "[1]", "--n", "10000000000000000000"],
        ["steenrod", "--op", "P", "--k", "1", "--m", "2", "--p", "9"],  # odd, not prime
        # too large for the prime test to decide
        ["steenrod", "--op", "P", "--k", "0", "--m", "1", "--p", "3317044064679887385961981"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:"), argv


def test_engine_all_skips_brute_force_beyond_its_cap(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "inv_kostka_bruteforce", lambda lam, mu: calls.append(lam) or 1)
    code, out, _ = invoke(capsys, "entry", "--lambda", "1^8", "--mu", "1^8", "--engine", "all")
    assert (code, out, calls) == (0, "1\n", [])
    code, out, _ = invoke(capsys, "entry", "--lambda", "1^7", "--mu", "1^7", "--engine", "all")
    assert (code, out, calls) == (0, "1\n", [Partition([1] * 7)])


def test_deep_recursions_answer_without_traceback(capsys):
    # these depths fit the default recursion limit only if a recurrence
    # step adds no stack frame of its own per level
    from invkostka import inverse

    inverse._er_recurse.cache_clear()
    inverse._duan_recurse.cache_clear()
    code, out, err = invoke(
        capsys, "entry", "--lambda", "1^400", "--mu", "1^400", "--engine", "er"
    )
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = invoke(
        capsys, "entry", "--lambda", "1^300,2", "--mu", "1^302", "--engine", "duan"
    )
    assert (code, out, err) == (0, "-301\n", "")


def test_deep_brute_force_answers_without_traceback(capsys):
    code, out, err = invoke(
        capsys, "entry", "--lambda", "1^1200", "--mu", "1^1200", "--engine", "brute"
    )
    assert (code, out, err) == (0, "1\n", "")


def test_deep_strip_chain_answers_without_traceback(capsys):
    code, out, err = invoke(
        capsys, "chains", "--family", "S", "--lambda", "1^300", "--mu", "1^300",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["result"]["signed_sum"] == "1"
    assert len(doc["result"]["chains"]) == 1


def test_outputs_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(
            capsys, "matrix", "--weight", "4", "--inverse", "--format", "json"
        )
        runs.append(out)
    assert runs[0] == runs[1]


class _FailingStdout:
    """A stdout that takes ``room`` characters, then raises ``error``.  With
    room None every write succeeds and flush raises, as a buffered stream
    does when the whole output fits its buffer."""

    def __init__(self, room, error):
        self.room, self.error, self.text = room, error, ""

    def write(self, s):
        if self.room is not None and len(self.text) + len(s) > self.room:
            raise self.error
        self.text += s
        return len(s)

    def flush(self):
        if self.room is None:
            raise self.error


@pytest.mark.parametrize("argv", [
    ["matrix", "--weight", "6", "--inverse"],
    ["matrix", "--weight", "6", "--format", "csv"],
    ["matrix", "--weight", "6", "--inverse", "--format", "json"],
    ["row", "--lambda", "1^6", "--format", "json"],
    ["hpoly", "30"],
    ["verify", "--max-weight", "2"],
    ["chains", "--family", "S", "--lambda", "[1,2,3]", "--mu", "1^6"],
    ["chains", "--family", "T", "--lambda", "[1,2,3]", "--mu", "1^6", "--format", "csv"],
    ["chains", "--family", "S", "--lambda", "[1,2,3]", "--mu", "1^6", "--format", "json"],
])
def test_output_errors_exit_2_without_traceback(capsys, monkeypatch, argv):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    size = len(invoke(capsys, *argv)[1])
    # the last flush fails, the first write fails, a write halfway through fails
    for room in (None, 0, size // 2):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(room, full))
        assert run(argv) == 2, (argv, room)
        assert capsys.readouterr().err == \
            f"error: cannot write the output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_closed_pipe_stops_the_matrix_work(capsys, monkeypatch, fmt):
    # rows are computed only as they are written, so a stdout that fails on
    # its first write leaves the strip engine's memo far smaller than after
    # the whole matrix, whose memo holds the sub-entries below weight 12
    from invkostka import clear_caches
    from invkostka.inverse import _duan_recurse

    clear_caches()
    inverse_kostka_matrix(12)
    full_memo = _duan_recurse.cache_info().currsize
    clear_caches()
    pipe = BrokenPipeError(errno.EPIPE, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", _FailingStdout(0, pipe))
    code = run(["matrix", "--weight", "12", "--inverse", "--format", fmt])
    assert (code, capsys.readouterr().err) == (2, "error: cannot write the output: Broken pipe\n")
    assert _duan_recurse.cache_info().currsize < full_memo / 10


@pytest.mark.parametrize("argv, code", [
    *(pytest.param(["matrix", "--weight", "5", "--inverse", "--format", fmt], 2, id=fmt)
      for fmt in ("plain", "csv", "json")),
    # the engines disagree (er is patched below), which no stdout failure can hide
    pytest.param(["entry", "--lambda", "[1,2]", "--mu", "[1,1,1]", "--engine", "all"], 3,
                 id="engine-disagreement"),
])
def test_a_failing_stderr_leaves_the_exit_code(monkeypatch, argv, code):
    # a closed pipe that carries both streams (2>&1 | head -1) fails the
    # error line too; run still returns its exit code and raises nothing
    pipe = BrokenPipeError(errno.EPIPE, "Broken pipe")
    monkeypatch.setattr(cli, "inv_kostka_er", lambda lam, mu: 99)
    monkeypatch.setattr(sys, "stdout", _FailingStdout(0, pipe))
    monkeypatch.setattr(sys, "stderr", _FailingStdout(0, pipe))
    assert run(argv) == code


def _module_command(argv, **kwargs):
    """Run ``python -m invkostka ARGV`` in a child process on this package,
    installed or not."""
    import invkostka

    src = str(Path(invkostka.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "invkostka", *argv], text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def test_module_entry_point():
    proc = _module_command(["entry", "--lambda", "[1,2]", "--mu", "[1,1,1]"],
                           capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == "-2\n"


def test_closed_pipe_exits_2_without_traceback():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = _module_command(["matrix", "--weight", "12", "--inverse"],
                               stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write the output: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_exits_2_without_traceback():
    with open("/dev/full", "w") as full:
        proc = _module_command(["matrix", "--weight", "8", "--inverse"],
                               stdout=full, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == \
        (2, f"error: cannot write the output: {os.strerror(errno.ENOSPC)}\n")


def _cap_address_space():
    # runs in the child before exec: 256 MB, well under what the work below
    # asks for, so the probe fails fast instead of filling the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux applies it")
def test_running_out_of_memory_exits_2_without_traceback():
    # the row of weight 40 - 20 + 3*20 = 80 walks more partitions than fit
    # under the cap; never run this probe uncapped
    proc = _module_command(["steenrod", "--op", "P", "--k", "20", "--m", "40", "--p", "3"],
                           capture_output=True, timeout=60, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")
