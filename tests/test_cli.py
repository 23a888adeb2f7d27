"""End-to-end CLI behaviour that a golden record cannot hold.

Frozen output bytes and exit codes live in the golden transcript
(``golden/cli_transcript.txt``, replayed by ``test_golden_cli.py``).  This
file keeps agreement with the library, monkeypatched engines, memo state,
output errors, the subprocess entry point, determinism across reruns, and
the few outputs and exit codes that no record holds."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invkostka.cli as cli
from invkostka.cli import run
from invkostka.inverse import inverse_kostka_matrix, kostka_matrix
from invkostka.partitions import Partition


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


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_failing_stderr_leaves_the_exit_code(monkeypatch, fmt):
    # a closed pipe that carries both streams (2>&1 | head -1) fails the
    # error line too; run still returns 2 and raises nothing
    pipe = BrokenPipeError(errno.EPIPE, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", _FailingStdout(0, pipe))
    monkeypatch.setattr(sys, "stderr", _FailingStdout(0, pipe))
    assert run(["matrix", "--weight", "5", "--inverse", "--format", fmt]) == 2


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
