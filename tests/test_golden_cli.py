"""Golden CLI transcript: every record in ``golden/cli_transcript.txt`` is
replayed through ``cli.run`` and must reproduce its exit code, stdout and
stderr byte for byte.

The transcript covers every README example in all three formats, the
``verify --max-weight 6`` sweep, extra chain, matrix, entry and Steenrod
queries, the exit-1, exit-2 and exit-3 probes, and inputs too deep for
the recursion limit: two entries and one chain, the chain in plain and in
json (which must refuse it before it writes the ``query`` head).  A record
is::

    @@ argv <JSON list>
    @@ patch <cli attribute> <int>      (optional: the attribute is replaced
                                         by an engine returning that value)
    @@ exit <code>
    @@ stdout
    <exact stdout>
    @@ stderr
    <exact stderr>
    @@ end

Usage-error texts come from argparse and were recorded under Python 3.11.
"""

import json
from pathlib import Path

import pytest

import invkostka.cli as cli

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"


def _records():
    records = []
    for block in GOLDEN.read_text(encoding="utf-8").split("@@ end\n"):
        if not block:
            continue
        head, rest = block.split("@@ stdout\n")
        out, err = rest.split("@@ stderr\n")
        fields = dict(line[3:].split(" ", 1) for line in head.splitlines())
        patch = fields["patch"].split() if "patch" in fields else None
        records.append((json.loads(fields["argv"]), patch, int(fields["exit"]), out, err))
    return records


RECORDS = _records()


def _record_id(record):
    argv, patch = record[0], record[1]
    return " ".join(argv) + (f" (patched {patch[0]})" if patch else "")


@pytest.mark.parametrize("argv, patch, code, out, err", RECORDS, ids=map(_record_id, RECORDS))
def test_transcript_record(capsys, monkeypatch, argv, patch, code, out, err):
    if patch is not None:
        name, value = patch
        monkeypatch.setattr(cli, name, lambda lam, mu: int(value))
    got = cli.run(list(argv))
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


def test_transcript_covers_every_exit_code():
    assert {r[2] for r in RECORDS} == {0, 1, 2, 3}
