"""Command-line front end.

Every subcommand parses its inputs, calls the library, and renders the
result in one of three formats.  ``matrix`` checks its weight, then writes
each row as soon as it is computed, so it never holds the whole matrix;
the other subcommands render a finished result.  Exit codes: 0 on success,
1 on a usage error (bad flags, partition literal unparseable or too large
to represent or to hold), 2 on a computation domain error (weight
mismatch, formula outside its validity range, input too deep for the
recursion limit, a Steenrod row too long to hold, any other number too
large to represent) or when the output cannot be written (a closed pipe,
a full disk), 3 when a verification fails (self-check suites, or engine
disagreement under ``entry --engine all``).

Output is deterministic: same arguments, same bytes.  JSON output is
``{"query": ..., "result": ...}``, where ``query`` echoes the parsed
options in the order they are defined (``--lambda`` as ``"lambda"``,
partitions as lists of parts).  JSON renders all potentially large
integers in the result as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from .closedforms import g_polynomial, h_polynomial
from .inverse import (
    _BRUTE_MAX_N,
    _brute_in_reach,
    _weight_rows,
    enumerate_chains_S,
    enumerate_chains_T,
    f_polynomial,
    inv_kostka_bruteforce,
    inv_kostka_duan,
    inv_kostka_er,
    monomial_to_schur,
)
from .partitions import Partition
from .steenrod import steenrod_P, steenrod_Sq
from .verify import verify_suite


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def partition(text: str) -> Partition:
    # argparse shows the type name in error messages
    return Partition.parse(text)


def _partition_args(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the required --lambda (row) and --mu (column) partition options."""
    helps = {"lambda": "row partition, e.g. '[1,2]' or '1^1,2^1'", "mu": "column partition"}
    for name in names:
        p.add_argument(f"--{name}", dest="lam" if name == "lambda" else name,
                       type=partition, required=True, metavar="PARTITION", help=helps[name])


@dataclass
class CommandOutput:
    result: object
    plain: list[str]
    csv_rows: list[list[str]] = field(default_factory=list)
    exit_code: int = 0


def _parts_json(p: Partition) -> list[int]:
    return list(p.parts)


def _poly_output(poly) -> CommandOutput:
    coeffs = [str(c) for c in poly.coeffs]
    rows = [["power", "coeff"]] + [[str(i), c] for i, c in enumerate(coeffs)]
    return CommandOutput({"coeffs": coeffs}, [poly.pretty()], rows)


def _expansion_output(items) -> CommandOutput:
    result = [{"partition": _parts_json(p), "coeff": str(c)} for p, c in items]
    plain = [f"{p} {c}" for p, c in items]
    rows = [["partition", "coeff"]] + [[str(p), str(c)] for p, c in items]
    return CommandOutput(result, plain, rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_entry(ns) -> CommandOutput:
    lam, mu = ns.lam, ns.mu
    # looked up on each call, so that a rebound module global takes effect
    engines = {"duan": inv_kostka_duan, "er": inv_kostka_er, "brute": inv_kostka_bruteforce}
    if ns.engine == "all":
        if not _brute_in_reach(lam, mu):
            del engines["brute"]
        values = {name: engine(lam, mu) for name, engine in engines.items()}
        if len(set(values.values())) != 1:
            detail = ", ".join(f"{k}={v}" for k, v in values.items())
            print(f"engine disagreement: {detail}", file=sys.stderr)
            return CommandOutput(None, [], exit_code=3)
        value = values["duan"]
    else:
        value = engines[ns.engine](lam, mu)
    rows = [["lambda", "mu", "engine", "value"], [str(lam), str(mu), ns.engine, str(value)]]
    return CommandOutput(str(value), [str(value)], rows)


def _cmd_row(ns) -> CommandOutput:
    return _expansion_output(monomial_to_schur(ns.lam).items())


def _cmd_matrix(ns) -> None:
    # the labels come first, so a bad weight is refused before any output;
    # then each row is written as soon as it is computed
    labels, rows = _weight_rows(ns.weight, ns.inverse)
    _MATRIX_WRITERS[ns.format](sys.stdout, ns, labels, rows)


def _write_matrix_plain(out, ns, labels, rows) -> None:
    names = [str(p) for p in labels]
    out.write("columns: " + " ".join(names) + "\n")
    for name, row in zip(names, rows):
        out.write(f"{name}: " + " ".join(map(str, row)) + "\n")


def _write_matrix_csv(out, ns, labels, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *labels])
    for label, row in zip(labels, rows):
        writer.writerow([label, *row])


def _write_matrix_json(out, ns, labels, rows) -> None:
    # the bytes of json.dumps({"query": ..., "result": {"labels": ...,
    # "rows": ...}}, indent=2), written a row at a time.  An encoded value
    # nests one level deeper by indenting each of its lines, since no
    # encoded string holds a raw newline; cells are decimal strings, which
    # need no escaping.  A weight has at least one partition, so "rows" is
    # never the empty list.
    query = json.dumps(_query(ns), indent=2).replace("\n", "\n  ")
    parts = json.dumps([_parts_json(p) for p in labels], indent=2).replace("\n", "\n    ")
    out.write(f'{{\n  "query": {query},\n  "result": {{\n    "labels": {parts},\n    "rows": [')
    sep = "\n      "
    for row in rows:
        out.write(sep + '[\n        "' + '",\n        "'.join(map(str, row)) + '"\n      ]')
        sep = ",\n      "
    out.write("\n    ]\n  }\n}\n")


_MATRIX_WRITERS = {"plain": _write_matrix_plain, "csv": _write_matrix_csv,
                   "json": _write_matrix_json}


def _cmd_chains(ns) -> CommandOutput:
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


def _cmd_fpoly(ns) -> CommandOutput:
    return _poly_output(f_polynomial(ns.lam, ns.mu, ns.n))


def _cmd_hpoly(ns) -> CommandOutput:
    poly = h_polynomial(ns.b)
    if ns.mod is not None:
        poly = poly.reduce_mod(ns.mod)
    return _poly_output(poly)


def _cmd_gpoly(ns) -> CommandOutput:
    return _poly_output(g_polynomial(ns.k, ns.l))


def _cmd_steenrod(ns) -> CommandOutput:
    if ns.op == "Sq":
        if ns.p not in (None, 2):
            raise UsageError("--p is fixed to 2 for --op Sq")
        ns.p = 2
        expansion = steenrod_Sq(ns.k, ns.m)
    else:
        if ns.p is None:
            ns.p = 3
        expansion = steenrod_P(ns.k, ns.m, ns.p)
    return _expansion_output(expansion.items())


def _cmd_verify(ns) -> CommandOutput:
    report = verify_suite(ns.max_weight)
    result = {
        "max_weight": report.max_weight,
        "ok": report.ok,
        "suites": [
            {"name": s.name, "passed": s.passed, "checked": s.checked, "detail": s.detail}
            for s in report.suites
        ],
    }
    rows = [["suite", "passed", "checked", "detail"]] + [
        [s.name, str(s.passed).lower(), str(s.checked), s.detail] for s in report.suites
    ]
    return CommandOutput(result, report.summary_lines(), rows, exit_code=0 if report.ok else 3)


# ---------------------------------------------------------------------------
# parser assembly and rendering


def build_parser() -> _Parser:
    fmt = _Parser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default: plain)",
    )

    parser = _Parser(
        prog="invkostka",
        description="Inverse Kostka matrix entries, chains, and coefficient rows.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("entry", parents=[fmt], help="single inverse Kostka entry")
    _partition_args(p, "lambda", "mu")
    p.add_argument("--engine", choices=("duan", "er", "brute", "all"), default="duan",
                   help="which algorithm to run; 'all' cross-checks them "
                        f"(brute skipped beyond {_BRUTE_MAX_N} variables)")
    p.set_defaults(handler=_cmd_entry)

    p = sub.add_parser("row", parents=[fmt],
                       help="whole row: Schur expansion of a monomial symmetric function")
    _partition_args(p, "lambda")
    p.set_defaults(handler=_cmd_row)

    p = sub.add_parser("matrix", parents=[fmt],
                       help="Kostka matrix of a weight, or its inverse")
    p.add_argument("--weight", type=int, required=True, metavar="M")
    p.add_argument("--inverse", action="store_true", help="emit the inverse matrix")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("chains", parents=[fmt],
                       help="signed chains whose sum is the entry")
    _partition_args(p, "lambda", "mu")
    p.add_argument("--family", choices=("S", "T"), required=True,
                   help="S: strip-removal chains; T: part-removal chains")
    p.set_defaults(handler=_cmd_chains)

    p = sub.add_parser("fpoly", parents=[fmt],
                       help="signed solution-count polynomial of a pair")
    _partition_args(p, "lambda", "mu")
    p.add_argument("--n", type=int, default=None, metavar="N",
                   help="number of variables (default: max of the lengths)")
    p.set_defaults(handler=_cmd_fpoly)

    p = sub.add_parser("hpoly", parents=[fmt],
                       help="generating polynomial against a two-column rectangle")
    p.add_argument("b", type=int, help="number of columns of height 2")
    p.add_argument("--mod", type=int, default=None, metavar="P",
                   help="reduce coefficients mod P")
    p.set_defaults(handler=_cmd_hpoly)

    p = sub.add_parser("gpoly", parents=[fmt],
                       help="generating polynomial of a ones-and-threes row")
    p.add_argument("k", type=int, help="number of parts equal to 1")
    p.add_argument("l", type=int, help="number of parts equal to 3")
    p.set_defaults(handler=_cmd_gpoly)

    p = sub.add_parser("steenrod", parents=[fmt],
                       help="Schur coefficient row of a Steenrod operation")
    p.add_argument("--op", choices=("P", "Sq"), required=True)
    p.add_argument("--k", type=int, required=True, metavar="K")
    p.add_argument("--m", type=int, required=True, metavar="M")
    p.add_argument("--p", type=int, default=None, metavar="P",
                   help="odd prime for --op P (default 3); fixed to 2 for Sq")
    p.set_defaults(handler=_cmd_steenrod)

    p = sub.add_parser("verify", parents=[fmt], help="run the cross-validation suites")
    p.add_argument("--max-weight", type=int, required=True, metavar="W")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _query(ns) -> dict:
    """The parsed options, in definition order, as JSON values."""
    return {
        "lambda" if key == "lam" else key: _parts_json(v) if isinstance(v, Partition) else v
        for key, v in vars(ns).items()
        if key not in ("format", "handler")
    }


def _render(out: CommandOutput, ns) -> None:
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


def _report(message: str) -> None:
    """Print an error line on stderr.  A stderr that fails too (a pipe that
    also closed stdout) is ignored: the exit code still tells the failure."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def run(argv: list[str]) -> int:
    try:
        ns = build_parser().parse_args(argv)
        out = ns.handler(ns)  # None when the handler wrote its own output
        if out is not None:
            _render(out, ns)
        sys.stdout.flush()
    except UsageError as e:
        _report(f"usage error: {e}")
        return 1
    except (ValueError, OverflowError) as e:  # weight mismatches, domain errors, huge sizes
        _report(f"error: {e}")
        return 2
    except RecursionError:
        _report("error: input too deep for the recursion limit")
        return 2
    except OSError as e:  # stdout failed: a closed pipe, a full disk
        _report(f"error: cannot write the output: {e.strerror or e}")
        return 2
    return 0 if out is None else out.exit_code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the failure; send what is still buffered to
        # devnull, so that the interpreter's own flush at exit does not
        # fail again and print a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
