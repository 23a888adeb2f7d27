"""Command-line front end.

Every subcommand parses its inputs, calls the library, and writes only the
format it was asked for.  ``matrix`` checks its weight, then writes each
row as soon as it is computed, so it never holds the whole matrix;
``chains`` writes each chain as the walk yields it.  Exit codes: 0 on success,
1 on a usage error (bad flags, partition literal unparseable or too large
to represent or to hold), 2 on a computation domain error (weight
mismatch, formula outside its validity range, input too deep for the
recursion limit, a Steenrod row or an ``fpoly --n`` too long to hold, any
other number too large to represent, any other work that runs out of
memory) or when the output cannot be written
(a closed pipe, a full disk), 3 when a verification fails (self-check
suites, or engine disagreement under ``entry --engine all``).

Output is deterministic: same arguments, same bytes.  JSON output is
``{"query": ..., "result": ...}``, where ``query`` echoes the parsed
options in the order they are defined (``--lambda`` as ``"lambda"``,
partitions as lists of parts).  JSON renders all potentially large
integers in the result as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from itertools import chain
from types import GeneratorType

from .closedforms import g_polynomial, h_polynomial
from .inverse import (
    _BRUTE_MAX_N,
    _brute_in_reach,
    _chain_walk,
    _weight_rows,
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


def _parts_json(p: Partition) -> list[int]:
    return list(p.parts)


def _write_poly(out, ns, poly) -> int:
    # stringified before any output, like every other value a handler
    # computes, so that an integer too long for str exits with no output
    coeffs = [str(c) for c in poly.coeffs]
    _write(out, ns, {"coeffs": coeffs}, [poly.pretty()],
           chain([("power", "coeff")], enumerate(coeffs)))
    return 0


def _write_expansion(out, ns, items) -> int:
    _write(out, ns, ({"partition": _parts_json(p), "coeff": str(c)} for p, c in items),
           (f"{p} {c}" for p, c in items), chain([("partition", "coeff")], items))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers: each writes ns.format to out and returns the exit code


def _cmd_entry(ns, out) -> int:
    lam, mu = ns.lam, ns.mu
    # looked up on each call, so that a rebound module global takes effect
    engines = {"duan": inv_kostka_duan, "er": inv_kostka_er, "brute": inv_kostka_bruteforce}
    if ns.engine == "all":
        if not _brute_in_reach(lam, mu):
            del engines["brute"]
        values = {name: engine(lam, mu) for name, engine in engines.items()}
        if len(set(values.values())) != 1:
            detail = ", ".join(f"{k}={v}" for k, v in values.items())
            _report(f"engine disagreement: {detail}")
            return 3
        value = values["duan"]
    else:
        value = engines[ns.engine](lam, mu)
    text = str(value)
    _write(out, ns, text, [text],
           [("lambda", "mu", "engine", "value"), (lam, mu, ns.engine, text)])
    return 0


def _cmd_row(ns, out) -> int:
    return _write_expansion(out, ns, monomial_to_schur(ns.lam).items())


def _cmd_matrix(ns, out) -> int:
    # the labels come first, so a bad weight is refused before any output;
    # then each row is written as soon as it is computed
    labels, rows = _weight_rows(ns.weight, ns.inverse)
    names = [str(p) for p in labels]
    cell = cache(str)  # json only: most cells repeat (76% are 0 at weight 20)
    result = {"labels": [_parts_json(p) for p in labels],
              "rows": (tuple(map(cell, row)) for row in rows)}
    lines = chain(["columns: " + " ".join(names)],
                  (f"{name}: " + " ".join(map(str, row)) for name, row in zip(names, rows)))
    _write(out, ns, result, lines,
           chain([["", *names]], ([name, *row] for name, row in zip(names, rows))))
    return 0


def _cmd_chains(ns, out) -> int:
    walk = _chain_walk(ns.lam, ns.mu, ns.family)
    # every chain has one step per part of lambda, so a walk too deep for
    # the recursion limit fails on its first chain: pull it before any output
    first = next(walk, None)
    name = cache(str)  # steps repeat across chains; each partition is named once
    total = 0

    def chains():
        nonlocal total
        for c in chain(() if first is None else (first,), walk):
            total += c.sign
            yield c, c.b_values if ns.family == "S" else c.a_values

    def lines():
        count = 0
        for count, (c, vals) in enumerate(chains(), 1):
            path = "".join(f" <- {name(p)}(j={j})" for p, j in c.steps)
            yield f"{c.sign:+d} values={','.join(map(str, vals))} path=[]{path}"
        yield f"count: {count}"
        yield f"signed sum: {total}"

    # the signed sum is read after the chains, when json reaches its key
    result = {"chains": ({"steps": [{"partition": _parts_json(p), "j": j} for p, j in c.steps],
                          "values": vals, "sign": c.sign} for c, vals in chains()),
              "signed_sum": lambda: str(total)}
    rows = chain([("index", "sign", "values", "steps")], (
        (idx, c.sign, " ".join(map(str, vals)), ";".join(f"{name(p)}:{j}" for p, j in c.steps))
        for idx, (c, vals) in enumerate(chains())))
    _write(out, ns, result, lines(), rows)
    return 0


def _cmd_fpoly(ns, out) -> int:
    return _write_poly(out, ns, f_polynomial(ns.lam, ns.mu, ns.n))


def _cmd_hpoly(ns, out) -> int:
    poly = h_polynomial(ns.b)
    if ns.mod is not None:
        poly = poly.reduce_mod(ns.mod)
    return _write_poly(out, ns, poly)


def _cmd_gpoly(ns, out) -> int:
    return _write_poly(out, ns, g_polynomial(ns.k, ns.l))


def _cmd_steenrod(ns, out) -> int:
    if ns.op == "Sq":
        if ns.p not in (None, 2):
            raise UsageError("--p is fixed to 2 for --op Sq")
        ns.p = 2
        expansion = steenrod_Sq(ns.k, ns.m)
    else:
        if ns.p is None:
            ns.p = 3
        expansion = steenrod_P(ns.k, ns.m, ns.p)
    return _write_expansion(out, ns, expansion.items())


def _cmd_verify(ns, out) -> int:
    report = verify_suite(ns.max_weight)
    suites = [{"name": s.name, "passed": s.passed, "checked": s.checked, "detail": s.detail}
              for s in report.suites]
    rows = chain([("suite", "passed", "checked", "detail")], (
        (s.name, str(s.passed).lower(), s.checked, s.detail) for s in report.suites))
    _write(out, ns, {"max_weight": report.max_weight, "ok": report.ok, "suites": suites},
           report.summary_lines(), rows)
    return 0 if report.ok else 3


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


def _json_pieces(value, indent=""):
    """The text of ``json.dumps(value, indent=2)``, nested at ``indent``, in
    pieces.  A dict is written key by key and a generator as a list, item by
    item; a zero-argument callable is replaced by its value when it is
    reached.  A non-empty tuple must hold only scalars: it is encoded in one
    call, as a row of a table.  Any other value is encoded whole and nested
    by indenting its lines, since no encoded string holds a raw newline."""
    if callable(value):
        value = value()
    inner = indent + "  "
    if type(value) is dict and value:
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif type(value) is GeneratorType:
        sep = "[\n" + inner
        for item in value:
            yield sep
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "[]" if sep[0] == "[" else "\n" + indent + "]"
    elif type(value) is tuple and value:
        row = json.dumps(value, separators=(",\n" + inner, ": "))
        yield "[\n" + inner + row[1:-1] + "\n" + indent + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _write(out, ns, result, lines, rows) -> None:
    """Write ``ns.format`` only: ``{"query": ..., "result": result}`` for
    json, the plain ``lines`` or the csv ``rows``.  Each is consumed as it is
    written, so a generator holds only what is still to come."""
    if ns.format == "json":
        for piece in _json_pieces({"query": _query(ns), "result": result}):
            out.write(piece)
        out.write("\n")
    elif ns.format == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        for line in lines:
            out.write(line + "\n")


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
        code = ns.handler(ns, sys.stdout)
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
    except MemoryError:  # the unwinding has freed what the handler held
        _report("error: out of memory")
        return 2
    except OSError as e:  # stdout failed: a closed pipe, a full disk
        _report(f"error: cannot write the output: {e.strerror or e}")
        return 2
    return code


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
