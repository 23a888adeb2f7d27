"""Memo counters and span tracing, applied to invkostka from outside.

The name tables are plain data that the benchmark's parent process reads
without importing invkostka; the functions run in its child processes,
before any work starts.  Nothing here changes what the package computes:
memo counts are read through ``cache_info()``, and tracing replaces public
functions, at every module that binds them, with wrappers that record a
span (name, start, end, parent span, op id) around the original call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute) of every memoized kernel
MEMO_SITES = {
    "partitions.lex_memo": ("partitions", "_partitions_lex"),
    "partitions.enumerate_memo": ("partitions", "_enumerate_cached"),
    "partitions.strip_pred": ("partitions", "_strip_predecessors_raw"),
    "partitions.strip_succ_memo": ("partitions", "_strip_successors_raw"),
    "inverse.duan_memo": ("inverse", "_duan_recurse"),
    "inverse.er_memo": ("inverse", "_er_recurse"),
    "symfunc.hstrip_memo": ("symfunc", "_hstrip_predecessors"),
    "symfunc.kostka_memo": ("symfunc", "_kostka_raw"),
    "steenrod.e_to_schur_memo": ("steenrod", "_e_indices_to_schur"),
    "steenrod.e_product_memo": ("steenrod", "_e_product_poly"),
    "closedforms.gpoly_memo": ("closedforms", "g_polynomial"),
}

# span name -> functions (module, attribute) or methods (module, class, attribute)
SPAN_SITES = {
    "partitions.enumerate": [("partitions", "enumerate_partitions")],
    "inverse.duan": [("inverse", "inv_kostka_duan")],
    "inverse.er": [("inverse", "inv_kostka_er")],
    "inverse.brute": [("inverse", "inv_kostka_bruteforce")],
    "inverse.chains": [("inverse", "enumerate_chains_S"), ("inverse", "enumerate_chains_T")],
    "inverse.fpoly": [("inverse", "f_polynomial")],
    "inverse.row": [("inverse", "monomial_to_schur")],
    "inverse.matrix": [("inverse", "inverse_kostka_matrix")],
    "symfunc.kostka": [("symfunc", "kostka_number")],
    "symfunc.schur": [("symfunc", "schur")],
    "symfunc.polymul": [("symfunc", "SparsePolynomial", "__mul__")],
    "symfunc.to_poly": [("symfunc", "expansion_to_polynomial")],
    "symfunc.pieri": [("symfunc", "pieri_multiply")],
    "verify.oracle": [("verify", "exact_integer_inverse")],
    "verify.corollary1": [("inverse", "verify_corollary1")],
    "verify.suite": [("verify", "verify_suite")],
    "steenrod.row": [("steenrod", "steenrod_P"), ("steenrod", "steenrod_Sq")],
    "steenrod.wu": [("steenrod", "wu_rhs")],
    "closedforms.hpoly": [("closedforms", "h_polynomial")],
    "closedforms.hpoly_matrix": [("closedforms", "h_polynomial_matrix")],
    "closedforms.gpoly": [("closedforms", "g_polynomial")],
    "unipoly.mul": [("unipoly", "UniPolynomial", "__mul__")],
    "cli.run": [("cli", "run")],
}


def _module(name: str):
    return importlib.import_module("invkostka." + name)


@functools.cache
def _memos() -> dict:
    # resolved once, before tracing can replace g_polynomial with a wrapper
    return {name: getattr(_module(mod), attr) for name, (mod, attr) in MEMO_SITES.items()}


def memo_counts() -> dict[str, dict[str, int]]:
    out = {}
    for name, fn in _memos().items():
        info = fn.cache_info()
        out[name] = {"size": info.currsize, "hits": info.hits, "misses": info.misses}
    return out


def memos_empty() -> bool:
    return all(not any(c.values()) for c in memo_counts().values())


def peak_rss_kb() -> int:
    """This process's own peak resident memory.  ``ru_maxrss`` would not do:
    across fork and exec it keeps the peak of the process that started this
    one, here the benchmark's own."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """Span recorder.  ``install`` wraps every site in SPAN_SITES; spans stay
    in memory until ``summary`` or ``write``."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def install(self) -> None:
        _memos()
        functions = {}  # id(original) -> wrapper
        for name, sites in SPAN_SITES.items():
            for site in sites:
                if len(site) == 3:
                    cls = getattr(_module(site[0]), site[1])
                    original = cls.__dict__[site[2]]
                    wrapper = self._wrap(name, original)
                    for attr, value in list(vars(cls).items()):
                        if value is original:  # also catches __rmul__ = __mul__
                            setattr(cls, attr, wrapper)
                else:
                    original = getattr(_module(site[0]), site[1])
                    functions[id(original)] = self._wrap(name, original)
        # rebind every module that imported an original, the package included
        for modname, mod in list(sys.modules.items()):
            if modname == "invkostka" or modname.startswith("invkostka."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in functions:
                        setattr(mod, attr, functions[id(value)])

    def summary(self, upto: int | None = None) -> dict[str, dict[str, int]]:
        """Calls and self time (span time minus its child spans) per name."""
        spans = self.spans[:upto]
        out: dict[str, dict[str, int]] = {}
        for name, start, end, parent, _ in spans:
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start
            if parent >= 0:
                p = spans[parent]
                out[p[0]]["self_ns"] -= end - start
        return out

    def write(self, path: str, upto: int | None = None) -> None:
        with open(path, "w") as f:
            f.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans[:upto]):
                f.write(f"{op}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
