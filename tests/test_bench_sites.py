"""The traced benchmark (``perfbench/probe.py``) reaches into the package by
name: it reads memo counters through ``cache_info()`` and wraps functions
and class-body methods with span recorders.  These tests resolve every name
it lists, so a refactor that moves or unwraps one fails here instead of
silently dropping a benchmark metric.  The input generator keeps its own
copy of the brute-force cap, checked here against the package's.
The benchmark also asserts empty memos at each pass start; ``clear_caches``
must reach every memo it reads, and every memo of the package is either one
it reads or named here as left out.  ``perfbench/`` is only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from invkostka import (
    _MEMOS,
    EPolynomial,
    Partition,
    clear_caches,
    epoly_to_polynomial,
    epoly_to_schur,
    g_polynomial,
    inv_kostka_duan,
    inv_kostka_er,
    kostka_number,
    monomial_to_schur,
    steenrod_P,
    steenrod_Sq,
    vertical_strip_predecessors,
    vertical_strip_successors,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probe = _load("probe")
SPAN_SITES = [
    (span, tuple(site)) for span, sites in sorted(probe.SPAN_SITES.items()) for site in sites
]


def _module(name):
    return importlib.import_module("invkostka." + name)


# package memos that MEMO_SITES leaves out on purpose, as (module, attribute):
# the strip engine's own tables and the row memo have no counters yet, and
# each leaves this list when the benchmark gains a site for it
UNCOUNTED_MEMOS = [
    ("inverse", "_intern"),
    ("inverse", "_part_removals"),
    ("inverse", "_weight_columns"),
    ("inverse", "_schur_row"),
]


def test_every_package_memo_is_a_memo_site_or_a_named_exclusion():
    counted = {id(getattr(_module(mod), attr)) for mod, attr in probe.MEMO_SITES.values()}
    uncounted = {id(getattr(_module(mod), attr)) for mod, attr in UNCOUNTED_MEMOS}
    assert not counted & uncounted
    assert uncounted <= _MEMOS.keys()  # an exclusion that is no memo is stale
    missing = [
        f"{memo.__module__}.{memo.__qualname__}"
        for key, memo in _MEMOS.items() if key not in counted | uncounted
    ]
    assert not missing, f"memos with no MEMO_SITES entry: {missing}"


@pytest.mark.parametrize("metric, site", sorted(probe.MEMO_SITES.items()))
def test_memo_site_is_memoized(metric, site):
    module, attr = site
    info = getattr(_module(module), attr).cache_info()
    assert info.currsize >= 0


@pytest.mark.parametrize(
    "span, site", SPAN_SITES, ids=[f"{span}:{'.'.join(site)}" for span, site in SPAN_SITES]
)
def test_span_site_resolves(span, site):
    if len(site) == 3:
        cls = getattr(_module(site[0]), site[1])
        assert callable(cls.__dict__[site[2]])  # defined in the class body itself
    else:
        assert callable(getattr(_module(site[0]), site[1]))


def test_row_results_keep_partition_coefficient_dicts():
    for result in (monomial_to_schur(Partition([1, 2])), steenrod_P(1, 1, 3), steenrod_Sq(1, 2)):
        assert type(result.coeffs) is dict
        assert all(type(p) is Partition and type(c) is int for p, c in result.coeffs.items())


def test_benchmark_inputs_keep_the_package_brute_force_cap():
    # the input generator does not import invkostka, so it keeps its own copy
    assert _load("inputs")._BRUTE_MAX_N == _module("inverse")._BRUTE_MAX_N


def test_clear_caches_empties_every_benchmark_memo():
    lam, mu = Partition([1, 2, 3]), Partition([1, 1, 1, 1, 2])
    inv_kostka_duan(lam, mu)
    inv_kostka_er(lam, mu)
    kostka_number(lam, mu)
    vertical_strip_predecessors(mu, 2)
    vertical_strip_successors(lam, 2)
    ep = EPolynomial({(1, 2): 1})
    epoly_to_schur(ep)
    epoly_to_polynomial(ep, 3)
    g_polynomial(2, 1)
    sizes = {name: c["size"] for name, c in probe.memo_counts().items()}
    assert len(sizes) == 11
    assert all(sizes.values()), sizes
    clear_caches()
    assert probe.memos_empty(), probe.memo_counts()


def test_clear_caches_reaches_a_memo_rebound_by_a_wrapper(monkeypatch):
    # as the benchmark's tracer does, rebind every module that imported the
    # memoized g_polynomial, the package included, to a plain wrapper
    original = _module("closedforms").g_polynomial
    original(3, 2)
    assert original.cache_info().currsize > 0

    def wrapper(*args):
        return original(*args)

    for name in ("invkostka", "invkostka.closedforms", "invkostka.cli"):
        monkeypatch.setattr(importlib.import_module(name), "g_polynomial", wrapper)
    clear_caches()
    assert original.cache_info().currsize == 0
