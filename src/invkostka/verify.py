"""Cross-validation suites tying the independent computations together.

Every number this package produces can be computed at least two ways.  The
suites here sweep all partition pairs up to a weight cap and check that the
routes agree:

* both recurrence engines against an integer back-substitution inverse of
  the (unitriangular) tableau-count matrix, and against the brute-force
  signed enumeration,
* the product of the Kostka matrix with the computed inverse,
* signed chain counts for both chain families,
* the one-step expansion identity connecting the two recurrences,
* structural zeros, diagonal ones, and invariance under dropping common
  top parts (the reduced pair goes to the part-removal engine, which does
  no such reduction itself),
* independence of the brute force from the number of variables,
* the Wu formula against the direct mod-2 row.

``verify_suite`` runs everything and returns a report; the CLI ``verify``
subcommand and the acceptance tests are thin wrappers over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .inverse import (
    _brute_in_reach,
    cancellation_zero,
    enumerate_chains_S,
    enumerate_chains_T,
    inv_kostka_bruteforce,
    inv_kostka_duan,
    inv_kostka_er,
    inverse_kostka_matrix,
    kostka_matrix,
    tail_reduction,
    verify_corollary1,
)
from .partitions import enumerate_partitions
from .steenrod import steenrod_Sq, wu_rhs


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""
    elapsed: float = field(default=0.0, compare=False)  # seconds; not printed


@dataclass(frozen=True)
class VerifyReport:
    max_weight: int
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.suites)

    def summary_lines(self) -> list[str]:
        lines = []
        for s in self.suites:
            status = "ok" if s.passed else "FAIL"
            line = f"{s.name}: {status} ({s.checked} checks)"
            if s.detail:
                line += f" -- {s.detail}"
            lines.append(line)
        lines.append(
            f"verify: {'all suites passed' if self.ok else 'FAILURES'}"
            f" (max weight {self.max_weight})"
        )
        return lines


def exact_integer_inverse(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Invert an upper unitriangular integer matrix by back-substitution.

    In canonical order the Kostka matrix has this shape: dominance implies
    at most as many parts, and for equal length a lex-smaller part tuple.
    Raises ValueError on a non-zero entry below the diagonal, on a zero
    pivot (singular), and on a pivot other than +-1 (inverse not integral).
    Used as an engine-independent oracle: it never touches the recurrences.
    """
    n = len(entries)
    for i, row in enumerate(entries):
        if any(row[:i]):
            raise ValueError("matrix is not upper triangular")
        if not row[i]:
            raise ValueError("matrix is singular")
        if row[i] not in (1, -1):
            raise ValueError("inverse is not integral")
    # row i of the inverse, from the rows below it:
    # inv[i] = (e_i - sum_{k > i} a[i][k] * inv[k]) / a[i][i]
    inv: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = entries[i]
        acc = [0] * n
        acc[i] = 1
        for k in range(i + 1, n):
            a = row[k]
            if a:
                for j, v in enumerate(inv[k][k:], k):
                    acc[j] -= a * v
        pivot = row[i]  # +-1 is its own inverse
        inv[i] = acc if pivot == 1 else [-v for v in acc]
    return tuple(tuple(r) for r in inv)


# Each suite is a generator that yields once per check: None when the check
# passes, or a description of the counterexample, which ends the suite.


def _pairs(weights):
    for m in weights:
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                yield m, lam, mu


def _suite_engine_agreement(max_weight: int, kostka):
    oracles = {}
    for m, lam, mu in _pairs(range(0, max_weight + 1)):
        if m not in oracles:  # back-substitution inverse, its entries in pair order
            oracles[m] = chain.from_iterable(exact_integer_inverse(kostka(m).entries))
        want = next(oracles[m])
        a = inv_kostka_duan(lam, mu)
        b = inv_kostka_er(lam, mu)
        in_cap = _brute_in_reach(lam, mu)
        c = inv_kostka_bruteforce(lam, mu) if in_cap else want  # no vote past the cap
        if a == b == c == want:
            yield None
        else:
            brute = f" brute={c}" if in_cap else ""
            yield f"duan={a} er={b}{brute} matrix-oracle={want} at ({lam}, {mu})"


def _suite_matrix_identity(max_weight: int, kostka):
    # the inverse is built here because it is what this suite checks
    for m in range(0, max_weight + 1):
        prod = kostka(m).matmul(inverse_kostka_matrix(m))
        yield None if prod.is_identity() else f"K * K^-1 != I at weight {m}"


def _suite_chain_sums(max_weight: int):
    for _, lam, mu in _pairs(range(0, min(max_weight, 6) + 1)):
        k = inv_kostka_duan(lam, mu)
        s = sum(ch.sign for ch in enumerate_chains_S(lam, mu))
        t = sum(ch.sign for ch in enumerate_chains_T(lam, mu))
        yield None if k == s == t else f"entry={k} S-sum={s} T-sum={t} at ({lam}, {mu})"


def _suite_corollary1(max_weight: int):
    for _, lam, mu in _pairs(range(1, min(max_weight, 7) + 1)):
        res = verify_corollary1(lam, mu)
        yield None if res.equal else f"lhs={res.lhs} rhs={res.rhs} at ({lam}, {mu})"


def _suite_cancellation(max_weight: int):
    for _, lam, mu in _pairs(range(0, max_weight + 1)):
        entry = inv_kostka_duan(lam, mu)
        if lam == mu:
            yield None if entry == 1 else f"diagonal entry != 1 at {lam}"
        if cancellation_zero(lam, mu):
            yield None if entry == 0 else f"structural zero violated at ({lam}, {mu})"
        rl, rm = tail_reduction(lam, mu)  # er does no tail reduction of its own
        if inv_kostka_er(rl, rm) != entry:
            yield f"top-part reduction changed the entry at ({lam}, {mu})"
        yield None


def _suite_stability(max_weight: int):
    for m, lam, mu in _pairs(range(0, min(max_weight, 5) + 1)):
        base = max(1, lam.length, mu.length)  # at most 5, within the brute cap
        vals = {inv_kostka_bruteforce(lam, mu, n) for n in range(base, m + 2)}
        if len(vals) != 1:
            yield f"value depends on n at ({lam}, {mu}): {sorted(vals)}"
        yield None


def _suite_wu(max_weight: int):
    for m in range(1, min(max_weight, 10) + 1):
        for k in range(0, m + 1):
            yield None if steenrod_Sq(k, m) == wu_rhs(k, m) else f"mismatch at k={k}, m={m}"


def _run_suite(name: str, checks) -> SuiteResult:
    start = time.perf_counter()
    checked = 0
    for failure in checks:
        if failure is not None:
            return SuiteResult(name, False, checked, failure, time.perf_counter() - start)
        checked += 1
    return SuiteResult(name, True, checked, elapsed=time.perf_counter() - start)


def verify_suite(max_weight: int) -> VerifyReport:
    if max_weight < 0:
        raise ValueError("max weight must be non-negative")
    # one Kostka matrix per weight and call, read by both suites that need it
    kostka = lru_cache(maxsize=None)(kostka_matrix)
    suites = (
        ("engine_agreement", _suite_engine_agreement(max_weight, kostka)),
        ("matrix_identity", _suite_matrix_identity(max_weight, kostka)),
        ("chain_sums", _suite_chain_sums(max_weight)),
        ("one_step_expansions", _suite_corollary1(max_weight)),
        ("structure", _suite_cancellation(max_weight)),
        ("variable_count_stability", _suite_stability(max_weight)),
        ("wu_formula", _suite_wu(max_weight)),
    )
    return VerifyReport(max_weight, tuple(_run_suite(name, checks) for name, checks in suites))
