"""Cross-validation suites tying the independent computations together.

Every number this package produces can be computed at least two ways.  The
suites here sweep all partition pairs up to a weight cap and check that the
routes agree:

* both recurrence engines against a rational matrix inverse of the tableau
  counts, and against the brute-force signed enumeration,
* the product of the Kostka matrix with the computed inverse,
* signed chain counts for both chain families,
* the one-step expansion identity connecting the two recurrences,
* structural zeros, diagonal ones, and invariance under dropping common
  top parts,
* independence of the brute force from the number of variables,
* the Wu formula against the direct mod-2 row.

``verify_suite`` runs everything and returns a report; the CLI ``verify``
subcommand and the acceptance tests are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .inverse import (
    _BRUTE_MAX_N,
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
from .partitions import Partition, enumerate_partitions
from .steenrod import steenrod_Sq, wu_rhs


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


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
    """Invert an integer matrix by rational Gauss-Jordan elimination.

    Raises ValueError if the matrix is singular or the inverse is not
    integral.  Used as an engine-independent oracle: it never touches the
    recurrences.
    """
    n = len(entries)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(v.denominator != 1 for v in vals):
            raise ValueError("inverse is not integral")
        out.append(tuple(int(v) for v in vals))
    return tuple(out)


# Each suite is a generator that yields once per check: None when the check
# passes, or a description of the counterexample, which ends the suite.


def _pairs(weights):
    for m in weights:
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                yield m, lam, mu


def _suite_engine_agreement(max_weight: int):
    oracles = {}
    for m, lam, mu in _pairs(range(0, max_weight + 1)):
        if m not in oracles:  # Gauss-Jordan inverse, its entries in pair order
            oracles[m] = chain.from_iterable(exact_integer_inverse(kostka_matrix(m).entries))
        want = next(oracles[m])
        a = inv_kostka_duan(lam, mu)
        b = inv_kostka_er(lam, mu)
        if a != b:
            yield f"duan={a} er={b} at ({lam}, {mu})"
        elif a != want:
            yield f"duan={a} matrix-oracle={want} at ({lam}, {mu})"
        elif max(1, lam.length, mu.length) > _BRUTE_MAX_N:
            yield None
        else:
            c = inv_kostka_bruteforce(lam, mu)
            yield None if a == c else f"duan={a} brute={c} at ({lam}, {mu})"


def _suite_matrix_identity(max_weight: int):
    for m in range(0, max_weight + 1):
        prod = kostka_matrix(m).matmul(inverse_kostka_matrix(m))
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
        rl, rm = tail_reduction(lam, mu)
        if inv_kostka_duan(rl, rm) != entry:
            yield f"top-part reduction changed the entry at ({lam}, {mu})"
        yield None


def _suite_stability(max_weight: int):
    for m, lam, mu in _pairs(range(0, min(max_weight, 5) + 1)):
        base = max(1, lam.length, mu.length)
        if base > _BRUTE_MAX_N:
            continue
        vals = {inv_kostka_bruteforce(lam, mu, n) for n in range(base, m + 2)}
        if len(vals) != 1:
            yield f"value depends on n at ({lam}, {mu}): {sorted(vals)}"
        yield None


def _suite_wu(max_weight: int):
    for m in range(1, min(max_weight, 10) + 1):
        for k in range(0, m + 1):
            yield None if steenrod_Sq(k, m) == wu_rhs(k, m) else f"mismatch at k={k}, m={m}"


_SUITES = (
    ("engine_agreement", _suite_engine_agreement),
    ("matrix_identity", _suite_matrix_identity),
    ("chain_sums", _suite_chain_sums),
    ("one_step_expansions", _suite_corollary1),
    ("structure", _suite_cancellation),
    ("variable_count_stability", _suite_stability),
    ("wu_formula", _suite_wu),
)


def _run_suite(name: str, checks) -> SuiteResult:
    checked = 0
    for failure in checks:
        if failure is not None:
            return SuiteResult(name, False, checked, failure)
        checked += 1
    return SuiteResult(name, True, checked)


def verify_suite(max_weight: int) -> VerifyReport:
    if max_weight < 0:
        raise ValueError("max weight must be non-negative")
    results = tuple(_run_suite(name, suite(max_weight)) for name, suite in _SUITES)
    return VerifyReport(max_weight, results)
