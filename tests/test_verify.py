"""Cross-validation report: check counts, counterexample reporting, timing,
the back-substitution oracle, and the command-line script that prints the
report."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import invkostka.verify as verify
from invkostka.inverse import kostka_matrix
from invkostka.verify import SuiteResult, exact_integer_inverse, verify_suite


def test_every_suite_passes_and_counts_its_checks():
    report = verify_suite(4)
    assert report.ok
    assert [(s.name, s.checked) for s in report.suites] == [
        ("engine_agreement", 1 + 1 + 4 + 9 + 25),
        ("matrix_identity", 5),
        ("chain_sums", 1 + 1 + 4 + 9 + 25),
        ("one_step_expansions", 1 + 4 + 9 + 25),
        ("structure", 12 + 40 + 14),  # diagonals, top-part reductions, zeros
        ("variable_count_stability", 1 + 1 + 4 + 9 + 25),
        ("wu_formula", 2 + 3 + 4 + 5),
    ]


@pytest.mark.parametrize(
    "name, fake, detail, also_failing",
    [
        # the structure suite sends the tail-reduced pair to er as well
        ("inv_kostka_er", lambda lam, mu: 7, "duan=1 er=7 brute=1 matrix-oracle=1",
         [("structure", 1, "top-part reduction changed the entry at ([], [])")]),
        # the stability suite only asks that brute force ignore n
        ("inv_kostka_bruteforce", lambda lam, mu, n=None: 7, "duan=1 er=1 brute=7 matrix-oracle=1", []),
        ("exact_integer_inverse", lambda entries: [[7] * len(row) for row in entries],
         "duan=1 er=1 brute=1 matrix-oracle=7", []),
    ],
    ids=["er", "brute", "oracle"],
)
def test_a_broken_engine_is_reported_with_its_counterexample(
    monkeypatch, name, fake, detail, also_failing
):
    monkeypatch.setattr(verify, name, fake)
    report = verify_suite(2)
    assert not report.ok
    detail += " at ([], [])"
    failing = [(s.name, s.checked, s.detail) for s in report.suites if not s.passed]
    assert failing == [("engine_agreement", 0, detail)] + also_failing
    assert report.summary_lines()[0] == f"engine_agreement: FAIL (0 checks) -- {detail}"
    assert report.summary_lines()[-1] == "verify: FAILURES (max weight 2)"


def test_a_brute_force_that_depends_on_n_fails_only_the_stability_suite(monkeypatch):
    brute = verify.inv_kostka_bruteforce

    def off_past_the_least_n(lam, mu, n=None):
        value = brute(lam, mu, n)
        return value if n in (None, max(1, lam.length, mu.length)) else value + 1

    monkeypatch.setattr(verify, "inv_kostka_bruteforce", off_past_the_least_n)
    report = verify_suite(2)
    failing = [(s.name, s.checked, s.detail) for s in report.suites if not s.passed]
    assert failing == [
        ("variable_count_stability", 1, "value depends on n at ([1], [1]): [1, 2]")
    ]


def test_suites_are_timed_without_changing_the_report():
    report = verify_suite(3)
    assert all(s.elapsed > 0 for s in report.suites)
    assert SuiteResult("x", True, 1, elapsed=1.0) == SuiteResult("x", True, 1, elapsed=2.0)
    assert report.summary_lines()[0] == "engine_agreement: ok (15 checks)"


def _gauss_jordan_inverse(entries):
    n = len(entries)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(int(v) for v in row[n:]) for row in aug)


def test_oracle_matches_gauss_jordan_on_kostka_matrices():
    for m in range(0, 11):
        entries = kostka_matrix(m).entries
        assert exact_integer_inverse(entries) == _gauss_jordan_inverse(entries), m


def test_oracle_inverts_a_negative_pivot():
    entries = ((1, 2, 3), (0, -1, 4), (0, 0, 1))
    assert exact_integer_inverse(entries) == _gauss_jordan_inverse(entries)


@pytest.mark.parametrize(
    "entries, message",
    [
        (((1, 0), (1, 1)), "not upper triangular"),
        (((1, 2, 3), (0, 1, 0), (0, 5, 1)), "not upper triangular"),
        (((1, 2), (0, 0)), "singular"),
        (((1, 2, 3), (0, 2, 1), (0, 0, 1)), "not integral"),
    ],
)
def test_oracle_rejects_what_it_cannot_invert(entries, message):
    with pytest.raises(ValueError, match=message):
        exact_integer_inverse(entries)


def test_full_verify_script_refuses_a_negative_weight():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "full_verify.py"), "--max-weight", "-1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    usage, error = proc.stderr.splitlines()
    assert usage.startswith("usage: full_verify.py")
    assert error == "full_verify.py: error: --max-weight must be non-negative, got -1"
