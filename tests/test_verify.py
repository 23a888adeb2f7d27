"""Cross-validation report: check counts and counterexample reporting."""

import invkostka.verify as verify
from invkostka.partitions import Partition
from invkostka.verify import verify_suite


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


def test_a_broken_engine_is_reported_with_its_counterexample(monkeypatch):
    monkeypatch.setattr(verify, "inv_kostka_er", lambda lam, mu: 7)
    report = verify_suite(2)
    assert not report.ok
    first = report.suites[0]
    assert (first.name, first.passed, first.checked) == ("engine_agreement", False, 0)
    assert first.detail == f"duan=1 er=7 at ({Partition()}, {Partition()})"
    assert all(s.passed for s in report.suites[1:])
    assert report.summary_lines()[0] == (
        "engine_agreement: FAIL (0 checks) -- duan=1 er=7 at ([], [])"
    )
    assert report.summary_lines()[-1] == "verify: FAILURES (max weight 2)"
