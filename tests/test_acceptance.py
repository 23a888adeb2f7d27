"""Acceptance suite: ten end-to-end criteria, one printed verdict line per
criterion.  Run with -s (or read the captured output) to see the lines.

Each exhaustive identity sweep lives here once; the unit files keep
examples, domain errors, edge cases and reference comparisons.

Each criterion is independent and re-derives what it needs; nothing here
relies on fixtures from the other test files.
"""

import functools
import time

from invkostka.closedforms import (
    FormulaDomainError,
    corollary3,
    corollary4,
    corollary5,
    g_polynomial,
    h_coefficient_check,
    h_polynomial,
    h_polynomial_matrix,
    lemma5,
    lemma6,
)
from invkostka.inverse import (
    _brute_in_reach,
    enumerate_chains_S,
    enumerate_chains_T,
    inv_kostka_bruteforce,
    inv_kostka_duan,
    inv_kostka_er,
    inverse_kostka_matrix,
    kostka_matrix,
    monomial_to_schur,
    solution_pairs,
    f_polynomial,
)
from invkostka.partitions import Partition, enumerate_partitions
from invkostka.steenrod import steenrod_Sq, wu_rhs
from invkostka.symfunc import (
    SchurExpansion,
    alternant,
    elementary_symmetric,
    eliminate_last,
    expansion_to_polynomial,
    monomial_symmetric,
    pieri_multiply,
    schur,
    staircase,
)
from invkostka.unipoly import UniPolynomial
from invkostka.verify import exact_integer_inverse

P = Partition

GOLDEN_H = {
    25: [0, 0, 36, 0, 0, -252, 0, 0, 165, 0, 0, -12],
    26: [0, -9, 0, 0, 210, 0, 0, -330, 0, 0, 66, 0, 0, -1],
    27: [1, 0, 0, -120, 0, 0, 462, 0, 0, -220, 0, 0, 13],
    28: [0, 0, 45, 0, 0, -462, 0, 0, 495, 0, 0, -78, 0, 0, 1],
    29: [0, -10, 0, 0, 330, 0, 0, -792, 0, 0, 286, 0, 0, -14],
    30: [1, 0, 0, -165, 0, 0, 924, 0, 0, -715, 0, 0, 91, 0, 0, -1],
}


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL", flush=True)
                raise
            print(f"criterion {num} ({name}): PASS", flush=True)

        return wrapper

    return deco


@criterion(1, "golden h polynomials, under one second")
def test_criterion_01_golden_h_polynomials():
    start = time.perf_counter()
    got = {b: h_polynomial(b) for b in range(25, 31)}
    elapsed = time.perf_counter() - start
    for b, coeffs in GOLDEN_H.items():
        assert got[b] == UniPolynomial(coeffs), b
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "h at 30 reduced mod 3")
def test_criterion_02_h30_mod_3():
    want = UniPolynomial([1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2])
    assert h_polynomial(30).reduce_mod(3) == want


@criterion(3, "three engines vs exact matrix inverse, weight <= 8")
def test_criterion_03_engine_agreement():
    start = time.perf_counter()
    checked = 0
    for m in range(0, 9):
        shapes = enumerate_partitions(m)
        kostka = kostka_matrix(m)
        oracle = exact_integer_inverse(kostka.entries)
        for i, lam in enumerate(shapes):
            for j, mu in enumerate(shapes):
                want = oracle[i][j]
                assert inv_kostka_duan(lam, mu) == want, (lam, mu)
                assert inv_kostka_er(lam, mu) == want, (lam, mu)
                if _brute_in_reach(lam, mu):
                    assert inv_kostka_bruteforce(lam, mu) == want, (lam, mu)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == sum(len(enumerate_partitions(m)) ** 2 for m in range(9))
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@criterion(4, "matrix times inverse is the identity, weight <= 8")
def test_criterion_04_matrix_identity():
    for m in range(0, 9):
        k = kostka_matrix(m)
        ki = inverse_kostka_matrix(m)
        assert k.matmul(ki).is_identity(), m
        assert ki.matmul(k).is_identity(), m


@criterion(5, "signed chain sums equal the entry, weight <= 6")
def test_criterion_05_chain_sums():
    for m in range(0, 7):
        for lam in enumerate_partitions(m):
            for mu in enumerate_partitions(m):
                want = inv_kostka_duan(lam, mu)
                assert sum(c.sign for c in enumerate_chains_S(lam, mu)) == want
                assert sum(c.sign for c in enumerate_chains_T(lam, mu)) == want


@criterion(6, "closed forms match the engines, weight <= 10")
def test_criterion_06_closed_forms():
    for m in range(0, 11):
        shapes = enumerate_partitions(m)
        # full column
        mu = P([1] * m)
        for lam in shapes:
            assert lemma5(lam) == inv_kostka_duan(lam, mu), lam
        # column plus one part
        for a in range(1, m + 1):
            mu = P([1] * (m - a) + [a])
            for lam in shapes:
                assert lemma6(lam, a) == inv_kostka_duan(lam, mu), (lam, a)
        # column plus two parts, where the formula applies
        for b in range(2, m + 1):
            for a in range(2, b + 1):
                if m - a - b < 0:
                    continue
                mu = P([1] * (m - a - b) + [a, b])
                for lam in shapes:
                    try:
                        v = corollary3(lam, a, b)
                    except FormulaDomainError:
                        continue
                    assert v == inv_kostka_duan(lam, mu), (lam, a, b)
    # ones-and-twos rows against the full row expansion
    for k in range(0, 11):
        for l in range(0, (10 - k) // 2 + 1):
            assert corollary4(k, l) == monomial_to_schur(P([1] * k + [2] * l))

    # the worked expansion identities: both one-step expansions of the
    # entry at lambda=(2,3), mu=(1,1,1,2) come out to 2, and both
    # expansions at lambda=(1,2,2) to -2
    lhs = inv_kostka_duan(P([3]), P([1, 1, 1])) - inv_kostka_duan(P([2]), P([1, 1]))
    rhs = -inv_kostka_duan(P([3]), P([1, 2])) + inv_kostka_duan(P([2]), P([2]))
    assert lhs == rhs == 2
    lhs = inv_kostka_duan(P([1, 2]), P([1, 1, 1]))
    rhs = inv_kostka_duan(P([2, 2]), P([1, 1, 2])) - inv_kostka_duan(P([1, 2]), P([1, 2]))
    assert lhs == rhs == -2


@criterion(7, "polynomial closed form, recurrence, and matrix form agree")
def test_criterion_07_polynomial_recurrences():
    for k in range(0, 7):
        for l in range(0, k + 1):
            assert corollary5(k, l) == g_polynomial(k, l), (k, l)
    for b in range(0, 41):
        assert h_coefficient_check(b), b
    for b in range(6, 41):
        assert h_polynomial_matrix(b) == h_polynomial(b), b
    # smallest odd case of the matrix form, fixed expected value
    assert h_polynomial_matrix(7) == h_polynomial(7) == UniPolynomial([0, 0, 3])


@criterion(8, "squares match the Wu-style binomial sums, m <= 10")
def test_criterion_08_wu_formula():
    for m in range(1, 11):
        for k in range(0, m + 1):
            assert steenrod_Sq(k, m) == wu_rhs(k, m), (k, m)


@criterion(9, "signed solution polynomial evaluations, weight <= 5")
def test_criterion_09_solution_polynomial():
    for m in range(0, 6):
        for lam in enumerate_partitions(m):
            for mu in enumerate_partitions(m):
                f = f_polynomial(lam, mu)
                assert f(1) == inv_kostka_duan(lam, mu), (lam, mu)
                assert f(-1) == len(solution_pairs(lam, mu)), (lam, mu)


@criterion(10, "alternant, elimination, and column-multiplication identities")
def test_criterion_10_symmetric_function_identities():
    # a) the alternant of (lambda + staircase) factors through the Schur
    #    polynomial times the staircase alternant
    for n in range(1, 6):
        delta = staircase(n)
        a_delta = alternant(delta)
        for m in range(0, 7):
            for lam in enumerate_partitions(m):
                if lam.length > n:
                    continue
                shifted = tuple(a + d for a, d in zip(lam.padded(n), delta))
                assert alternant(shifted) == schur(lam, n) * a_delta, (lam, n)

    # b) extracting a coefficient commutes with eliminating the last slot,
    #    on every term and on the exponent (m, ..., m)
    for n in range(2, 5):
        for m in range(0, 7):
            for lam in enumerate_partitions(m):
                if lam.length > n:
                    continue
                h = monomial_symmetric(lam, n)
                for alpha in list(h.coeffs) + [(m,) * n]:
                    reduced = eliminate_last(h, alpha[-1])
                    assert h.coefficient(alpha) == reduced.coefficient(alpha[:-1]), (lam, alpha)
                # a last exponent that no term has leaves nothing
                seen_last = {alpha[-1] for alpha in h.coeffs}
                for r in range(0, m + 2):
                    if r not in seen_last:
                        assert not eliminate_last(h, r), (lam, r)

    # c) multiplying an expansion by a column matches polynomial arithmetic
    for m in range(0, 7):
        for lam in enumerate_partitions(m):
            base = SchurExpansion({lam: 1})
            for r in range(0, 4):
                prod_exp = pieri_multiply(base, r)
                n = max(1, m + r)  # no shape in the product has more parts
                lhs = expansion_to_polynomial(prod_exp, n)
                rhs = schur(lam, n) * elementary_symmetric(r, n)
                assert lhs == rhs, (lam, r)
