"""Closed forms and the h/g polynomial machinery: examples, domain errors,
the sweeps that reach past the acceptance criteria, and the transfer-matrix
route.  The lemma 5/6, g closed-form, golden h and matrix-form sweeps are
acceptance criteria 1, 6 and 7."""

import copy
import hashlib

import pytest

from invkostka import closedforms
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
from invkostka.inverse import inv_kostka_duan, monomial_to_schur
from invkostka.partitions import Partition, enumerate_partitions
from invkostka.unipoly import UniPolynomial

P = Partition

def test_column_entry_formula_examples():
    assert lemma5(P([1, 2])) == -2
    assert lemma5(P([3])) == 1
    assert lemma5(P([1, 1, 1])) == 1
    assert lemma5(P()) == 1


def test_hook_column_formula_examples():
    assert lemma6(P([3]), 2) == -1
    assert lemma6(P([1, 2]), 2) == 1
    with pytest.raises(FormulaDomainError):
        lemma6(P([3]), 0)
    with pytest.raises(FormulaDomainError):
        lemma6(P([3]), 4)


def test_two_row_tail_formula_examples():
    assert corollary3(P([1, 1, 3]), 2, 2) == -1
    assert corollary3(P([2, 3]), 2, 2) == -1
    assert corollary3(P([1, 4]), 2, 2) == 1


def test_two_row_tail_formula_domain():
    with pytest.raises(FormulaDomainError):
        corollary3(P([1, 2]), 1, 2)  # a must exceed 1
    with pytest.raises(FormulaDomainError):
        corollary3(P([1, 2]), 3, 2)  # a must not exceed b
    with pytest.raises(FormulaDomainError):
        corollary3(P([3]), 2, 2)  # weight below a + b
    assert corollary3(P([5]), 2, 2) == 0  # one-row shapes vanish here


def test_two_row_tail_formula_sweep():
    checked = 0
    for m in range(4, 15):
        for b in range(2, m):
            for a in range(2, b + 1):
                if m - a - b < 0:
                    continue
                mu = P([1] * (m - a - b) + [a, b])
                for lam in enumerate_partitions(m):
                    try:
                        v = corollary3(lam, a, b)
                    except FormulaDomainError:
                        continue
                    assert v == inv_kostka_duan(lam, mu), (lam, a, b)
                    checked += 1
    assert checked > 1000


def test_ones_and_twos_row():
    assert corollary4(1, 1) == monomial_to_schur(P([1, 2]))
    row = corollary4(0, 2)
    assert row.get(P([2, 2])) == 1
    assert row.get(P([1, 1, 2])) == -1
    assert row.get(P([1, 1, 1, 1])) == 1
    with pytest.raises(FormulaDomainError):
        corollary4(-1, 0)


def test_ones_and_twos_row_sweep():
    for k in range(0, 6):
        for l in range(0, 5):
            assert corollary4(k, l) == monomial_to_schur(P([1] * k + [2] * l)), (k, l)


def test_g_polynomial_base_is_one():
    for k in range(0, 7):
        assert g_polynomial(k, 0) == UniPolynomial([1]), k


def test_g_polynomial_matches_engine():
    """Coefficient b of g is the entry of the ones-and-threes row at the
    shape with b twos, for every total weight k+3l <= 10."""
    for k in range(0, 11):
        for l in range(0, (10 - k) // 3 + 1):
            g = g_polynomial(k, l)
            w = k + 3 * l
            lam = P([1] * k + [3] * l)
            for b in range(0, w // 2 + 1):
                mu = P([1] * (w - 2 * b) + [2] * b)
                assert g.coefficient(b) == inv_kostka_duan(lam, mu), (k, l, b)
            assert g.degree() <= w // 2


def test_g_closed_form_example():
    assert corollary5(2, 1) == UniPolynomial([3, -1, -1])


def test_g_closed_form_domain():
    with pytest.raises(FormulaDomainError):
        corollary5(1, 2)
    with pytest.raises(FormulaDomainError):
        corollary5(-1, 0)


def test_h_polynomial_base_cases():
    assert h_polynomial(0) == UniPolynomial([1])
    assert h_polynomial(1) == UniPolynomial()
    assert h_polynomial(2) == UniPolynomial([0, -1])
    assert h_polynomial(3) == UniPolynomial([1])
    assert h_polynomial(4) == UniPolynomial([0, 0, 1])
    assert h_polynomial(5) == UniPolynomial([0, -2])
    with pytest.raises(FormulaDomainError):
        h_polynomial(-1)


def test_h30_mod_3():
    got = h_polynomial(30).reduce_mod(3)
    assert got == UniPolynomial([1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2])
    assert got.pretty() == "1 + 2*t^9 + t^12 + 2*t^15"


def _reference_h(b):
    # the recurrence on UniPolynomial arithmetic, as h_polynomial ran it
    # before it moved to coefficient lists
    if b < 4:
        return closedforms._H_BASE[b]
    window = list(closedforms._H_BASE[1:])
    for _ in range(b - 3):
        window.append(UniPolynomial([0, -1]) * window[1] + window[0])
        window.pop(0)
    return window[-1]


def test_h_polynomial_matches_the_polynomial_recurrence():
    for b in range(301):
        assert h_polynomial(b) == _reference_h(b), b


# sha256 of repr(h_polynomial(b).coeffs), taken from the UniPolynomial
# recurrence; the benchmark's h_matrix sizes, far past the tier-1 sweeps
_H_DIGESTS = {
    800: "2f9b6e4a5d769ae3b0e6e58e1f51ca399566925d812aeffc0580eef75bd4f6dd",
    901: "2e8ea120c72c376f4386f976368308d5e7ba7ef8e9ce7e85bd74c625336745ff",
    1000: "03e753d0abb163cd26a66a06e7b8f8229f93e19a1d4ddfb1bbe583f89f7a9e91",
    1101: "b15c3794c20c05f285face31c9fe86952df5fb6d5c501acacc76e91541af35c3",
}


def test_large_h_polynomials_keep_their_digests():
    for b, want in _H_DIGESTS.items():
        got = hashlib.sha256(repr(h_polynomial(b).coeffs).encode()).hexdigest()
        assert got == want, b


def test_shared_polynomials_cannot_be_rebound():
    # h_polynomial hands out the shared base cases and g_polynomial its memo
    # entries, so a rebound coeffs would poison every later result
    for poly in (h_polynomial(2), g_polynomial(3, 2)):
        before = poly.coeffs
        with pytest.raises(AttributeError):
            poly.coeffs = (7,)
        with pytest.raises(AttributeError):
            del poly.coeffs
        assert poly.coeffs == before
        assert copy.deepcopy(poly) == poly
    assert h_polynomial(8) == h_polynomial_matrix(8) == UniPolynomial([0, -3, 0, 0, 1])
    assert g_polynomial(3, 2) == corollary5(3, 2)


def test_h_coefficients_match_engine():
    # the range the transfer-matrix tests sweep, up to weight 80
    for b in range(0, 41):
        assert h_coefficient_check(b), b
    with pytest.raises(FormulaDomainError):
        h_coefficient_check(-1)


def test_h_matrix_form_domain():
    with pytest.raises(FormulaDomainError):
        h_polynomial_matrix(5)


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(closedforms._dot(row, col) for col in cols) for row in a)


def test_transfer_matrix_power():
    # _square(A^m) is the 2m-fold product, and the binary-digit route equals
    # k - 3 single steps of A on the base vector
    a = closedforms._STEP
    power, fold = a, a
    for m in range(1, 17):
        if m & (m - 1) == 0:  # m a power of two
            assert power == fold, m
            power = closedforms._square(power)
        fold = _matmul(fold, a)
    row = (UniPolynomial([0, 0, 1]), UniPolynomial([0, -2]), UniPolynomial([1]))
    for b in range(6, 42):
        r = b % 2
        vec = (h_polynomial(2 + r), h_polynomial(1 + r), h_polynomial(r))
        for _ in range(b // 2 - 3):
            vec = tuple(closedforms._dot(x, vec) for x in a)
        assert h_polynomial_matrix(b) == closedforms._dot(row, vec), b
    with pytest.raises(FormulaDomainError):
        h_polynomial_matrix(-1)


def test_transfer_matrix_power_counts_its_products(monkeypatch):
    # per bit of n = k - 3: nine dot products for each square, three for each
    # set bit's step on the vector, and one final row.  For n >= 2 the top
    # bit's power is not squared out but applied twice, one step more than
    # its set bit; n = 1 is a single step.
    calls = []
    original = closedforms._dot

    def counted(xs, ys):
        calls.append(1)
        return original(xs, ys)

    monkeypatch.setattr(closedforms, "_dot", counted)
    for b in range(6, 42):
        n = b // 2 - 3
        calls.clear()
        h_polynomial_matrix(b)
        squares = max(n.bit_length() - 2, 0)
        if n >= 2:
            want = 9 * squares + 3 * (bin(n).count("1") + 1) + 1
        else:
            want = 4 if n == 1 else 1
        assert len(calls) == want, b


def test_h_matrix_form_squares_once_per_bit_below_the_top(monkeypatch):
    # A^(k-3) goes onto the vector bit by bit: one square for each bit
    # strictly between bit 0 and the top bit of k - 3.  The top bit's power
    # is never squared out: its half goes onto the vector twice
    squares = []
    original = closedforms._square

    def counted(a):
        squares.append(1)
        return original(a)

    monkeypatch.setattr(closedforms, "_square", counted)
    for b in range(6, 201):
        squares.clear()
        assert h_polynomial_matrix(b) == h_polynomial(b), b
        assert len(squares) == max((b // 2 - 3).bit_length() - 2, 0), b
