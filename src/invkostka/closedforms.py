"""Closed-form evaluations for structured shapes.

Each function here computes a family of inverse Kostka entries directly,
without running a recurrence over partition pairs.  They serve as fast
paths and, more importantly, as independent witnesses for the engines in
``inverse``: the test suite checks every formula against the recurrences
over its whole small-weight domain.

Shape conventions follow the rest of the package: partitions are stored
non-decreasing, and a column partition of m is written (1^m).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from operator import sub

from .inverse import inv_kostka_duan
from .partitions import Partition
from .symfunc import SchurExpansion
from .unipoly import UniPolynomial


class FormulaDomainError(ValueError):
    """A closed form was asked for parameters outside its validity range."""


def _signed_orderings(lam: Partition, mu_len: int, d: int, t: int) -> int:
    """(-1)^(mu_len - l) * t * (l - d)! / (i_1! ... i_k!), where l is the
    length of lam and i_1, ..., i_k its multiplicities."""
    l = lam.length
    den = prod(factorial(i) for _, i in lam.multiplicities())
    sign = -1 if (mu_len - l) % 2 else 1
    return sign * t * factorial(l - d) // den


def lemma5(lam: Partition) -> int:
    """Entry at mu = (1^m): sign times the multinomial count of orderings
    of lambda's parts, (-1)^(m - l) * l! / (i_1! ... i_k!)."""
    return _signed_orderings(lam, lam.weight, 0, 1)


def lemma6(lam: Partition, a: int) -> int:
    """Entry at mu = (1^(m-a), a) for a >= 1, where m is the weight."""
    if a < 1 or a > lam.weight:
        raise FormulaDomainError(f"need 1 <= a <= weight, got a={a}")
    return _signed_orderings(lam, lam.weight - a + 1, 1, lam.conjugate_count(a))


def corollary3(lam: Partition, a: int, b: int) -> int:
    """Entry at mu = (1^m0, a, b) with 1 < a <= b and m0 = weight - a - b.

    The formula needs at least two parts in lam; a one-row shape has a
    nonzero entry only against column-plus-one-part shapes, never against
    mu with two parts >= 2, so that case returns 0 directly.
    """
    if not 1 < a <= b:
        raise FormulaDomainError(f"need 1 < a <= b, got a={a}, b={b}")
    m0 = lam.weight - a - b
    if m0 < 0:
        raise FormulaDomainError(
            f"weight {lam.weight} too small for mu = (1^m0,{a},{b})"
        )
    if lam.length < 2:
        return 0
    # One summand per part >= b.  A part equal to b contributes the count of
    # parts >= a once that copy of b is gone (one fewer, as a <= b); a larger
    # part contributes, with opposite sign, the count of parts equal to a-1,
    # which removing it leaves alone (a-1 < b).
    t = lam.part_count(b) * (lam.conjugate_count(a) - 1)
    t -= lam.conjugate_count(b + 1) * lam.part_count(a - 1)
    return _signed_orderings(lam, m0 + 2, 2, t)


def corollary4(k: int, l: int) -> SchurExpansion:
    """Schur expansion of the monomial function of shape (1^k, 2^l):
    supported on (1^(k+2t), 2^(l-t)) with coefficient (-1)^t C(k+t, t)."""
    if k < 0 or l < 0:
        raise FormulaDomainError("k and l must be non-negative")
    terms = {}
    for t in range(l + 1):
        shape = Partition.from_multiplicities(((1, k + 2 * t), (2, l - t)))
        coeff = comb(k + t, t)
        terms[shape] = -coeff if t % 2 else coeff
    return SchurExpansion(terms)


@lru_cache(maxsize=None)
def g_polynomial(k: int, l: int) -> UniPolynomial:
    """Generating polynomial of entries of (1^k, 3^l) against two-column
    shapes: the coefficient of t^b is the entry at (1^a, 2^b), a + 2b fixed
    by the weight k + 3l.
    """
    if k < 0 or l < 0:
        raise FormulaDomainError("k and l must be non-negative")
    if l == 0:
        return UniPolynomial([1])
    res = UniPolynomial([comb(k + l, l)]) - UniPolynomial([0, 1, 1]) * g_polynomial(k, l - 1)
    if (k + 3 * l) % 2:
        # odd total weight: the all-twos shape exists one level down and
        # feeds back in with a two-step shift
        half = (k + 3 * (l - 1)) // 2
        lam = Partition.from_multiplicities(((1, k), (3, l - 1)))
        mu = Partition.from_multiplicities(((2, half),))
        c = inv_kostka_duan(lam, mu)
        if c:
            res = res + UniPolynomial.monomial(c, half + 2)
    return res


def corollary5(k: int, l: int) -> UniPolynomial:
    """Closed form for g_polynomial valid when k > l - 1:
    sum over 0 <= i <= l of (-1)^i C(k+l-i, k) (t + t^2)^i."""
    if k < 0 or l < 0:
        raise FormulaDomainError("k and l must be non-negative")
    if not k > l - 1:
        raise FormulaDomainError(f"need k > l - 1, got k={k}, l={l}")
    base = UniPolynomial([0, 1, 1])
    res = UniPolynomial()
    power = UniPolynomial([1])
    for i in range(l + 1):
        c = comb(k + l - i, k)
        res = res + (-c if i % 2 else c) * power
        power = power * base
    return res


_H_BASE = (
    UniPolynomial([1]),
    UniPolynomial(),
    UniPolynomial([0, -1]),
    UniPolynomial([1]),
)


def h_polynomial(b: int) -> UniPolynomial:
    """Generating polynomial of entries against the rectangle (2^b): the
    coefficient of t^k is the entry of (1^k, 3^l) at (2^b), where
    k + 3l = 2b.  Satisfies h_b = -t h_(b-2) + h_(b-3).

    The recurrence runs on coefficient lists: the product by t is a shift
    by one place, so no step multiplies."""
    if b < 0:
        raise FormulaDomainError("b must be non-negative")
    if b < 4:
        return _H_BASE[b]
    # coefficients of h_(i-3), h_(i-2), h_(i-1) as i runs up to b
    h3, h2, h1 = (list(h.coeffs) for h in _H_BASE[1:])
    for _ in range(b - 3):
        shifted = [0, *h2]
        pad = len(shifted) - len(h3)
        h3, h2, h1 = h2, h1, list(map(sub, h3 + [0] * pad, shifted + [0] * -pad))
    return UniPolynomial(h1)


def _dot(xs, ys) -> UniPolynomial:
    return sum((a * b for a, b in zip(xs, ys)), UniPolynomial())


# The transfer matrix A, as row tuples: one application advances
# (h_(b-2), h_(b-4), h_(b-6)) to (h_b, h_(b-2), h_(b-4)).
_STEP = tuple(
    tuple(UniPolynomial(c) for c in row)
    for row in (([0, -1], [1], []), ([], [0, -1], [1]), ([1], [], []))
)


def _square(a):
    """The 3x3 polynomial matrix a times itself."""
    cols = tuple(zip(*a))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def h_polynomial_matrix(b: int) -> UniPolynomial:
    """h_polynomial(b) through the transfer-matrix form, valid for b >= 6.

    With b = 2k + r (r the parity bit), the value is the product
    (t^2, -2t, 1) . A^(k-3) . (h_(2+r), h_(1+r), h_r)^T.  The power is
    never formed: it goes onto the vector by binary digits, through
    repeated squares of A that stop one short of the top digit.  The route
    works on UniPolynomial arithmetic, so it shares nothing with
    h_polynomial's list recurrence but the base cases.
    """
    r = b % 2
    k = (b - r) // 2
    if k < 3:
        raise FormulaDomainError(f"matrix form needs b >= 6, got b={b}")
    # Powers of A commute, so A^(k-3) goes onto the vector one binary digit
    # at a time: A^(2^i) is applied when bit i is set, then squared for bit
    # i + 1.  The top bit's square is skipped: A^(2^(top-1)) goes onto the
    # vector twice, 18 polynomial products against 27 for the square and 9
    # for applying it.
    vec = (_H_BASE[2 + r], _H_BASE[1 + r], _H_BASE[r])
    power, n = _STEP, k - 3
    while n:
        if n & 1:
            vec = tuple(_dot(row, vec) for row in power)
        n >>= 1
        if n == 1:
            for _ in range(2):
                vec = tuple(_dot(row, vec) for row in power)
            break
        if n:
            power = _square(power)
    row = (UniPolynomial([0, 0, 1]), UniPolynomial([0, -2]), UniPolynomial([1]))
    return _dot(row, vec)


def h_coefficient_check(b: int) -> bool:
    """Verify every coefficient of h_polynomial(b) against the recurrence
    engine."""
    if b < 0:
        raise FormulaDomainError("b must be non-negative")
    h = h_polynomial(b)
    if h.degree() > 2 * b:
        return False
    mu = Partition.from_multiplicities(((2, b),))
    for k in range(2 * b + 1):
        l, rem = divmod(2 * b - k, 3)
        if rem:
            expected = 0
        else:
            lam = Partition.from_multiplicities(((1, k), (3, l)))
            expected = inv_kostka_duan(lam, mu)
        if h.coefficient(k) != expected:
            return False
    return True
