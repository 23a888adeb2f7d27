"""Coefficient rows of Steenrod operations on Chern / Stiefel-Whitney classes.

The mod-p reduced power P^k applied to c_m expands over Schur classes with
coefficients given by an inverse Kostka row: the row of (1^(m-k), p^k),
reduced mod p.  For p = 2 this is Sq^k on w_m, and the classical Wu formula
gives the same row through elementary symmetric products; both routes are
implemented here so they can be compared coefficient by coefficient.

An EPolynomial is an integer combination of products of elementary
symmetric functions e_i, indexed by sorted tuples of their subscripts.
It is the target of the two-column Giambelli determinant and of the
integral (characteristic zero) lift of the Wu right-hand side.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .inverse import monomial_to_schur
from .partitions import Partition
from .symfunc import (
    SchurExpansion,
    SparsePolynomial,
    _Combination,
    _combine,
    elementary_symmetric,
    pieri_multiply,
)
from .unipoly import _pretty_sum


class ModPExpansion(SchurExpansion):
    """A Schur expansion with coefficients reduced to residues 0..p-1.

    It has no sums or scalar multiples: the integer ones it would inherit
    would leave the residues unreduced."""

    __slots__ = ("p",)

    def __init__(self, p: int, coeffs=None):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        super().__init__(coeffs)
        self.p = p
        self.coeffs = {part: c % p for part, c in self.coeffs.items() if c % p}

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.p == other.p

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __repr__(self) -> str:
        inner = ", ".join(f"{part}: {c}" for part, c in self.items())
        return f"ModPExpansion(p={self.p}, {{{inner}}})"


def expansion_mod(expansion: SchurExpansion, p: int) -> ModPExpansion:
    return ModPExpansion(p, expansion.coeffs)


# the primes 2 to 41: as Miller-Rabin bases together they decide every n
# below _PRIME_BOUND exactly (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by a deterministic Miller-Rabin test over
    ``_PRIME_BASES``.  A p at or above ``_PRIME_BOUND``, where the test is no
    longer exact, is refused with a ValueError."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    # p is odd and larger than every base: write p - 1 = d * 2^s, d odd
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_km(k: int, m: int) -> None:
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")


def _power_row(k: int, m: int, p: int) -> ModPExpansion:
    _check_km(k, m)
    lam = Partition.from_multiplicities(((1, m - k), (p, k)))
    return expansion_mod(monomial_to_schur(lam), p)


def steenrod_P(k: int, m: int, p: int) -> ModPExpansion:
    """Schur coefficients of P^k(c_m) for an odd prime p."""
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    return _power_row(k, m, p)


def steenrod_Sq(k: int, m: int) -> ModPExpansion:
    """Schur coefficients of Sq^k(w_m)."""
    return _power_row(k, m, 2)


# ---------------------------------------------------------------------------
# integer combinations of products of elementary symmetric functions


def _e_key(indices) -> tuple[int, ...] | None:
    # A product of e_i is keyed by its sorted nonzero indices (e_0 is the
    # unit); None marks a product with a negative index, which is zero.
    if any(i < 0 for i in indices):
        return None
    return tuple(sorted(i for i in indices if i > 0))


class EPolynomial(_Combination):
    """Integer combination of products e_(i1) e_(i2) ... , with i1 <= i2 <= ...

    Keys are sorted index tuples.  A factor e_0 is the unit and is dropped
    from the key; a factor with negative index makes the whole term zero.
    """

    __slots__ = ()

    _key = staticmethod(_e_key)

    def pretty(self) -> str:
        return _pretty_sum(("*".join(f"e{i}" for i in key), c) for key, c in self.items())

    def __repr__(self) -> str:
        return f"EPolynomial({self.pretty()})"


def giambelli_hook2(m: int, k: int) -> EPolynomial:
    """The two-column Schur function s_(1^(m-k), 2^k) written in the e_i:
    e_k e_m - e_(k-1) e_(m+1)."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return EPolynomial({(k, m): 1, (k - 1, m + 1): -1})


def integral_wu_lift(k: int, m: int) -> EPolynomial:
    """An integer e-polynomial that equals the monomial function of shape
    (1^(m-k), 2^k); its mod-2 Schur expansion is the Wu row for Sq^k(w_m).

    Each two-column Schur summand of the monomial function is replaced by
    its Giambelli determinant, with the signed binomial coefficient of the
    summand carried along.
    """
    _check_km(k, m)
    coeffs = _combine(
        (key, (-1) ** t * comb(m - k + t, t) * d)
        for t in range(k + 1)
        for key, d in giambelli_hook2(m + t, k - t).coeffs.items()
    )
    return EPolynomial._unsafe(coeffs)


@lru_cache(maxsize=None)
def _e_indices_to_schur(indices: tuple[int, ...]) -> SchurExpansion:
    acc = SchurExpansion({Partition(()): 1})
    for r in indices:
        acc = pieri_multiply(acc, r)
    return acc


def epoly_to_schur(ep: EPolynomial) -> SchurExpansion:
    """Expand each product of e_i over Schur functions by iterated
    column-strip multiplication and add everything up."""
    coeffs = _combine(
        (part, c * d)
        for key, c in ep.items()
        for part, d in _e_indices_to_schur(key).coeffs.items()
    )
    return SchurExpansion._unsafe(coeffs)


def wu_rhs(k: int, m: int) -> ModPExpansion:
    """Schur coefficients mod 2 of the classical Wu right-hand side
    sum over 0 <= i <= k of C(m-i-1, k-i) w_i w_(m+k-i)."""
    _check_km(k, m)
    ep = EPolynomial({(i, m + k - i): _wu_binom(m - i - 1, k - i) % 2 for i in range(k + 1)})
    return expansion_mod(epoly_to_schur(ep), 2)


def _wu_binom(n: int, r: int) -> int:
    # C(n, r) with the conventions needed at the boundary: C(n, 0) = 1
    # even for negative n, and 0 whenever r < 0 or r > n >= 0.
    if r < 0:
        return 0
    if r == 0:
        return 1
    if n < 0:
        return 0
    return comb(n, r)


@lru_cache(maxsize=16)
def _e_product_poly(indices: tuple[int, ...], n: int) -> SparsePolynomial:
    acc = SparsePolynomial.one(n)
    for i in indices:
        acc = acc * elementary_symmetric(i, n)
    return acc


def epoly_to_polynomial(ep: EPolynomial, n: int) -> SparsePolynomial:
    """Evaluate in n variables.  Factors e_i with i > n vanish, killing
    their whole term; n = 0 leaves the constant term."""
    if n < 0:
        raise ValueError(f"negative number of variables: {n}")
    terms = _combine(
        (expo, c * d)
        for key, c in ep.items()
        if all(i <= n for i in key)
        for expo, d in _e_product_poly(key, n).coeffs.items()
    )
    return SparsePolynomial._unsafe(n, terms)
