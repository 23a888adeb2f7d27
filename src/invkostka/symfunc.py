"""Exact symmetric-polynomial kernel over the integers.

Everything here is computed from first principles: monomial symmetric
polynomials as sums over distinct rearrangements, alternants as signed
permutation sums, Schur polynomials by a layered count of semistandard
tableaux (entry n down to entry 1, one horizontal strip each, with the
tableaux that agree on the entries placed so far counted together), and
Kostka numbers by horizontal-strip chains.  Shapes are part tuples in the
package's non-decreasing layout.  The sparse product and the tableau count
work on exponent vectors packed into integers by one codec (``_digits``),
so adding exponents is adding integers, and a polynomial keeps its terms
packed from one product to the next: they are unpacked once, when a caller
first reads them.  The kernel serves as the ground truth that the
recurrence engines are validated against.

Polynomials (``SparsePolynomial``), Schur expansions and, in ``steenrod``,
products of e_i share one sparse container, ``_Combination``; each supplies
only its hooks ``_key``, ``_sort_key`` and ``_like``.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .partitions import (
    Partition,
    _inversions,
    check_same_weight,
    distinct_permutations,
    vertical_strip_successors,
)


def _combine(pairs: Iterable[tuple], into: dict | None = None) -> dict:
    """Add the coefficients of (key, coeff) pairs per key into a clean dict
    (a new one by default), dropping every key whose sum becomes zero."""
    out: dict = {} if into is None else into
    get = out.get
    for key, c in pairs:
        v = get(key, 0) + c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def _scale(coeffs: dict, scalar: int) -> dict:
    """Every coefficient times a scalar; empty when the scalar is zero."""
    return {key: c * scalar for key, c in coeffs.items()} if scalar else {}


class _WideDigits(struct.Struct):
    """Digits wider than 8 bytes, which struct has no integer code for: each
    is a byte string, converted at pack and unpack."""

    def __init__(self, n: int, width: int):
        super().__init__(">" + f"{width}s" * n)
        self.width = width

    def pack(self, *expo: int) -> bytes:
        return super().pack(*(e.to_bytes(self.width, "big") for e in expo))

    def unpack(self, raw: bytes) -> tuple[int, ...]:
        return tuple(int.from_bytes(d, "big") for d in super().unpack(raw))


def _digits(n: int, top: int) -> struct.Struct:
    """n fixed-width big-endian digits, each the narrowest of 1, 2, 4 or 8
    bytes (or as many whole bytes as it takes) that holds ``top``."""
    width = max(1, -(-top.bit_length() // 8))
    for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        if width <= size:
            return struct.Struct(f">{n}{code}")
    return _WideDigits(n, width)


def _encode(terms: dict, digits: struct.Struct) -> list[tuple[int, int]]:
    """(key, coeff) pairs, each exponent vector packed into one integer
    whose digits are its entries, the first most significant."""
    pack, from_bytes = digits.pack, int.from_bytes
    return [(from_bytes(pack(*expo), "big"), c) for expo, c in terms.items()]


def _decode(terms: dict, digits: struct.Struct) -> dict:
    """The exponent vectors that ``_encode`` packed, with their coeffs."""
    unpack, size = digits.unpack, digits.size
    return {unpack(key.to_bytes(size, "big")): c for key, c in terms.items()}


def _unit_keys(n: int, digits: struct.Struct) -> list[int]:
    """The keys of x_1, ..., x_n, packed as ``_encode`` packs them."""
    units = (digits.pack(*(int(i == j) for j in range(n))) for i in range(n))
    return [int.from_bytes(unit, "big") for unit in units]


def staircase(n: int) -> tuple[int, ...]:
    """The staircase exponent vector (0, 1, ..., n-1); empty for n = 0."""
    if n < 0:
        raise ValueError(f"negative number of variables: {n}")
    return tuple(range(n))


class _Combination:
    """Finitely supported integer combination, held as a clean
    ``{key: coeff}`` dict, ``coeffs``, with no zero coefficients: the
    package's one sparse container.  It takes a mapping or (key, coeff)
    pairs.  A subclass supplies ``_key``, which normalises and checks a key
    given to the constructor or to ``get`` (``None`` marks a term that is
    zero), ``_sort_key``, the order of ``items`` (``None``: the keys' own
    order), and ``_like``, which builds a sum or scalar multiple from its
    clean dict and so carries any slot besides ``coeffs``.  Sums and
    equality need the same type on both sides.  ``coeffs`` is a plain slot
    here; ``SparsePolynomial`` makes it a view decoded on first read."""

    __slots__ = ("coeffs",)

    _sort_key = None

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ()
        key = self._key
        self.coeffs = _combine((key(k), c) for k, c in items)
        self.coeffs.pop(None, None)

    @classmethod
    def _unsafe(cls, coeffs: dict):
        # internal callers pass a dict that is already clean
        obj = object.__new__(cls)
        obj.coeffs = coeffs
        return obj

    def _like(self, coeffs: dict):
        return self._unsafe(coeffs)

    def get(self, key) -> int:
        return self.coeffs.get(self._key(key), 0)

    def items(self) -> list:
        return sorted(self.coeffs.items(), key=self._sort_key)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(_combine(other.coeffs.items(), dict(self.coeffs)))

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return self._like(_scale(self.coeffs, scalar))

    __rmul__ = __mul__


class SparsePolynomial(_Combination):
    """Sparse polynomial over Z in n variables, keyed by exponent tuples.

    Products, ``one``, ``elementary_symmetric``, ``schur`` and
    ``expansion_to_polynomial`` keep their terms packed, by the digits
    ``_digits(n, _top)`` of ``_top``, a bound on every exponent, so a chain
    of products never unpacks.  ``coeffs`` is a view decoded on first
    read; from then on it is the only copy of the terms.  Sums and equality
    read it."""

    __slots__ = ("n", "_packed", "_top")

    _view = _Combination.coeffs  # the base slot, here the decoded terms

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 0:  # n = 0 is the ring of constants, keyed by ()
            raise ValueError(f"negative number of variables: {n}")
        self.n = n
        super().__init__(terms)

    @property
    def coeffs(self) -> dict[tuple[int, ...], int]:
        if self._packed is not None:
            self._view = _decode(self._packed, _digits(self.n, self._top))
            self._packed = None
        return self._view

    @coeffs.setter
    def coeffs(self, terms: dict[tuple[int, ...], int]) -> None:
        self._view, self._packed = terms, None

    def _key(self, expo: Iterable[int]) -> tuple[int, ...]:
        expo = tuple(expo)
        # an int subclass such as bool would print otherwise once packed
        if len(expo) != self.n or any(type(e) is not int or e < 0 for e in expo):
            raise ValueError(f"bad exponent vector {expo!r} for n={self.n}")
        return expo

    @classmethod
    def _unsafe(cls, n: int, coeffs: dict[tuple[int, ...], int]) -> "SparsePolynomial":
        obj = super()._unsafe(coeffs)
        obj.n = n
        return obj

    @classmethod
    def _from_packed(cls, n: int, packed: dict[int, int], top: int) -> "SparsePolynomial":
        # packed is clean, by _digits(n, top)
        obj = object.__new__(cls)
        obj.n, obj._packed, obj._top = n, packed, top
        return obj

    def _bound(self) -> int:
        """A bound on every exponent: the recorded one while packed."""
        if self._packed is None:
            return max(chain.from_iterable(self._view), default=0)
        return self._top

    def _packed_at(self, digits: struct.Struct):
        """The (key, coeff) pairs packed by ``digits``, which must hold every
        exponent: the stored ones if they were packed alike."""
        if self._packed is not None and _digits(self.n, self._top).size == digits.size:
            return self._packed.items()
        return _encode(self.coeffs, digits)

    def _like(self, coeffs: dict) -> "SparsePolynomial":
        return self._unsafe(self.n, coeffs)

    @classmethod
    def one(cls, n: int) -> "SparsePolynomial":
        return cls._from_packed(n, {0: 1}, 0)

    coefficient = _Combination.get

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.n == other.n

    def __neg__(self) -> "SparsePolynomial":
        return self._like(_scale(self.coeffs, -1))

    def __add__(self, other):
        if type(other) is type(self) and self.n != other.n:
            raise ValueError("variable counts differ")
        return super().__add__(other)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return super().__mul__(other)  # a scalar, or NotImplemented
        if self.n != other.n:
            raise ValueError("variable counts differ")
        # exponent vectors packed as digits wide enough for any sum of two:
        # a sum never carries, so a monomial product is one integer sum
        top = self._bound() + other._bound()
        digits = _digits(self.n, top)
        a, b = self._packed_at(digits), other._packed_at(digits)
        if len(a) > len(b):
            a, b = b, a
        sums = _combine((k1 + k2, c1 * c2) for k1, c1 in a for k2, c2 in b)
        return self._from_packed(self.n, sums, top)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SparsePolynomial(n={self.n}, terms={len(self.coeffs)})"


def monomial_symmetric(lam: Partition, n: int) -> SparsePolynomial:
    """Sum of the distinct rearrangements of the padded exponent vector."""
    if n < lam.length:
        raise ValueError(f"{lam} needs at least {lam.length} variables")
    padded = lam.padded(n)
    return SparsePolynomial._unsafe(n, {w: 1 for w in distinct_permutations(padded)})


def alternant(alpha: tuple[int, ...]) -> SparsePolynomial:
    """The determinant det(x_j^{alpha_i}) as a signed sum over permutations.

    Repeated entries of alpha cancel to the zero polynomial.  Cost is n!,
    fine at desk scale.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    if n < 1:
        raise ValueError("alpha must be non-empty")
    if any(e < 0 for e in alpha):
        raise ValueError("alpha entries must be non-negative")
    terms = _combine(
        (tuple(alpha[p] for p in perm), -1 if _inversions(perm) % 2 else 1)
        for perm in permutations(range(n))
    )
    return SparsePolynomial._unsafe(n, terms)


def elementary_symmetric(r: int, n: int) -> SparsePolynomial:
    """e_r in n variables: the sum of all squarefree monomials of degree r,
    each packed as a sum of r unit keys."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    digits = _digits(n, 1)
    terms = dict.fromkeys(map(sum, combinations(_unit_keys(n, digits), r)), 1)
    return SparsePolynomial._from_packed(n, terms, 1)


@lru_cache(maxsize=None)
def _hstrip_predecessors(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(predecessor, removed) pairs where shape minus predecessor is a
    horizontal strip."""
    # part i keeps between the next smaller part (0 for the smallest) and
    # all of its cells; a predecessor is non-decreasing, so its zeros lead
    size = sum(shape)
    rows = [range(lo, row + 1) for lo, row in zip((0,) + shape, shape)]
    return tuple((pred[pred.count(0) :], size - sum(pred)) for pred in product(*rows))


def _tableau_sum(seed: dict, n: int) -> SparsePolynomial:
    """Weighted exponent counts of the semistandard tableaux with entries in
    1..n, filled from entry n down to entry 1, each entry a horizontal strip.

    ``seed`` maps each shape (a part tuple) to its coefficient.  Each level
    maps a part tuple still to be filled to ``{tail: weight}``, where a tail
    packs the exponents of the entries already placed as the digits of one
    integer (``_digits``); placing entry j adds its count at digit j, and
    entries not placed yet are zero digits, so a finished tail is already
    the key of its whole exponent vector.  Tableaux that agree on the
    entries placed so far are counted once, not walked one by one, and the
    polynomial keeps the keys packed."""
    # entry j fills at most one cell per column
    top = max((shape[-1] for shape in seed if shape), default=0)
    digits = _digits(n, top)
    units = _unit_keys(n, digits)
    level = {shape: {0: c} for shape, c in seed.items()}
    done: dict[int, int] = {}
    for j in range(n, 0, -1):
        below: dict = {}
        unit = units[j - 1]
        for shape, tails in level.items():
            if not shape:  # entries 1..j stay zero
                _combine(tails.items(), done)
            elif len(shape) <= j:  # else the first column needs more than j values
                for pred, removed in _hstrip_predecessors(shape):
                    step = removed * unit
                    _combine(((k + step, c) for k, c in tails.items()),
                             below.setdefault(pred, {}))
        level = below
    _combine(level.get((), {}).items(), done)
    return SparsePolynomial._from_packed(n, done, top)


def schur(lam: Partition, n: int) -> SparsePolynomial:
    """Schur polynomial as the content generating function of semistandard
    tableaux of shape lam with entries in 1..n.  The tableaux are counted
    layer by layer (``_tableau_sum``), not walked one at a time."""
    if n < lam.length:
        raise ValueError(f"{lam} needs at least {lam.length} variables")
    return _tableau_sum({lam.parts: 1}, n)


def eliminate_last(h: SparsePolynomial, r: int) -> SparsePolynomial:
    """Collect the terms with last exponent r and drop the last variable."""
    if h.n < 2:
        raise ValueError("need at least two variables to eliminate one")
    if r < 0:
        raise ValueError("exponent must be non-negative")
    return SparsePolynomial._unsafe(
        h.n - 1, {e[:-1]: c for e, c in h.coeffs.items() if e[-1] == r}
    )


def _kostka_sum(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """The Kostka number of part tuples as a sum over the horizontal strips
    that hold the last entry, each sub-count read through the memo."""
    if not content:
        return 1 if not shape else 0
    if len(shape) > len(content):
        return 0
    last = content[-1]
    total = 0
    for pred, removed in _hstrip_predecessors(shape):
        if removed == last:
            total += _kostka_raw(pred, content[:-1])
    return total


_kostka_raw = lru_cache(maxsize=None)(_kostka_sum)


def kostka_number(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    check_same_weight(lam, mu)
    return _kostka_raw(lam.parts, mu.parts)


class SchurExpansion(_Combination):
    """Finitely supported integer combination of Schur functions."""

    __slots__ = ()

    @staticmethod
    def _key(p) -> Partition:
        return p if isinstance(p, Partition) else Partition(p)

    @staticmethod
    def _sort_key(item: tuple[Partition, int]) -> tuple:
        return item[0].sort_key

    def support(self) -> list[Partition]:
        return [p for p, _ in self.items()]

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {c}" for p, c in self.items())
        return f"SchurExpansion({{{body}}})"


def pieri_multiply(expansion: SchurExpansion, r: int) -> SchurExpansion:
    """Multiply a Schur expansion by e_r: each shape grows by every possible
    vertical r-strip.  Stable form: shapes of any length are retained."""
    if r < 0:
        raise ValueError("strip size must be non-negative")
    return SchurExpansion._unsafe(
        _combine(
            (succ, c)
            for part, c in expansion.coeffs.items()
            for succ in vertical_strip_successors(part, r)
        )
    )


def expansion_to_polynomial(expansion: SchurExpansion, n: int) -> SparsePolynomial:
    """Evaluate a Schur expansion in n variables."""
    too_long = [p for p in expansion.coeffs if p.length > n]
    if too_long:
        raise ValueError(f"{too_long[0]} needs more than {n} variables")
    return _tableau_sum({part.parts: c for part, c in expansion.coeffs.items()}, n)
