"""Integer partitions in the non-decreasing convention.

A partition is a finite multiset of positive integers, stored as a sorted
tuple ``p1 <= p2 <= ... <= pl``.  Leading zeros are implicit and appear only
through :meth:`Partition.padded`, where the largest part sits at the *end*
of the padded vector.  All strip and reduction operators below follow that
convention.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator


def _canonical(parts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(parts), parts


class WeightMismatchError(ValueError):
    """Two partitions were required to have the same weight but do not."""


class PartitionParseError(ValueError):
    """A partition literal could not be parsed."""


class Partition:
    """Immutable multiset of positive integers.

    Parts may be given in any order; storage is non-decreasing.  The empty
    partition plays the role of (0).  A partition hashes by its parts, and
    the enumeration memo hands out the same objects, so ``parts`` cannot be
    rebound or deleted.
    """

    __slots__ = ("parts",)

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(sorted(parts))
        for p in ps:
            if isinstance(p, bool) or not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        object.__setattr__(self, "parts", ps)

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "Partition":
        # fast path for internal callers that already hold a sorted tuple
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Partition is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Partition is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slot
        return Partition, (self.parts,)

    @classmethod
    def from_multiplicities(cls, pairs: Iterable[tuple[int, int]]) -> "Partition":
        parts: list[int] = []
        for value, mult in pairs:
            if mult < 0:
                raise ValueError("multiplicities must be non-negative")
            try:
                parts.extend([value] * mult)
            except MemoryError:
                raise ValueError("too many parts") from None
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse ``[1,1,2]`` (any order), ``1^2,2^1``, or ``0`` / ``[]`` for empty."""
        s = text.strip()
        if s == "0":
            return cls()
        try:
            if s.startswith("["):
                if not s.endswith("]"):
                    raise ValueError("missing closing bracket")
                body = s[1:-1].strip()
                if not body:
                    return cls()
                return cls(int(tok) for tok in body.split(","))
            pairs: list[tuple[int, int]] = []
            for tok in s.split(","):
                tok = tok.strip()
                if not tok:
                    raise ValueError("empty token")
                if "^" in tok:
                    base, _, exp = tok.partition("^")
                    value, mult = int(base), int(exp)
                    if mult < 1:
                        raise ValueError("multiplicity must be positive")
                else:
                    value, mult = int(tok), 1
                pairs.append((value, mult))
            return cls.from_multiplicities(pairs)
        except (ValueError, OverflowError) as exc:
            # OverflowError: a multiplicity too large to repeat
            raise PartitionParseError(f"cannot parse partition literal {text!r}: {exc}") from None

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical enumeration key: graded by length, then lexicographic."""
        return _canonical(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        """The partition as an n-vector with leading zeros, largest part last."""
        if n < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {n}")
        try:
            return (0,) * (n - len(self.parts)) + self.parts
        except MemoryError:
            raise ValueError(f"cannot pad {self} to length {n}: too many parts") from None

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """Pairs (value, multiplicity) with values strictly increasing."""
        return tuple((v, len(list(g))) for v, g in groupby(self.parts))

    def conjugate_count(self, a: int) -> int:
        """Number of parts that are >= a (column a of the diagram)."""
        if a < 1:
            raise ValueError("a must be positive")
        return sum(1 for p in self.parts if p >= a)

    def part_count(self, c: int) -> int:
        """Number of parts equal to c."""
        if c < 1:
            raise ValueError("c must be positive")
        return sum(1 for p in self.parts if p == c)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


def distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield the distinct rearrangements of a multiset, in lexicographic order."""
    out = sorted(values)
    while True:
        yield tuple(out)
        # the longest non-increasing suffix is already last in its order:
        # raise the entry before it to the next larger suffix value, then
        # put the suffix back in ascending order
        i = len(out) - 2
        while i >= 0 and out[i] >= out[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(out) - 1
        while out[j] <= out[i]:
            j -= 1
        out[i], out[j] = out[j], out[i]
        out[i + 1 :] = reversed(out[i + 1 :])


@lru_cache(maxsize=None)
def _partitions_lex(m: int, k: int, lo: int) -> tuple[tuple[int, ...], ...]:
    """Non-decreasing k-tuples of parts >= lo summing to m, in lex order."""
    if k == 0:
        return ((),) if m == 0 else ()
    out: list[tuple[int, ...]] = []
    for a in range(lo, m // k + 1):
        for rest in _partitions_lex(m - a, k - 1, a):
            out.append((a,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _enumerate_cached(m: int) -> tuple[Partition, ...]:
    out: list[Partition] = [Partition()] if m == 0 else []
    for k in range(1, m + 1):
        out.extend(Partition._from_sorted(t) for t in _partitions_lex(m, k, 1))
    return tuple(out)


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of m in canonical order: graded by length, then
    lexicographic on the non-decreasing part tuples."""
    if m < 0:
        raise ValueError("weight must be non-negative")
    return list(_enumerate_cached(m))


def remove_part(lam: Partition, j: int) -> Partition:
    """Remove one copy of the j-th smallest *distinct* part value (1-based)."""
    blocks = lam.multiplicities()
    if not 1 <= j <= len(blocks):
        raise IndexError(f"distinct-part index {j} out of range for {lam}")
    value = blocks[j - 1][0]
    ps = list(lam.parts)
    ps.remove(value)
    return Partition._from_sorted(tuple(ps))


def er_reduction(mu: Partition, i: int) -> Partition:
    """Drop the i-th smallest part and decrement every smaller-indexed part.

    Zeros produced by the decrements vanish; the result is automatically
    sorted in the non-decreasing convention.
    """
    if not 1 <= i <= mu.length:
        raise IndexError(f"part index {i} out of range for {mu}")
    return Partition._from_sorted(_er_reduce(mu.parts, i))


def _er_reduce(parts: tuple[int, ...], i: int) -> tuple[int, ...]:
    # tuple kernel of er_reduction, shared by the er engine and the T chains;
    # building a list first is faster than tuple() over a generator
    return tuple([p - 1 for p in parts[: i - 1] if p > 1]) + parts[i:]


# Aligned by padded position, a vertical strip moves a sub-multiset of parts
# by one box each, no part twice; one count k per block of equal parts hits
# each result once.  Each walk state is (parts so far, strip left), and a
# block moves at most what is left, so a spent strip stops branching instead
# of trying every choice.  The parts so far come out sorted, since every
# earlier part is at most the block's smaller value.  Removing a strip, a
# block gives up one box from each of k of its parts, where k is at least
# what the parts after the block cannot take, so every state ends spent but
# the empty tuple's; the k moved copies go before the unmoved ones, and a
# part equal to 1 that loses its box is dropped.  Adding a strip, a block
# grows k of its parts, the grown copies after the others, and what is left
# at the end becomes new parts equal to 1.
def _strip_predecessors(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """The vertical r-strip predecessors of a part tuple, in canonical order."""
    states: list[tuple[tuple[int, ...], int]] = [((), r)]
    after = len(parts)
    for value, group in groupby(parts):
        mult = len(list(group))
        after -= mult
        moved = (value - 1,) if value > 1 else ()
        block = [moved * k + (value,) * (mult - k) for k in range(min(mult, r) + 1)]
        states = [
            (acc + block[k], left - k)
            for acc, left in states
            for k in range(max(0, left - after), min(mult, left) + 1)
        ]
    return tuple(sorted((acc for acc, left in states if not left), key=_canonical))


_strip_predecessors_raw = lru_cache(maxsize=None)(_strip_predecessors)


@lru_cache(maxsize=None)
def _strip_successors_raw(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    states: list[tuple[tuple[int, ...], int]] = [((), r)]
    for value, group in groupby(parts):
        mult = len(list(group))
        block = [(value,) * (mult - k) + (value + 1,) * k for k in range(min(mult, r) + 1)]
        states = [
            (acc + block[k], left - k) for acc, left in states for k in range(min(mult, left) + 1)
        ]
    # the new parts equal to 1 go in front
    return tuple(sorted(((1,) * left + acc for acc, left in states), key=_canonical))


def vertical_strip_predecessors(mu: Partition, r: int) -> list[Partition]:
    """All partitions obtained from mu by removing a vertical r-strip.

    A vertical r-strip decreases exactly r of the padded entries by one, so
    only positive parts can shrink.  Results come out in canonical order.
    """
    if r < 0:
        raise ValueError("strip size must be non-negative")
    return [Partition._from_sorted(t) for t in _strip_predecessors_raw(mu.parts, r)]


def vertical_strip_successors(lam: Partition, r: int) -> list[Partition]:
    """All partitions mu such that mu minus lam is a vertical r-strip."""
    if r < 0:
        raise ValueError("strip size must be non-negative")
    return [Partition._from_sorted(t) for t in _strip_successors_raw(lam.parts, r)]


def check_same_weight(lam: Partition, mu: Partition) -> None:
    """Raise WeightMismatchError unless lam and mu have the same weight."""
    if lam.weight != mu.weight:
        raise WeightMismatchError(f"{lam} and {mu} have different weights")


def last_nonzero_compare(lam: Partition, mu: Partition) -> int:
    """Total order on equal-weight partitions: sign of the last nonzero
    difference of the padded vectors.  Returns -1, 0, or +1."""
    check_same_weight(lam, mu)
    return _last_nonzero_cmp(lam.parts, mu.parts)


def _last_nonzero_cmp(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    # Padding puts the largest parts last, so the padded vectors are
    # compared from the end; once the shorter tuple runs out, the longer
    # one still has a positive part where the other has a zero.
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x > y else -1
    return (len(a) > len(b)) - (len(a) < len(b))


def _inversions(seq: tuple[int, ...]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    inv = 0
    for i in range(len(seq)):
        si = seq[i]
        for j in range(i + 1, len(seq)):
            if si > seq[j]:
                inv += 1
    return inv
