"""Inverse Kostka entries by three independent routes.

The three engines share no recurrence code:

* a recurrence that peels the largest part of mu and removes vertical
  strips ("duan" in the CLI),
* a recurrence that removes one distinct part of lambda against a special
  reduction of mu ("er" in the CLI),
* a brute-force signed enumeration of rearrangement/permutation pairs
  ("brute" in the CLI).

What they take from the partition toolkit are small kernels: the vertical
strip tables (duan), the ER reduction kernel (er), and the inversion count
(brute).  Duan needs no last-nonzero compare: after its tail reduction the
last parts differ, and that one pair decides the order.  The toolkit's
compare serves only ``cancellation_zero`` and ``last_nonzero_compare``.

The strip engine runs on partition ids.  Every part tuple it meets is
interned once into a table beside it, which keeps per id the largest part,
the length and the id without the largest part.  A sparse strip table keeps
the strip predecessors as ids, filled on first use and only for the ids that
are the rest of some mu (627 of the 2,714 ids at weight 20).  A step that
meets a strip size the table lacks fills that size alone, with one
predecessor walk of exactly that size; a strip longer than the partition is
stored empty without a walk.  Two memos over one int sit beside the tables:
the one-part removals of an id and the ids of the partitions of a weight,
grouped as a row's columns.
So the engine's memo hashes two small ints, and its step reads stored ids
instead of slicing and hashing tuples.  The public entry points intern their
arguments once, and the row and matrix builders intern the partitions of a
weight once.  Only duan uses the tables; er and brute run on part tuples.

Each recurrence step is a generator of signed (sign, j, lam', mu's) moves,
written once: on ids for duan, on part tuples for er.  A move removes one
part of lam and carries every mu' that goes with it, for duan the stored
strip predecessors and for er the one reduction.  The duan step joins two
rules, each written once: the peels of lam against the largest part of mu
(``_peels``) and the strip-table read of a strip size (``_strip_column``).
The memoized engine sums its own entries over them from its own frame, so a
step adds no stack depth.  The same moves serve twice more: the S and T
chains, whose signed counts reproduce the entry, unroll them down to the
empty pair in one lazy walk, which the enumerations collect and the CLI
writes chain by chain (the S walk decodes ids to part tuples only to record
each step), and the Corollary 1 check sums strip-engine entries over one
move of each step.  On top of these sit the signed-solution polynomial f and
labeled matrix builders for whole-weight tables.  The matrix builders and
the CLI's ``matrix`` command share one lazy row generator, so the CLI can
write each row as soon as it is computed.  Every partition it enumerates has
the weight it was given, so it calls the entry on ids without the per-entry
weight check of the public entry functions.  A row reads its columns
grouped by largest part (``_column_groups``), one grouping per weight kept
beside its ids (``_weight_columns``).  It visits only what the zero gate
leaves open: the groups whose largest part is at most lam's, and in each the
columns with at least as many parts as lam.  Every such group, lam's own
included, takes lam's peels once and sums its columns' entries itself,
without the memo, reading their sub-entries through tables of its own
(``_inverse_row``); against its own largest part lam has a single peel, of
strip size 0.  ``monomial_to_schur``, behind ``row`` and ``steenrod``, reads
the same row.  So the duan memo holds only sub-entries of lower weights,
never an entry of a matrix or row's own weight, and ``monomial_to_schur``
keeps each lam's nonzero support once, keyed by its parts (``_schur_row``),
because a long-lived caller such as a Steenrod computation asks for the same
few rows again and again.  The matrix builders never fill that row memo.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .partitions import (
    Partition,
    _enumerate_cached,
    _er_reduce,
    _inversions,
    _last_nonzero_cmp,
    _strip_predecessors,
    check_same_weight,
    enumerate_partitions,
)
from .symfunc import SchurExpansion, _kostka_sum
from .unipoly import UniPolynomial


def cancellation_zero(lam: Partition, mu: Partition) -> bool:
    """True when the entry vanishes for one of the two structural reasons:
    lambda is below mu in the last-nonzero order, or has more parts."""
    check_same_weight(lam, mu)
    return lam.length > mu.length or _last_nonzero_cmp(lam.parts, mu.parts) < 0


def tail_reduction(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """Strip the maximal common run of equal largest parts from both."""
    check_same_weight(lam, mu)
    a, b = lam.parts, mu.parts
    while a and b and a[-1] == b[-1]:
        a = a[:-1]
        b = b[:-1]
    return Partition._from_sorted(a), Partition._from_sorted(b)


# ---------------------------------------------------------------------------
# partition ids for the strip engine

# Id 0 is the empty partition; its largest part reads as 0.  Any other id is
# keyed by (id without its largest part, largest part), so interning is one
# step per part and the table holds no tuple per prefix: a deep literal such
# as 1^5000 costs one entry per part.  The tuples that were interned whole
# are looked up again with one hash.  Per id, the columns hold its largest
# part, its length and the id without its largest part.  The strip table
# beside them is sparse: only an id that is the rest of some mu (the id of mu
# without its largest part) gets an entry, {strip size: ids in canonical
# order}, on first use.
_id_of: dict[tuple[int, int], int] = {}
_id_of_parts: dict[tuple[int, ...], int] = {}
_top: list[int] = [0]
_length: list[int] = [0]
_rest: list[int] = [0]
_preds: dict[int, dict[int, tuple[int, ...]]] = {}


def _intern(parts: tuple[int, ...]) -> int:
    """The id of a sorted part tuple; each of its prefixes gets an id too."""
    i = _id_of_parts.get(parts)
    if i is not None:
        return i
    i = 0
    for p in parts:
        j = _id_of.get((i, p))
        if j is None:
            j = _id_of[i, p] = len(_top)
            _top.append(p)
            _length.append(_length[i] + 1)
            _rest.append(i)
        i = j
    _id_of_parts[parts] = i
    return i


def _decode(i: int) -> tuple[int, ...]:
    """The part tuple of an id."""
    parts = []
    while i:
        parts.append(_top[i])
        i = _rest[i]
    parts.reverse()
    return tuple(parts)


def _clear_ids() -> None:
    """Drop every id but the empty partition's.  A rebuilt table may give a
    partition another id, so the memos over ids go too."""
    for memo in (_duan_recurse, _part_removals, _weight_columns):
        memo.cache_clear()
    for table in (_id_of, _id_of_parts, _preds):
        table.clear()
    for column in (_top, _length, _rest):
        del column[1:]


# clear_caches() empties every module-level object with a cache_clear
_intern.cache_clear = _clear_ids


@lru_cache(maxsize=None)
def _weight_columns(m: int) -> _Columns:
    """The ids of the partitions of m >= 0 in canonical order, grouped as a
    row's columns (``_column_groups``)."""
    return _column_groups(tuple(_intern(p.parts) for p in _enumerate_cached(m)))


@lru_cache(maxsize=None)
def _part_removals(lam: int) -> tuple[tuple[int, int], ...]:
    """The one-part removals of an id as ((v, id of lam minus one v), ...),
    one per distinct part v, ascending."""
    parts = _decode(lam)
    return tuple(
        (v, _intern(parts[:j] + parts[j + 1 :]))
        for j, v in enumerate(parts)
        if j + 1 == len(parts) or parts[j + 1] != v
    )


# ---------------------------------------------------------------------------
# engine 1: peel the largest part of mu, remove vertical strips


def inv_kostka_duan(lam: Partition, mu: Partition) -> int:
    check_same_weight(lam, mu)
    return _duan_entry(_intern(lam.parts), _intern(mu.parts))


def _duan_entry(lam: int, mu: int) -> int:
    """The entry of a pair of ids: tail-reduce it, decide the empty and the
    cancelling cases, and sum a pair that is left through the memo (looked up
    on each call)."""
    # memo key is the pair of ids after tail reduction; the reduced form also
    # makes the cancellation tests cheap
    while lam and _top[lam] == _top[mu]:
        lam = _rest[lam]
        mu = _rest[mu]
    if not lam:  # every move keeps the weights equal, so mu is empty too
        return 1
    # now the largest parts differ, so the last-nonzero order is decided there
    if _length[lam] > _length[mu] or _top[lam] < _top[mu]:
        return 0
    return _duan_recurse(lam, mu)


def _duan_sum(lam: int, mu: int) -> int:
    """One step's signed sum of sub-entries, each read through the memo."""
    total = 0
    for sign, _, reduced, omegas in _duan_moves(lam, mu):
        for omega in omegas:
            total += sign * _duan_entry(reduced, omega)
    return total


_duan_recurse = lru_cache(maxsize=None)(_duan_sum)


def _duan_moves(lam: int, mu: int):
    """One strip-removal step on ids as (sign, j, lam', omegas) moves: each
    peel of lam against the largest part of mu (``_peels``) with the ids
    that removing its strip from the rest of mu leaves (``_strip_column``),
    in canonical order.  A peel that leaves none makes no move."""
    if not mu:
        return  # nothing to peel
    rest = _rest[mu]
    for sign, strip, reduced in _peels(lam, _top[mu]):
        omegas = _strip_column(rest, strip)
        if omegas:
            yield sign, strip, reduced, omegas


def _peels(lam: int, mu_max: int) -> list[tuple[int, int, int]]:
    """The removals of lam against a largest part mu_max of mu, as
    (sign, j, lam') triples: one per distinct part v >= mu_max of lam, which
    drops one v from lam and pairs with a vertical strip of size
    j = v - mu_max, with sign (-1)^j."""
    return [
        (-1 if (v - mu_max) % 2 else 1, v - mu_max, reduced)
        for v, reduced in _part_removals(lam)
        if v >= mu_max
    ]


def _strip_column(rest: int, strip: int) -> tuple[int, ...]:
    """The ids that removing a vertical strip of the given size from the id
    ``rest`` leaves, in canonical order, read from the strip table.  A size
    it lacks is filled on first use by one predecessor walk of that size, or
    stored empty without a walk when it is longer than the partition."""
    column = _preds.get(rest)
    if column is None:
        column = _preds[rest] = {}
    omegas = column.get(strip)
    if omegas is None:
        omegas = column[strip] = (
            tuple(map(_intern, _strip_predecessors(_decode(rest), strip)))
            if strip <= _length[rest]
            else ()
        )
    return omegas


# ---------------------------------------------------------------------------
# engine 2: remove one distinct part of lambda


def inv_kostka_er(lam: Partition, mu: Partition) -> int:
    check_same_weight(lam, mu)
    return _er_recurse(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _er_recurse(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not lam:  # every move keeps the weights equal, so mu is empty too
        return 1
    total = 0
    for sign, _, reduced, omegas in _er_moves(lam, mu):
        for omega in omegas:
            total += sign * _er_recurse(reduced, omega)
    return total


def _er_moves(lam: tuple[int, ...], mu: tuple[int, ...]):
    """One part-removal step as (sign, i, lam', (mu',)) moves, the shape of
    the strip step's: for each index i with mu_i + i - 1 a part of lam, drop
    that part from lam and take the ER reduction of mu at i, with sign
    (-1)^(i - 1)."""
    distinct = set(lam)
    for i, part in enumerate(mu, 1):
        value = part + i - 1
        if value not in distinct:
            continue
        j = lam.index(value)
        yield (-1 if i % 2 == 0 else 1), i, lam[:j] + lam[j + 1 :], (_er_reduce(mu, i),)


# ---------------------------------------------------------------------------
# engine 3: brute-force signed pair search

# the cross-checks skip brute force beyond this many variables
_BRUTE_MAX_N = 7


def _brute_in_reach(lam: Partition, mu: Partition) -> bool:
    """Whether a cross-check should run brute force on this pair."""
    return max(1, lam.length, mu.length) <= _BRUTE_MAX_N


@dataclass(frozen=True)
class SolutionPair:
    """One solution (w, sigma) of  w + sigma(staircase) = mu + staircase.

    ``w`` is a rearrangement of the padded lambda.  ``sigma`` is stored in
    one-line notation on 1..n, so the permuted staircase has i-th entry
    ``sigma[i] - 1``.  ``length`` is the inversion count of sigma and
    ``sign == (-1) ** length``.
    """

    w: tuple[int, ...]
    sigma: tuple[int, ...]
    sign: int
    length: int


def _brute_solutions(lam: Partition, mu: Partition, n: int | None):
    """Yield (w, staircase permutation, inversion count) for every solution
    in n variables (default: the larger length, at least one), with w in
    lexicographic order.

    The search assigns w position by position from the remaining multiset
    of the padded lambda, values ascending, and cuts a branch as soon as the
    staircase offset d = target - x at that position is negative (larger
    values only shrink it), is at least n, or is already taken.  The
    staircase has distinct entries, so the offsets are the permutation.
    An explicit stack keeps the depth off the Python call stack.
    """
    check_same_weight(lam, mu)
    if n is None:
        n = max(1, lam.length, mu.length)
    if n < max(lam.length, mu.length) or n < 1:
        raise ValueError(f"n={n} is too small for {lam} and {mu}")
    target = tuple(m + d for m, d in zip(mu.padded(n), range(n)))
    padded = lam.padded(n)
    values = sorted(set(padded))
    counts = [padded.count(v) for v in values]
    k = len(values)
    taken = bytearray(n)
    chosen = [-1] * n  # index into values placed at each position, or -1
    pos = 0
    while pos >= 0:
        t = target[pos]
        j = chosen[pos]
        if j >= 0:  # take back the value placed here, try the next one
            counts[j] += 1
            taken[t - values[j]] = 0
        j += 1
        while j < k:
            d = t - values[j]
            if d < 0:
                j = k
            elif d < n and counts[j] and not taken[d]:
                break
            else:
                j += 1
        if j == k:
            chosen[pos] = -1
            pos -= 1
            continue
        chosen[pos] = j
        counts[j] -= 1
        taken[d] = 1
        if pos + 1 < n:
            pos += 1
        else:
            w = tuple(values[c] for c in chosen)
            diff = tuple(x - y for x, y in zip(target, w))
            yield w, diff, _inversions(diff)


def inv_kostka_bruteforce(lam: Partition, mu: Partition, n: int | None = None) -> int:
    return sum(1 - 2 * (inv % 2) for _, _, inv in _brute_solutions(lam, mu, n))


def solution_pairs(lam: Partition, mu: Partition, n: int | None = None) -> list[SolutionPair]:
    out = []
    for w, diff, inv in _brute_solutions(lam, mu, n):
        sigma = tuple(d + 1 for d in diff)
        out.append(SolutionPair(w=w, sigma=sigma, sign=1 - 2 * (inv % 2), length=inv))
    return out


def f_polynomial(lam: Partition, mu: Partition, n: int | None = None) -> UniPolynomial:
    """The signed generating polynomial of solution pairs by inversion count:
    coefficient of t^i is (-1)^i times the number of solutions of length i.
    Evaluation at 1 gives the inverse Kostka entry; at -1, the solution count."""
    coeffs: list[int] = []
    for _, _, inv in _brute_solutions(lam, mu, n):
        coeffs += [0] * (inv + 1 - len(coeffs))
        coeffs[inv] += -1 if inv % 2 else 1
    return UniPolynomial(coeffs)


# ---------------------------------------------------------------------------
# chain enumerations


@dataclass(frozen=True)
class ChainS:
    """A chain from the empty partition up to mu where step i first removes
    the largest part of mu^i, then a vertical j_i-strip.  The recorded value
    b_i = largest(mu^i) + j_i; over a full chain the b_i rearrange lambda.
    sign == (-1) ** sum(j_i)."""

    steps: tuple[tuple[Partition, int], ...]
    b_values: tuple[int, ...]
    sign: int


@dataclass(frozen=True)
class ChainT:
    """A chain from the empty partition up to mu where step i drops the
    j_i-th smallest part of mu^i and decrements the smaller ones.  The value
    a_i = (j_i-th part of mu^i) + j_i - 1; the a_i rearrange lambda.
    sign == (-1) ** (sum(j_i) - k)."""

    steps: tuple[tuple[Partition, int], ...]
    a_values: tuple[int, ...]
    sign: int


def _chain_walk(lam: Partition, mu: Partition, family: str):
    """The S or T chains of a pair as a generator; the weights are checked at
    once.  The walk unrolls one recurrence step, ``_duan_moves`` on ids for S
    or ``_er_moves`` on part tuples for T, from (lam, mu) down to the empty
    pair.  A chain's sign is the product of its move signs; each step records
    (mu^i, j) and, as its value, the part of lam that the move spends.
    Chains come in depth-first order, each with its steps listed from the
    empty end."""
    check_same_weight(lam, mu)
    if family == "S":
        moves, chain, decode = _duan_moves, ChainS, _decode
        lam, mu = _intern(lam.parts), _intern(mu.parts)
    else:
        moves, chain, decode = _er_moves, ChainT, tuple
        lam, mu = lam.parts, mu.parts

    def walk(lam, mu, sign: int, steps: tuple):
        if not lam:  # every move keeps the weights equal, so mu is empty too
            yield chain(tuple(s for s, _ in steps), tuple(v for _, v in steps), sign)
            return
        recorded = Partition._from_sorted(decode(mu))
        weight = sum(decode(lam))
        for s, j, reduced, omegas in moves(lam, mu):
            step = ((recorded, j), weight - sum(decode(reduced)))
            for omega in omegas:
                yield from walk(reduced, omega, sign * s, (step,) + steps)

    return walk(lam, mu, 1, ())


def enumerate_chains_S(lam: Partition, mu: Partition) -> list[ChainS]:
    return list(_chain_walk(lam, mu, "S"))


def enumerate_chains_T(lam: Partition, mu: Partition) -> list[ChainT]:
    return list(_chain_walk(lam, mu, "T"))


# ---------------------------------------------------------------------------
# rows, matrices, and the one-step expansion cross-check


def monomial_to_schur(lam: Partition) -> SchurExpansion:
    """The full row of inverse Kostka entries: the Schur expansion of the
    monomial symmetric function indexed by lam, the matrix's row of lam.
    The row's nonzero support is kept once per lam (``_schur_row``); each
    call returns a fresh expansion over it."""
    return SchurExpansion._unsafe(dict(zip(*_schur_row(lam.parts))))


@lru_cache(maxsize=None)
def _schur_row(parts: tuple[int, ...]) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The nonzero entries of the matrix's row of a part tuple, as their
    labels and their values, in label order.  Keyed by parts, not ids, so
    clearing the id table leaves it valid."""
    m = sum(parts)
    row = _inverse_row(_intern(parts), _weight_columns(m))
    return tuple(compress(_enumerate_cached(m), row)), tuple(filter(None, row))


@dataclass(frozen=True)
class LabeledMatrix:
    """A square integer matrix with partition labels in canonical order."""

    labels: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]

    def entry(self, lam: Partition, mu: Partition) -> int:
        i = self.labels.index(lam)
        j = self.labels.index(mu)
        return self.entries[i][j]

    def matmul(self, other: "LabeledMatrix") -> "LabeledMatrix":
        """The product, summed over the nonzero entries only: each nonzero
        entry of a left row scales the nonzero entries of the matching right
        row, kept as their columns and their values."""
        if self.labels != other.labels:
            raise ValueError("label mismatch")
        n = len(self.labels)
        right = [
            (tuple(compress(range(n), row)), tuple(filter(None, row))) for row in other.entries
        ]
        rows = []
        for row in self.entries:
            out = [0] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in zip(*right[k]):
                        out[j] += a * b
            rows.append(tuple(out))
        return LabeledMatrix(self.labels, tuple(rows))

    def is_identity(self) -> bool:
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, v in enumerate(row)
        )


class _SubEntries(dict):
    """The sub-entries of one row under one of its one-part removals lam',
    by the id of mu': each is read through the memo on its first use and
    from here after that."""

    __slots__ = ("lam",)

    def __init__(self, lam: int):
        super().__init__()
        self.lam = lam

    def __missing__(self, mu: int) -> int:
        value = self[mu] = _duan_entry(self.lam, mu)
        return value


# a row's columns: the ids of its weight in canonical order, and per largest
# part the lengths, positions and ids of its columns (``_column_groups``)
_Columns = tuple[tuple[int, ...], list[tuple[list[int], list[int], list[int]]]]


def _column_groups(ids: tuple[int, ...]) -> _Columns:
    """The columns of a row over ids of one weight in canonical order, as
    the ids and their groups by largest part: group t holds the lengths, the
    positions and the ids of the columns whose largest part is t, in
    canonical order, which orders them by length."""
    groups: list[tuple[list[int], list[int], list[int]]] = []
    for position, mu in enumerate(ids):
        top = _top[mu]
        while len(groups) <= top:
            groups.append(([], [], []))
        lengths, positions, mus = groups[top]
        lengths.append(_length[mu])
        positions.append(position)
        mus.append(mu)
    return ids, groups


def _inverse_row(lam: int, columns: _Columns) -> tuple[int, ...]:
    """Row ``lam`` of the inverse Kostka matrix over the columns of its
    weight, as ``_column_groups`` groups them.  The row starts from zeros and
    visits only the columns that the zero gate leaves open: none whose
    largest part is larger than lam's, and none with fewer parts than lam.
    Each group with an open column takes the peels of lam against its
    largest part t once and sums each column's sub-entries over them here,
    reading them through one table per removal of lam; at weight 20 each is
    read about 11 times.  Against its own largest part lam has one peel, of
    strip size 0, so a column of that group reads the entry of lam and mu
    without their largest parts.  The tables go with the row.  The empty
    lam has no peel; its row is the one entry 1."""
    if not lam:
        return (1,)
    ids, groups = columns
    top, length = _top[lam], _length[lam]
    reads = {reduced: _SubEntries(reduced).__getitem__ for _, reduced in _part_removals(lam)}
    row = [0] * len(ids)
    for t, (lengths, positions, mus) in enumerate(groups[: top + 1]):
        first = bisect_left(lengths, length)
        if first == len(mus):
            continue  # no column here has as many parts as lam
        # an entry of weight m is read back only from a higher weight, which
        # a table of weight m never asks for, so it must never enter the memo
        peels = [(sign, strip, reads[reduced]) for sign, strip, reduced in _peels(lam, t)]
        for position, mu in zip(positions[first:], mus[first:]):
            rest = _rest[mu]
            total = 0
            for sign, strip, read in peels:
                total += sign * sum(map(read, _strip_column(rest, strip)))
            row[position] = total
    return tuple(row)


def _weight_rows(m: int, inverse: bool):
    """The partitions of m in canonical order, and a generator of the rows of
    the inverse Kostka matrix over them (the Kostka matrix, if not inverse)
    that computes each row only when it is asked for.  The weight is checked
    here, before any row.  Every partition of m has weight m, so the entries
    skip the weight check: duan rows (``_inverse_row``) take the ids of the
    weight as its grouped columns (``_weight_columns``), and tableau
    counting the part tuples.  Neither memoizes an entry of weight m, only
    the sub-entries below it."""
    labels = tuple(enumerate_partitions(m))
    if inverse:
        columns = _weight_columns(m)
        rows = (_inverse_row(a, columns) for a in columns[0])
    else:
        parts = [p.parts for p in labels]
        rows = (tuple(_kostka_sum(a, b) for b in parts) for a in parts)
    return labels, rows


def _weight_matrix(m: int, inverse: bool) -> LabeledMatrix:
    labels, rows = _weight_rows(m, inverse)
    return LabeledMatrix(labels, tuple(rows))


def kostka_matrix(m: int) -> LabeledMatrix:
    """Kostka numbers over all partitions of m, via tableau counting."""
    return _weight_matrix(m, False)


def inverse_kostka_matrix(m: int) -> LabeledMatrix:
    return _weight_matrix(m, True)


@dataclass(frozen=True)
class Corollary1Check:
    lhs: int
    rhs: int
    equal: bool


def verify_corollary1(lam: Partition, mu: Partition) -> Corollary1Check:
    """Expand the entry one step along each recurrence, both fed with
    sub-entries from the strip engine, and compare the two sums."""
    check_same_weight(lam, mu)
    a, b = lam.parts, mu.parts
    lhs = _duan_sum(_intern(a), _intern(b))
    rhs = sum(
        s * _duan_entry(_intern(l), _intern(m)) for s, _, l, ms in _er_moves(a, b) for m in ms
    )
    return Corollary1Check(lhs, rhs, lhs == rhs)
