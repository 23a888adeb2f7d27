"""Partition toolkit: parsing, enumeration order, strips, reductions."""

import copy
import pickle
from functools import cmp_to_key
from itertools import groupby, permutations

import pytest
from hypothesis import given, strategies as st

from invkostka.partitions import (
    Partition,
    PartitionParseError,
    WeightMismatchError,
    _strip_predecessors_raw,
    _strip_successors_raw,
    distinct_permutations,
    enumerate_partitions,
    er_reduction,
    last_nonzero_compare,
    remove_part,
    vertical_strip_predecessors,
    vertical_strip_successors,
)
from invkostka.inverse import inv_kostka_duan
from invkostka.symfunc import _hstrip_predecessors, monomial_symmetric

partitions = st.builds(
    Partition, st.lists(st.integers(min_value=1, max_value=8), max_size=6)
)


def test_parts_are_sorted_nondecreasing():
    assert Partition([3, 1, 2]).parts == (1, 2, 3)
    assert Partition([2, 2, 1, 2]).parts == (1, 2, 2, 2)


def test_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])


def test_rejects_bool_parts():
    for parts in ([True, 2], [False], [1, True]):
        with pytest.raises(ValueError, match="positive integers"):
            Partition(parts)


def test_parse_bracket_form_any_order():
    assert Partition.parse("[1,1,2]") == Partition([1, 1, 2])
    assert Partition.parse("[2, 1, 1]") == Partition([1, 1, 2])
    assert Partition.parse("[5]") == Partition([5])


def test_parse_multiplicity_form():
    assert Partition.parse("1^2,2^1") == Partition([1, 1, 2])
    assert Partition.parse("3^2") == Partition([3, 3])
    assert Partition.parse("2,2,5") == Partition([2, 2, 5])
    assert Partition.parse(" 1^1 , 2^1 ") == Partition([1, 2])


def test_parse_empty_partition():
    assert Partition.parse("[]") == Partition()
    assert Partition.parse("0") == Partition()


@pytest.mark.parametrize(
    "bad", ["", "[1,2", "1,2]", "x", "[a]", "1^", "^2", "1^0", "[-1]", "-3", "1,,2"]
)
def test_parse_rejects_bad_literals(bad):
    with pytest.raises(PartitionParseError):
        Partition.parse(bad)


def test_str_and_repr():
    assert str(Partition([2, 1, 2])) == "[1,2,2]"
    assert str(Partition()) == "[]"
    assert repr(Partition([1, 2])) == "Partition([1, 2])"


@given(partitions)
def test_parse_str_roundtrip(p):
    assert Partition.parse(str(p)) == p


def test_padded_puts_largest_last():
    assert Partition([1, 3]).padded(4) == (0, 0, 1, 3)
    assert Partition().padded(2) == (0, 0)
    with pytest.raises(ValueError):
        Partition([1, 1, 1]).padded(2)
    # 10**11 zeros do not fit in memory; the allocation fails at once
    with pytest.raises(ValueError, match="too many parts"):
        Partition([1, 2]).padded(10**11)


def test_multiplicities_and_counts():
    p = Partition([1, 1, 3, 3, 3, 7])
    assert p.multiplicities() == ((1, 2), (3, 3), (7, 1))
    assert p.conjugate_count(3) == 4
    assert p.conjugate_count(1) == p.length
    assert p.part_count(3) == 3
    assert p.part_count(2) == 0


def test_enumeration_is_graded_then_lex():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (1, 2), (1, 1, 1)]
    assert enumerate_partitions(0) == [Partition()]


def test_partition_counts_match_known_sequence():
    # p(1)..p(12)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert [len(enumerate_partitions(m)) for m in range(1, 13)] == expected


def test_enumeration_has_no_duplicates_and_right_weight():
    for m in range(0, 10):
        seen = enumerate_partitions(m)
        assert len(set(seen)) == len(seen)
        assert all(p.weight == m for p in seen)


def test_memoized_partitions_cannot_be_rebound():
    # enumerate_partitions hands out its memoized objects, so a rebound
    # parts would list a wrong partition for the rest of the process
    p = enumerate_partitions(3)[0]
    with pytest.raises(AttributeError):
        p.parts = (1, 1, 1, 1)
    with pytest.raises(AttributeError):
        del p.parts
    assert [q.parts for q in enumerate_partitions(3)] == [(3,), (1, 2), (1, 1, 1)]
    for q in (Partition([2, 1, 1]), Partition()):
        assert copy.deepcopy(q) == copy.copy(q) == pickle.loads(pickle.dumps(q)) == q


def test_distinct_permutations_of_multiset():
    assert list(distinct_permutations((1, 1, 2))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(distinct_permutations(())) == [()]


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
def test_distinct_permutations_count(values):
    out = list(distinct_permutations(tuple(values)))
    assert len(out) == len(set(out))
    from math import factorial, prod

    counts = {v: values.count(v) for v in set(values)}
    expected = factorial(len(values)) // prod(factorial(c) for c in counts.values())
    assert len(out) == expected
    assert out == sorted(set(permutations(values)))


def test_distinct_permutations_of_a_long_vector():
    # one rearrangement per position of the single 1; the walk must not
    # go one stack frame deeper per position
    poly = monomial_symmetric(Partition([1]), 1100)
    assert len(poly.coeffs) == 1100
    assert all(sum(e) == 1 for e in poly.coeffs)


def test_remove_part_takes_distinct_value_index():
    lam = Partition([1, 1, 2, 5])
    assert remove_part(lam, 1) == Partition([1, 2, 5])
    assert remove_part(lam, 2) == Partition([1, 1, 5])
    assert remove_part(lam, 3) == Partition([1, 1, 2])
    with pytest.raises(IndexError):
        remove_part(lam, 4)
    with pytest.raises(IndexError):
        remove_part(lam, 0)


def test_er_reduction_examples():
    # drop the i-th smallest part, decrement the smaller ones, forget zeros
    mu = Partition([1, 2, 2])
    assert er_reduction(mu, 1) == Partition([2, 2])
    assert er_reduction(mu, 2) == Partition([2])
    assert er_reduction(mu, 3) == Partition([1])
    with pytest.raises(IndexError):
        er_reduction(mu, 4)


@given(partitions, st.integers(min_value=1, max_value=6))
def test_er_reduction_weight_drop(mu, i):
    if i > mu.length:
        return
    reduced = er_reduction(mu, i)
    assert reduced.weight == mu.weight - (mu.parts[i - 1] + i - 1)


def _is_vertical_strip(inner, outer, r):
    n = max(inner.length, outer.length)
    a, b = inner.padded(n), outer.padded(n)
    diffs = [y - x for x, y in zip(a, b)]
    return all(d in (0, 1) for d in diffs) and sum(diffs) == r


def test_vertical_strip_predecessors_example():
    # removing two boxes from (1,2,2), at most one per row
    got = {p.parts for p in vertical_strip_predecessors(Partition([1, 2, 2]), 2)}
    assert got == {(1, 2), (1, 1, 1)}


def test_vertical_strips_match_filter_definition():
    for m in range(0, 9):
        for mu in enumerate_partitions(m):
            for r in range(0, m + 1):
                got = {p.parts for p in vertical_strip_predecessors(mu, r)}
                want = {
                    nu.parts
                    for nu in enumerate_partitions(m - r)
                    if _is_vertical_strip(nu, mu, r)
                }
                assert got == want, (mu, r)


def test_vertical_strip_successors_match_filter_definition():
    for m in range(0, 7):
        for lam in enumerate_partitions(m):
            for r in range(0, 4):
                got = {p.parts for p in vertical_strip_successors(lam, r)}
                want = {
                    nu.parts
                    for nu in enumerate_partitions(m + r)
                    if _is_vertical_strip(lam, nu, r)
                }
                assert got == want, (lam, r)


def test_strip_size_zero_is_identity():
    mu = Partition([1, 2, 2])
    assert vertical_strip_predecessors(mu, 0) == [mu]
    assert vertical_strip_successors(mu, 0) == [mu]
    with pytest.raises(ValueError):
        vertical_strip_predecessors(mu, -1)


def test_last_nonzero_compare_is_a_total_order():
    parts = enumerate_partitions(6)
    for a in parts:
        for b in parts:
            c = last_nonzero_compare(a, b)
            assert c == -last_nonzero_compare(b, a)
            assert (c == 0) == (a == b)
    ordered = sorted(parts, key=cmp_to_key(last_nonzero_compare))
    # transitivity spot check: sorting then pairwise comparing stays consistent
    for x, y in zip(ordered, ordered[1:]):
        assert last_nonzero_compare(x, y) <= 0


def test_last_nonzero_compare_examples():
    assert last_nonzero_compare(Partition([1, 1, 2]), Partition([1, 3])) == -1
    assert last_nonzero_compare(Partition([4]), Partition([1, 3])) == 1
    with pytest.raises(WeightMismatchError):
        last_nonzero_compare(Partition([1]), Partition([2]))


@given(partitions, partitions)
def test_compare_antisymmetry(a, b):
    if a.weight != b.weight:
        return
    assert last_nonzero_compare(a, b) == -last_nonzero_compare(b, a)


def test_sort_key_orders_canonically():
    parts = enumerate_partitions(7)
    assert parts == sorted(parts, key=lambda p: p.sort_key)


# The three strip tables as they were while each was a recursive closure,
# kept verbatim (bar their names and decorators) as a
# reference.


def _reference_strip_predecessors_raw(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    # Aligned by padded position, a removable vertical strip decrements a
    # sub-multiset of parts by one each, no part twice; enumerating one
    # decrement count per block of equal parts hits each result exactly once.
    blocks = [(v, len(list(g))) for v, g in groupby(parts)]
    found: set[tuple[int, ...]] = set()

    def rec(idx: int, left: int, acc: tuple[int, ...]) -> None:
        if idx == len(blocks):
            if left == 0:
                found.add(tuple(sorted(acc)))
            return
        value, mult = blocks[idx]
        for k in range(min(mult, left) + 1):
            ext = (value,) * (mult - k)
            if value > 1:
                ext += (value - 1,) * k
            rec(idx + 1, left - k, acc + ext)

    rec(0, r, ())
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def _reference_strip_successors_raw(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    blocks = [(v, len(list(g))) for v, g in groupby(parts)]
    found: set[tuple[int, ...]] = set()

    def rec(idx: int, left: int, acc: tuple[int, ...]) -> None:
        if idx == len(blocks):
            # anything not yet used becomes a new part equal to 1
            found.add(tuple(sorted(acc + (1,) * left)))
            return
        value, mult = blocks[idx]
        for k in range(min(mult, left) + 1):
            rec(idx + 1, left - k, acc + (value,) * (mult - k) + (value + 1,) * k)

    rec(0, r, ())
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def _reference_hstrip_predecessors(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(predecessor, removed) pairs where shape minus predecessor is a
    horizontal strip."""
    if not shape:
        return (((), 0),)
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, acc: tuple[int, ...], removed: int) -> None:
        if i == len(shape):
            trimmed = acc
            while trimmed and trimmed[0] == 0:
                trimmed = trimmed[1:]
            out.append((trimmed, removed))
            return
        lo = shape[i - 1] if i > 0 else 0
        for v in range(lo, shape[i] + 1):
            rec(i + 1, acc + (v,), removed + shape[i] - v)

    rec(0, (), 0)
    return tuple(out)


def test_strip_tables_match_the_backtracking_reference_in_order():
    # through __wrapped__, so every table is built here rather than read
    # from a memo that other tests filled
    pred = _strip_predecessors_raw.__wrapped__
    succ = _strip_successors_raw.__wrapped__
    hstrip = _hstrip_predecessors.__wrapped__
    for m in range(15):
        for p in enumerate_partitions(m):
            parts = p.parts
            # one size past the weight, so the empty partition meets a
            # strip it cannot give up
            for r in range(m + 2):
                assert pred(parts, r) == _reference_strip_predecessors_raw(parts, r), (parts, r)
                assert succ(parts, r) == _reference_strip_successors_raw(parts, r), (parts, r)
            assert hstrip(parts) == _reference_hstrip_predecessors(parts), parts


def test_strip_tables_stay_output_sensitive_on_many_distinct_parts():
    # 40 distinct parts give 2^40 block choices but only 40 one-box strips
    # to remove; a table that walked every choice would not finish here
    parts = tuple(range(1, 41))
    pred = _strip_predecessors_raw.__wrapped__(parts, 1)
    assert len(pred) == 40
    assert pred == _reference_strip_predecessors_raw(parts, 1)
    succ = _strip_successors_raw.__wrapped__(parts, 2)
    assert succ == _reference_strip_successors_raw(parts, 2)
    lam = Partition(list(range(1, 15)) + [15, 15, 18])
    assert inv_kostka_duan(lam, Partition(range(1, 18))) == -1
