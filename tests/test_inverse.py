"""The three entry engines, chain enumerations, and matrix builders."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import invkostka.inverse as inverse
import invkostka.symfunc as symfunc
from invkostka import clear_caches
from invkostka.inverse import (
    ChainS,
    ChainT,
    LabeledMatrix,
    cancellation_zero,
    enumerate_chains_S,
    enumerate_chains_T,
    f_polynomial,
    inv_kostka_bruteforce,
    inv_kostka_duan,
    inv_kostka_er,
    inverse_kostka_matrix,
    kostka_matrix,
    monomial_to_schur,
    solution_pairs,
    tail_reduction,
    verify_corollary1,
)
from invkostka.partitions import (
    Partition,
    WeightMismatchError,
    _er_reduce,
    _last_nonzero_cmp,
    _strip_predecessors,
    _strip_predecessors_raw,
    check_same_weight,
    distinct_permutations,
    enumerate_partitions,
    vertical_strip_predecessors,
)
from invkostka.steenrod import steenrod_P, steenrod_Sq
from invkostka.symfunc import SchurExpansion
from invkostka.unipoly import UniPolynomial
from invkostka.verify import exact_integer_inverse

P = Partition


def test_known_entries():
    assert inv_kostka_duan(P([1, 2]), P([1, 1, 1])) == -2
    assert inv_kostka_er(P([4]), P([2, 2])) == 0
    assert inv_kostka_er(P([1, 4]), P([1, 2, 2])) == 1
    assert inv_kostka_bruteforce(P([1, 2]), P([1, 1, 1])) == -2
    assert inv_kostka_duan(P(), P()) == 1


def test_weight_mismatch_raises():
    for fn in (inv_kostka_duan, inv_kostka_er, inv_kostka_bruteforce):
        with pytest.raises(WeightMismatchError):
            fn(P([2]), P([1, 1, 1]))


def test_diagonal_is_one():
    for m in range(0, 7):
        for lam in enumerate_partitions(m):
            assert inv_kostka_duan(lam, lam) == 1


def test_structural_zeros():
    # longer row partition, or row below column in the last-nonzero order
    assert cancellation_zero(P([1, 1, 1]), P([1, 2]))
    assert cancellation_zero(P([1, 2]), P([3]))
    assert not cancellation_zero(P([3]), P([1, 2]))
    for m in range(0, 8):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                if cancellation_zero(lam, mu):
                    assert inv_kostka_duan(lam, mu) == 0


def test_tail_reduction_strips_common_top_parts():
    lam, mu = tail_reduction(P([1, 2, 4, 4]), P([1, 1, 1, 4, 4]))
    assert (lam, mu) == (P([1, 2]), P([1, 1, 1]))
    # not a common tail: largest parts differ
    lam, mu = tail_reduction(P([1, 4]), P([2, 3]))
    assert (lam, mu) == (P([1, 4]), P([2, 3]))


def test_tail_reduction_preserves_entries():
    for m in range(0, 8):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                rl, rm = tail_reduction(lam, mu)
                assert inv_kostka_duan(rl, rm) == inv_kostka_duan(lam, mu)


@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=10),
    st.randoms(use_true_random=False),
)
def test_engines_agree_random_pairs(parts, rnd):
    # lam merges the parts of mu at random, so every example has one weight
    # and lam is often high enough in dominance for a nonzero entry
    mu = P(parts)
    rnd.shuffle(parts)
    merged = []
    for p in parts:
        if merged and rnd.random() < 0.5:
            merged[-1] += p
        else:
            merged.append(p)
    lam = P(merged)
    assert inv_kostka_duan(lam, mu) == inv_kostka_er(lam, mu)


def test_bruteforce_variable_count():
    lam, mu = P([1, 2]), P([1, 1, 1])
    for n in range(3, 7):
        assert inv_kostka_bruteforce(lam, mu, n) == -2
    with pytest.raises(ValueError):
        inv_kostka_bruteforce(lam, mu, 2)


def test_solution_pairs_structure():
    pairs = solution_pairs(P([1, 2]), P([1, 1, 1]))
    assert len(pairs) == 2
    for sp in pairs:
        assert sorted(sp.w) == [0, 1, 2]
        assert sorted(sp.sigma) == [1, 2, 3]
        assert sp.sign == (-1) ** sp.length
        # w + permuted staircase = column partition + staircase, entrywise
        target = tuple(m + d for m, d in zip(P([1, 1, 1]).padded(3), range(3)))
        assert tuple(w + s - 1 for w, s in zip(sp.w, sp.sigma)) == target
    assert sum(sp.sign for sp in pairs) == -2


@lru_cache(maxsize=None)
def _rearrangements(padded):
    """The filter's candidates depend only on (lambda, n): build them once."""
    return tuple(distinct_permutations(padded))


def _reference_solutions(lam, mu, n):
    """Filter every distinct rearrangement w of the padded lambda, keeping it
    when target - w is a rearrangement of the staircase 0..n-1."""
    target = [m + d for d, m in enumerate(mu.padded(n))]
    out = []
    for w in _rearrangements(lam.padded(n)):
        diff = [t - x for t, x in zip(target, w)]
        if sorted(diff) == list(range(n)):
            length = sum(a > b for i, a in enumerate(diff) for b in diff[i + 1 :])
            out.append((w, tuple(d + 1 for d in diff), (-1) ** length, length))
    return out


def test_solution_pairs_match_a_permutation_filter_in_order():
    for m in range(0, 9):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                for n in range(max(1, lam.length, mu.length), m + 2):
                    got = [(p.w, p.sigma, p.sign, p.length) for p in solution_pairs(lam, mu, n)]
                    assert got == _reference_solutions(lam, mu, n), (lam, mu, n)


def test_bruteforce_fourteen_variables():
    assert inv_kostka_bruteforce(P(range(1, 8)), P([1] * 7 + [3] * 7)) == 48


def test_f_polynomial_examples():
    f = f_polynomial(P([1, 2]), P([1, 1, 1]))
    assert f == UniPolynomial([0, -2])
    assert f(1) == -2
    assert f(-1) == 2
    assert f_polynomial(P(), P()) == UniPolynomial([1])
    assert f_polynomial(P([2]), P([1, 1])) == UniPolynomial([0, -1])


def test_chains_for_known_pair():
    lam, mu = P([1, 2]), P([1, 1, 1])
    s_chains = enumerate_chains_S(lam, mu)
    t_chains = enumerate_chains_T(lam, mu)
    assert len(s_chains) == len(t_chains) == 2
    assert all(c.sign == -1 for c in s_chains)
    assert sum(c.sign for c in s_chains) == -2
    assert sum(c.sign for c in t_chains) == -2
    for c in s_chains:
        assert sorted(c.b_values) == [1, 2]
        assert len(c.steps) == lam.length
    for c in t_chains:
        assert sorted(c.a_values) == [1, 2]


def test_chains_empty_pair():
    (only,) = enumerate_chains_S(P(), P())
    assert only.steps == () and only.b_values == () and only.sign == 1
    (only_t,) = enumerate_chains_T(P(), P())
    assert only_t.steps == () and only_t.a_values == () and only_t.sign == 1


def test_chain_values_rearrange_row_parts():
    for m in range(0, 6):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                for c in enumerate_chains_S(lam, mu):
                    assert sorted(c.b_values) == list(lam.parts)
                for c in enumerate_chains_T(lam, mu):
                    assert sorted(c.a_values) == list(lam.parts)


# The chain enumerators as they were before they unrolled the engines' own
# move generators, kept verbatim (bar their names) as a reference.


def _reference_chains(lam: Partition, mu: Partition, moves, successors) -> list:
    """Backtrack from mu down to the empty partition, spending each part of
    lam as the value of exactly one step.  ``moves(parts)`` lists the
    (value, j) steps out of a partition and ``successors(parts, j)`` where
    step j leads.  Returns (steps, values, sum of j) for every chain, with
    its steps listed from the empty end, in depth-first order."""
    check_same_weight(lam, mu)
    k = lam.length
    remaining = dict(lam.multiplicities())
    acc: list[tuple[Partition, int, int]] = []
    found: list = []

    def rec(current: Partition) -> None:
        if len(acc) == k:
            if not current.parts:
                steps = acc[::-1]
                found.append((
                    tuple((p, j) for p, j, _ in steps),
                    tuple(v for _, _, v in steps),
                    sum(j for _, j, _ in steps),
                ))
            return
        for value, j in moves(current.parts):
            if not remaining.get(value):
                continue
            remaining[value] -= 1
            acc.append((current, j, value))
            for nxt in successors(current.parts, j):
                rec(Partition._from_sorted(nxt))
            acc.pop()
            remaining[value] += 1

    rec(mu)
    return found


def _reference_chains_S(lam: Partition, mu: Partition) -> list[ChainS]:
    values = tuple(dict.fromkeys(lam.parts))  # distinct, ascending

    def moves(ps):  # ascending b means ascending strip size
        top = ps[-1] if ps else 0
        return [(b, b - top) for b in values if b >= top]

    return [
        ChainS(steps, bs, 1 - 2 * (jsum % 2))
        for steps, bs, jsum in _reference_chains(
            lam, mu, moves, lambda ps, j: _strip_predecessors_raw(ps[:-1], j)
        )
    ]


def _reference_chains_T(lam: Partition, mu: Partition) -> list[ChainT]:
    k = lam.length
    return [
        ChainT(steps, avals, 1 - 2 * ((jsum - k) % 2))
        for steps, avals, jsum in _reference_chains(
            lam,
            mu,
            lambda ps: [(p + j - 1, j) for j, p in enumerate(ps, 1)],
            lambda ps, j: (_er_reduce(ps, j),),
        )
    ]


def test_chains_match_the_backtracking_reference_in_order():
    for m in range(0, 9):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                assert enumerate_chains_S(lam, mu) == _reference_chains_S(lam, mu), (lam, mu)
                assert enumerate_chains_T(lam, mu) == _reference_chains_T(lam, mu), (lam, mu)


def test_monomial_to_schur_row():
    row = monomial_to_schur(P([1, 2]))
    assert row == SchurExpansion({P([1, 2]): 1, P([1, 1, 1]): -2})
    assert monomial_to_schur(P()) == SchurExpansion({P(): 1})


def test_matrix_weight_two():
    inv = inverse_kostka_matrix(2)
    assert inv.labels == (P([2]), P([1, 1]))
    assert inv.entries == ((1, -1), (0, 1))
    k = kostka_matrix(2)
    assert k.entries == ((1, 1), (0, 1))
    assert k.entry(P([2]), P([1, 1])) == 1


def test_matmul_matches_a_dense_product():
    # the product skips zero entries; compare it with the plain row-by-column
    # sum on the two triangular matrices, on a full one, and on random ones
    # that are not triangular, with many zeros and mixed signs
    def dense(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    rng = random.Random(23)
    for m in range(0, 8):
        labels = tuple(enumerate_partitions(m))
        n = len(labels)
        mixed = [
            LabeledMatrix(
                labels,
                tuple(tuple(rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in labels) for _ in labels),
            )
            for _ in range(2)
        ]
        full = LabeledMatrix(labels, tuple(tuple(i - j or 7 for j in range(n)) for i in range(n)))
        for a in (kostka_matrix(m), inverse_kostka_matrix(m), full, *mixed):
            for b in (kostka_matrix(m), inverse_kostka_matrix(m), full, *mixed):
                product = a.matmul(b)
                assert product.labels == labels
                assert product.entries == dense(a.entries, b.entries), m
    k = kostka_matrix(4)
    for other in (kostka_matrix(3), LabeledMatrix(k.labels[::-1], k.entries)):
        with pytest.raises(ValueError, match="label mismatch"):
            k.matmul(other)


def test_matrix_rows_match_independent_routes():
    # the whole-weight builders skip the public entry point; check them
    # against the oracle and the er engine.  The row builder reads the same
    # rows, so its check pins only the labels and the zeros it drops
    for m in range(0, 13):
        inv = inverse_kostka_matrix(m)
        assert inv.entries == exact_integer_inverse(kostka_matrix(m).entries)
        for lam, row in zip(inv.labels, inv.entries):
            assert row == tuple(inv_kostka_er(lam, mu) for mu in inv.labels)
            nonzero = {mu: v for mu, v in zip(inv.labels, row) if v}
            assert monomial_to_schur(lam) == SchurExpansion(nonzero)


def test_repeated_rows_are_fresh_objects_over_one_memo():
    # each call returns its own expansion, so a caller that mutates one
    # leaves the memo and every later call intact
    clear_caches()
    calls = (
        lambda: monomial_to_schur(P([1, 2, 3])),
        lambda: steenrod_P(2, 4, 3),
        lambda: steenrod_Sq(2, 5),
    )
    for call in calls:
        first, second = call(), call()
        assert first == second and first is not second
        assert first.coeffs is not second.coeffs
        first.coeffs.clear()
        first.coeffs[P([1])] = 5
        assert call() == second
    info = inverse._schur_row.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 6)
    clear_caches()
    assert inverse._schur_row.cache_info().currsize == 0


def test_matrix_builders_leave_the_row_memo_empty():
    clear_caches()
    inverse_kostka_matrix(12)
    labels, rows = inverse._weight_rows(11, True)
    assert len(list(rows)) == len(labels)
    assert inverse._schur_row.cache_info().currsize == 0


def test_rows_of_a_weight_group_its_columns_once(monkeypatch):
    # every row of a weight and its matrix share one grouping of the
    # weight's ids
    calls = []
    group = inverse._column_groups

    def counted(ids):
        calls.append(len(ids))
        return group(ids)

    monkeypatch.setattr(inverse, "_column_groups", counted)
    clear_caches()
    for lam in enumerate_partitions(12):
        monomial_to_schur(lam)
    inverse_kostka_matrix(12)
    assert calls == [77]
    clear_caches()


def test_warm_rows_equal_the_er_rows():
    # the row memo is keyed by part tuples, so it outlives a rebuilt id table
    clear_caches()
    weights = range(0, 13)
    for m in weights:
        for lam in enumerate_partitions(m):
            monomial_to_schur(lam)
    filled = inverse._schur_row.cache_info().currsize
    inverse._intern.cache_clear()
    for m in weights:
        parts = enumerate_partitions(m)
        for lam in parts:
            want = {mu: v for mu in parts if (v := inv_kostka_er(lam, mu))}
            assert monomial_to_schur(lam) == SchurExpansion(want), lam
    info = inverse._schur_row.cache_info()
    rows = sum(len(enumerate_partitions(m)) for m in weights)
    assert info.currsize == filled == info.hits == rows
    assert inverse._duan_recurse.cache_info().currsize == 0


def _check_row(row, lam, ids, labels):
    # a grouped row against the entry of each pair and the er engine's row
    assert row == tuple(inverse._duan_entry(lam, mu) for mu in ids)
    want = P(inverse._decode(lam))
    assert row == tuple(inv_kostka_er(want, mu) for mu in labels), want


def test_grouped_rows_equal_the_per_pair_entries_and_the_er_rows():
    # the row memo's path groups its columns per call, here on a freshly
    # cleared id table each time; the matrix builders share one grouping
    for m in range(0, 13):
        labels = enumerate_partitions(m)
        for lam in labels:
            inverse._intern.cache_clear()
            ids = inverse._weight_columns(m)[0]
            a = inverse._intern(lam.parts)
            _check_row(inverse._inverse_row(a, inverse._column_groups(ids)), a, ids, labels)
        ids = inverse._weight_columns(m)[0]
        _, rows = inverse._weight_rows(m, True)
        for a, row in zip(ids, rows, strict=True):
            _check_row(row, a, ids, labels)
    rng = random.Random(28)
    picks = [rng.choice(enumerate_partitions(rng.randint(20, 26))) for _ in range(30)]
    for lam in picks + [P([1] * 30), P([30])]:
        labels = enumerate_partitions(lam.weight)
        ids = inverse._weight_columns(lam.weight)[0]
        a = inverse._intern(lam.parts)
        _check_row(inverse._inverse_row(a, inverse._column_groups(ids)), a, ids, labels)
    clear_caches()


def test_rows_visit_only_the_pairs_the_zero_gate_leaves_open(monkeypatch):
    # no pair of the row's own weight reaches the entry or a move: the rows
    # sum every open pair, lam's own largest part included, from the peels
    # and the strip table, and take the peels once per group that holds an
    # open pair
    m = 12
    clear_caches()
    walks = _count_strip_walks(monkeypatch)
    own = {"_duan_entry": [], "_duan_moves": [], "_peels": []}
    for name, pairs in own.items():
        def counted(lam, mu, call=getattr(inverse, name), pairs=pairs):
            if sum(inverse._decode(lam)) == m:
                pairs.append((lam, mu))
            return call(lam, mu)

        monkeypatch.setattr(inverse, name, counted)
    inverse_kostka_matrix(m)
    for lam in enumerate_partitions(m):
        monomial_to_schur(lam)
    ids = inverse._weight_columns(m)[0]
    top, length = inverse._top, inverse._length
    assert own["_duan_entry"] == own["_duan_moves"] == []
    peeled = {
        (a, top[b]) for a in ids for b in ids if top[b] <= top[a] and length[b] >= length[a]
    }
    assert sorted(own["_peels"]) == sorted(list(peeled) * 2)
    # the work below the rows is the same as when every pair was visited,
    # apart from one size-0 strip walk per rest of a mu in lam's own group
    assert len(walks) == 399
    assert inverse._duan_recurse.cache_info().currsize == 836
    assert len(inverse._top) == 272


def test_duan_memo_sees_only_reduced_nonzero_pairs(monkeypatch):
    # the values cannot tell: the recursion is right on unreduced pairs and
    # gives 0 below mu, so guard the gate that keeps such pairs out of the memo
    recurse = inverse._duan_recurse
    seen = []

    def checked(a, b):
        seen.append((a, b))
        lam, mu = inverse._decode(a), inverse._decode(b)
        assert lam and lam[-1] != mu[-1], (lam, mu)
        assert len(lam) <= len(mu) and _last_nonzero_cmp(lam, mu) > 0, (lam, mu)
        return recurse(a, b)

    monkeypatch.setattr(inverse, "_duan_recurse", checked)
    recurse.cache_clear()
    for m in range(0, 11):
        inverse_kostka_matrix(m)
        for lam in enumerate_partitions(m):
            monomial_to_schur(lam)
    assert seen and recurse.cache_info().currsize == len(set(seen))


def test_whole_weight_tables_memoize_only_lower_weights(monkeypatch):
    # an entry of weight m is read back only from weights above m, so the
    # builders for weight m, the matrices and every row, sum their own
    # entries and memoize none of them
    clear_caches()
    seen = {"duan": [], "kostka": []}  # weights of the pairs sent to each memo
    sites = {
        "duan": (inverse, "_duan_recurse", lambda lam, mu: sum(inverse._decode(lam))),
        "kostka": (symfunc, "_kostka_raw", lambda shape, content: sum(shape)),
    }
    for name, (module, attr, weight) in sites.items():
        def checked(a, b, memo=getattr(module, attr), weight=weight, into=seen[name]):
            into.append(weight(a, b))
            return memo(a, b)

        monkeypatch.setattr(module, attr, checked)
    for m in range(0, 13):
        for weights in seen.values():
            weights.clear()
        inverse_kostka_matrix(m)
        kostka_matrix(m)
        for lam in enumerate_partitions(m):
            monomial_to_schur(lam)
        assert all(w < m for weights in seen.values() for w in weights), m
    assert all(seen.values())
    monkeypatch.undo()
    clear_caches()
    inverse_kostka_matrix(12)
    kostka_matrix(12)
    for lam in enumerate_partitions(12):
        monomial_to_schur(lam)
    assert inverse._duan_recurse.cache_info().currsize == 836
    assert symfunc._kostka_raw.cache_info().currsize == 1208


def test_partition_ids_decode_to_their_parts():
    for m in range(0, 9):
        for lam in enumerate_partitions(m):
            i = inverse._intern(lam.parts)
            assert inverse._decode(i) == lam.parts
            assert inverse._length[i] == lam.length
            assert inverse._top[i] == (lam.parts[-1] if lam.parts else 0)
            assert inverse._rest[i] == inverse._intern(lam.parts[:-1])
        assert inverse._weight_columns(m)[0] == tuple(
            inverse._intern(lam.parts) for lam in enumerate_partitions(m)
        )


def test_interning_a_deep_tuple_needs_no_recursion():
    deep = (1,) * 5000
    try:
        i = inverse._intern(deep)
        assert inverse._decode(i) == deep and inverse._length[i] == 5000
    finally:
        clear_caches()


def test_clear_caches_leaves_only_the_empty_partition_id():
    before = inverse_kostka_matrix(10)
    assert len(inverse._top) > 1
    clear_caches()
    assert inverse._id_of == inverse._id_of_parts == inverse._preds == {}
    columns = (inverse._top, inverse._length, inverse._rest)
    assert all(len(column) == 1 for column in columns)
    assert inverse._decode(0) == () and inverse._intern(()) == 0
    memos = (inverse._duan_recurse, inverse._part_removals, inverse._weight_columns)
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    assert inverse_kostka_matrix(10) == before


def test_strip_engine_holds_no_tuple_copy_of_its_predecessors():
    # the engine keeps its strip predecessors as ids only; the tuple memo
    # fills for the public function alone
    clear_caches()
    inverse_kostka_matrix(12)
    assert inverse._preds  # id 0 can be a key, so any() would not do
    assert _strip_predecessors_raw.cache_info().currsize == 0
    # each stored size decodes to the kernel's table in its canonical
    # order, which the S chains follow
    for i, column in inverse._preds.items():
        for size, omegas in column.items():
            parts = inverse._decode(i)
            assert tuple(map(inverse._decode, omegas)) == _strip_predecessors(parts, size)
    vertical_strip_predecessors(P([1, 2, 2]), 2)
    assert _strip_predecessors_raw.cache_info().currsize == 1


def _count_strip_walks(monkeypatch) -> list:
    # the strip engine's walks are exactly its calls to the predecessor walk
    walks = []
    walk = inverse._strip_predecessors

    def counted(parts, r):
        walks.append((parts, r))
        return walk(parts, r)

    monkeypatch.setattr(inverse, "_strip_predecessors", counted)
    return walks


def test_a_strip_column_fills_in_one_walk_per_miss(monkeypatch):
    # every stored size no longer than its partition was walked once, alone,
    # and nothing else was walked; only the rests of some mu hold a column
    clear_caches()
    walks = _count_strip_walks(monkeypatch)
    inverse_kostka_matrix(12)
    walked = sorted((inverse._intern(parts), r) for parts, r in walks)
    filled = sorted(
        (i, size)
        for i, column in inverse._preds.items()
        for size in column
        if size <= inverse._length[i]
    )
    assert walked == filled and len(walked) == 399
    assert len(inverse._preds) == 77
    assert inverse._duan_recurse.cache_info().currsize == 836
    assert len(inverse._top) == 272


def test_strip_walks_keep_only_the_sizes_a_step_asks_for(monkeypatch):
    # a strip longer than the rest of mu walks nothing, and a walk keeps the
    # one size it was asked for: here 15 of the rest (1, ..., 15)
    clear_caches()
    walks = _count_strip_walks(monkeypatch)
    assert inv_kostka_duan(P([136]), P(range(1, 17))) == 0
    assert walks == []
    clear_caches()
    assert inv_kostka_duan(P([31, 105]), P(range(1, 17))) == 0
    assert len(walks) == 1 and len(inverse._top) == 20


def test_a_wide_gap_between_strip_sizes_interns_no_size_between(monkeypatch):
    # the step on the rest (1, ..., 15) asks for sizes 1 and 14 only;
    # keeping every size between them too would intern 74,406 ids
    clear_caches()
    walks = _count_strip_walks(monkeypatch)
    assert inv_kostka_duan(P([17, 30, 89]), P(range(1, 17))) == 0
    assert len(inverse._top) == 10208
    assert len(walks) == 17


def test_clearing_the_id_table_clears_the_duan_memo():
    lam, mu = P([1, 2, 3]), P([1, 1, 1, 1, 2])
    value = inv_kostka_duan(lam, mu)
    assert inverse._duan_recurse.cache_info().currsize
    inverse._intern.cache_clear()
    assert inverse._duan_recurse.cache_info().currsize == 0
    # the other way round stays safe: the ids outlive the memo over them
    inv_kostka_duan(lam, mu)
    inverse._duan_recurse.cache_clear()
    assert inv_kostka_duan(lam, mu) == value == inv_kostka_er(lam, mu)


def test_one_step_expansion_identity_examples():
    res = verify_corollary1(P([2, 3]), P([1, 1, 1, 2]))
    assert res.equal and res.lhs == 2

    res = verify_corollary1(P([1, 2, 2]), P([1, 1, 1, 2]))
    assert res.equal and res.lhs == -2


def test_one_step_expansion_of_the_empty_pair():
    res = verify_corollary1(P(), P())
    assert (res.lhs, res.rhs, res.equal) == (0, 0, True)


def test_one_step_expansion_identity_sweep():
    for m in range(1, 7):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                res = verify_corollary1(lam, mu)
                assert res.equal, (lam, mu)
                assert res.lhs == res.rhs == inv_kostka_duan(lam, mu), (lam, mu)


