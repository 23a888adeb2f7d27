"""Seeded inputs for the benchmark workloads.

Plain Python with no import of invkostka, so that making the inputs never
warms a memo of the program under test.  The same (workload, seed, tiny)
always gives the same inputs.  The seed changes only what leaves the
amount of work of each kind about the same (orders and verify's format),
so that runs with different seeds stay comparable.
"""

from __future__ import annotations

import random
from functools import lru_cache

FORMATS = ("plain", "json", "csv")

MATRIX_WEIGHTS = {False: (15, 16, 17, 18, 19, 20), True: (6, 7, 8)}
VERIFY_WEIGHT = {False: 11, True: 5}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# uniform random partitions


@lru_cache(maxsize=None)
def _count(n: int, k: int) -> int:
    """Number of partitions of n with every part at most k."""
    if n == 0:
        return 1
    return sum(_count(n - j, j) for j in range(1, min(n, k) + 1))


def partitions_of(n: int) -> list[list[int]]:
    """All partitions of n, parts non-decreasing."""
    out: list[list[int]] = []

    def rec(left: int, cap: int, acc: list[int]) -> None:
        if left == 0:
            out.append(sorted(acc))
            return
        for j in range(min(left, cap), 0, -1):
            rec(left - j, j, acc + [j])

    rec(n, n, [])
    return out


def random_partition(rng: random.Random, n: int, max_len: int | None = None) -> list[int]:
    """A partition of n drawn uniformly, optionally with at most max_len parts
    (drawn as the conjugate of one with parts at most max_len)."""
    k = n if max_len is None else max_len
    parts: list[int] = []
    while n:
        r = rng.randrange(_count(n, k))
        for j in range(min(n, k), 0, -1):
            c = _count(n - j, j)
            if r < c:
                break
            r -= c
        parts.append(j)
        n -= j
        k = j
    if max_len is not None and parts:
        parts = [sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)]
    return sorted(parts)


def _pair(rng: random.Random, w: int, max_len: int | None = None) -> tuple[list[int], list[int]]:
    lam = random_partition(rng, w, max_len)
    mu = random_partition(rng, w, max_len)
    # a longer lambda is a structural zero; keep the pair worth computing
    return (mu, lam) if len(lam) > len(mu) else (lam, mu)


# ---------------------------------------------------------------------------
# CLI workloads: one pass is a list of argument vectors


def matrix_cold(seed: int, tiny: bool) -> list[list[str]]:
    """One fresh `matrix --inverse` process per weight, in seeded order.  The
    formats cycle over the weights from json at the heaviest (the largest
    output and the peak-memory case) and do not depend on the seed: the
    renderers' costs differ by about a tenth at these weights."""
    weights = MATRIX_WEIGHTS[tiny]
    calls = [
        ["matrix", "--weight", str(w), "--inverse", "--format",
         FORMATS[(weights[-1] - w + 1) % len(FORMATS)]]
        for w in weights
    ]
    _rng("matrix-cold", seed).shuffle(calls)
    return calls


def verify_sweep(seed: int, tiny: bool) -> list[list[str]]:
    fmt = _rng("verify-sweep", seed).choice(FORMATS)
    return [["verify", "--max-weight", str(VERIFY_WEIGHT[tiny]), "--format", fmt]]


# ---------------------------------------------------------------------------
# library workloads: one pass is a list of calls [kind, *args]

# kind -> (fresh calls in a full-size pass, weights cycled through).
# No record of real use exists, so the counts and the repeat share are
# assumptions: the entry engines take half the calls, duan (the engine the
# CLI uses) the most; every other public kind gets a few hundred.
_QUERY_MIX = {
    "duan": (1800, range(8, 27)),
    "er": (900, range(8, 27)),
    "brute": (450, range(8, 27)),
    "row": (300, range(8, 17)),
    "chains_S": (300, range(4, 9)),
    "chains_T": (300, range(4, 9)),
    "fpoly": (300, range(6, 11)),
    "steenrod_P": (300, range(4, 17)),
    "steenrod_Sq": (300, range(2, 17)),
    "gpoly": (150, range(0, 31)),
}
_QUERY_MIX_REPEATS = 900  # 15% of the stream, an assumed share
_BRUTE_MAX_N = 7  # brute force and f polynomials stay at most 7 variables


def _steenrod_P_args(rng: random.Random, w: int) -> list[int]:
    # P^k(c_m) mod p is the row of (1^(m-k), p^k), of weight m - k + p k
    options = [
        [k, m, p]
        for p in (3, 5, 7)
        for k in range(0, w // p + 1)
        for m in [w - (p - 1) * k]
        if k <= m
    ]
    return rng.choice(options)


def _call(rng: random.Random, kind: str, w: int) -> list:
    if kind in ("duan", "er", "chains_S", "chains_T"):
        return [kind, *_pair(rng, w)]
    if kind == "brute":
        return [kind, *_pair(rng, w, _BRUTE_MAX_N)]
    if kind == "fpoly":
        return [kind, *_pair(rng, w, _BRUTE_MAX_N - 1)]
    if kind == "row":
        return [kind, random_partition(rng, w)]
    if kind == "steenrod_P":
        return [kind, *_steenrod_P_args(rng, w)]
    if kind == "steenrod_Sq":
        # Sq^k(w_m) is the row of (1^(m-k), 2^k), of weight m + k
        k = rng.randrange(0, w // 2 + 1)
        return [kind, k, w - k]
    if kind == "gpoly":
        # g(k, l) covers the row of (1^k, 3^l), of weight k + 3 l
        l = rng.randrange(0, w // 3 + 1)
        return [kind, w - 3 * l, l]
    raise ValueError(kind)


def query_mix(seed: int, tiny: bool) -> list[list]:
    """A stream of public library calls for one long-lived process.  Each
    kind has a fixed count, cycled over its weights, and a fixed set of
    calls appears twice.  The calls are one draw that does not depend on
    the seed: a call's cost depends heavily on its partitions, and drawing
    them per seed moved the time of a pass by about a seventh from seed to
    seed, as much as the machine's own drift.  The seed sets the order of
    the stream, and with it where each repeat falls and which call of the
    stream pays for a memo entry first."""
    draw = _rng("query-mix", 0)
    scale = 60 if tiny else 1
    fresh = [
        _call(draw, kind, weights[i % len(weights)])
        for kind, (count, weights) in _QUERY_MIX.items()
        for i in range(max(1, count // scale))
    ]
    stream = fresh + draw.sample(fresh, _QUERY_MIX_REPEATS // scale)
    _rng("query-mix", seed).shuffle(stream)
    return stream


def poly_kernels(seed: int, tiny: bool) -> list[list]:
    """Identity checks on the polynomial half of the package: Pieri against
    polynomial multiplication, h by recurrence against h by transfer matrix,
    g against its closed form, and the golden h table."""
    calls: list[list] = [
        ["pieri", lam, r, m + r]
        for m in range(1, 3 if tiny else 6)
        for lam in partitions_of(m)
        for r in (1, 2, 3)
    ]
    # fixed b: the transfer-matrix cost moves by up to a fifth between b and
    # b + 1, so seeded b would move the pass time with the seed
    calls += [["h_matrix", b] for b in ((20, 25) if tiny else (800, 901, 1000, 1101))]
    # one fixed draw of g arguments, for the same reason: seeded ones moved
    # the median call time by about a tenth from seed to seed
    draw = _rng("poly-kernels", 0)
    for _ in range(3 if tiny else 20):
        k = draw.randrange(10, 41)
        calls.append(["g_closed", k, draw.randrange(0, min(k, 20) + 1)])
    calls += [["golden_h", b] for b in range(25, 31)]
    _rng("poly-kernels", seed).shuffle(calls)
    return calls


CLI_WORKLOADS = {"matrix-cold": matrix_cold, "verify-sweep": verify_sweep}
LIB_WORKLOADS = {"query-mix": query_mix, "poly-kernels": poly_kernels}
