"""Exact counting and listing of sum-free m-subsets of {1, ..., n}.

Two independent routes are provided.  count_oracle iterates all subsets of
the universe (vectorized over bitmasks, |universe| <= 24) and filters; it
is the ground truth the optimized search is checked against.  The search
count_sum_free picks elements in DESCENDING order while maintaining a
forbidden bitmap: after choosing x, any smaller y with x + y already
chosen, or with 2y = x under the default convention, is dead.  Every node
of that tree is itself a sum-free set and every sum-free set occurs as
exactly one node, so a full profile by size costs one tree node per
sum-free set.

Counts are tallied by size, and optionally stratified by the low-part
statistics (ell, k, all-odd flag), maintained incrementally during the
descent.  Subtrees below a fixed-depth frontier are independent, so the
search parallelizes by handing frontier states to worker processes; the
merge is plain integer addition, so totals are identical under any
scheduling, worker count included.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterator, Optional

from .core import ALLOW_EQUAL_DEFAULT
from .errors import BudgetError
from .intset import IntSet, coerce_bits

DEFAULT_NODE_BUDGET = 2 * 10**8
DEFAULT_STREAM_BUDGET = 10**6
ORACLE_MAX_UNIVERSE = 24

#: strata key: (size, ell, twice_k, odd_flag) with twice_k = sum of (n - 2a)
StrataKey = tuple[int, int, int, bool]


@dataclass
class CountResult:
    """Exact counting result.

    total    -- number of matching sum-free sets
    by_size  -- size -> count (single entry when a size was requested)
    strata   -- (size, ell, 2k, odd) -> count, or None when not requested
    method   -- "oracle" or "backtracking"
    elapsed  -- wall seconds
    nodes    -- work units (tree nodes or subsets inspected)
    """

    total: int
    by_size: dict[int, int]
    strata: Optional[dict[StrataKey, int]]
    method: str
    elapsed: float
    nodes: int = 0


def _universe_bits(n: int, universe) -> int:
    if universe is None:
        return ((1 << (n + 1)) - 1) ^ 1
    bits = coerce_bits(universe)
    if bits.bit_length() - 1 > n:
        raise ValueError("universe not contained in {1, ..., n}")
    return bits


# ----------------------------------------------------------------------
# Brute-force oracle over all subsets


def count_oracle(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    stratify: bool = False,
) -> CountResult:
    """Count by inspecting every subset of the universe (exact ground truth).

    The universe may hold at most 24 elements.  All 2^u bitmasks are
    classified with vectorized bit tests, one pass per additive relation
    among universe elements.
    """
    import numpy as np  # only the oracle needs numpy; keeps it out of start-up

    t0 = time.perf_counter()
    ubits = _universe_bits(n, universe)
    elements = [v for v in range(1, n + 1) if (ubits >> v) & 1]
    u = len(elements)
    if u > ORACLE_MAX_UNIVERSE:
        raise BudgetError(
            f"universe too large for the subset oracle ({u} > {ORACLE_MAX_UNIVERSE})",
            estimate=2**u,
        )
    index = {v: i for i, v in enumerate(elements)}
    masks = np.arange(1 << u, dtype=np.uint32)
    viol = np.zeros(1 << u, dtype=bool)
    for i in range(u):
        for j in range(i, u):
            if i == j and not allow_equal:
                continue
            z = elements[i] + elements[j]
            kdx = index.get(z)
            if kdx is None:
                continue
            hit = (masks >> i) & (masks >> j) & (masks >> kdx) & 1
            viol |= hit.astype(bool)
    sizes = np.bitwise_count(masks).astype(np.int64)
    keep = ~viol
    if m is not None:
        keep &= sizes == m
    by_size_arr = np.bincount(sizes[keep], minlength=u + 1)
    by_size = {s: int(c) for s, c in enumerate(by_size_arr) if c}
    strata = None
    if stratify:
        low = [i for i, v in enumerate(elements) if 2 * v <= n]
        ell = np.zeros(1 << u, dtype=np.int64)
        twk = np.zeros(1 << u, dtype=np.int64)
        for i in low:
            bit = ((masks >> i) & 1).astype(np.int64)
            ell += bit
            twk += bit * (n - 2 * elements[i])
        oddf = np.ones(1 << u, dtype=bool)
        for i, v in enumerate(elements):
            if v % 2 == 0:
                oddf &= ((masks >> i) & 1) == 0
        # pack (size, ell, 2k, odd) into int64: 2k gets 40 bits, sizes fit in 6
        if int(twk.max(initial=0)) >= 1 << 40:
            raise ValueError("universe deficiencies too large for strata packing")
        key = (((sizes << 6) | ell) << 41) | (twk << 1) | oddf
        uniq, counts = np.unique(key[keep], return_counts=True)
        strata = {}
        for kv, c in zip(uniq.tolist(), counts.tolist()):
            odd = bool(kv & 1)
            twk_v = (kv >> 1) & ((1 << 40) - 1)
            ell_v = (kv >> 41) & ((1 << 6) - 1)
            size_v = kv >> 47
            strata[(size_v, ell_v, twk_v, odd)] = c
    total = sum(by_size.values())
    return CountResult(
        total=total,
        by_size=by_size,
        strata=strata,
        method="oracle",
        elapsed=time.perf_counter() - t0,
        nodes=1 << u,
    )


# ----------------------------------------------------------------------
# Descending backtracking search

_State = tuple[int, int, int, int, int, bool]  # allowed, chosen, size, ell, twice_k, odd


def _children(state: _State, n: int, allow_equal: bool, m: Optional[int]) -> list[_State]:
    allowed, chosen, size, ell, twk, odd = state
    out = []
    if m is not None and size >= m:
        return out
    bits = allowed
    while bits:
        x = bits.bit_length() - 1
        xbit = 1 << x
        bits ^= xbit
        new_chosen = chosen | xbit
        new_allowed = allowed & (xbit - 1) & ~(new_chosen >> x)
        if allow_equal and not x & 1:
            new_allowed &= ~(1 << (x >> 1))
        new_size = size + 1
        if m is not None and new_allowed.bit_count() < m - new_size:
            continue
        if 2 * x <= n:
            child = (new_allowed, new_chosen, new_size, ell + 1, twk + n - 2 * x, odd and bool(x & 1))
        else:
            child = (new_allowed, new_chosen, new_size, ell, twk, odd and bool(x & 1))
        out.append(child)
    return out


def _walk(
    states: list[_State],
    n: int,
    allow_equal: bool,
    m: Optional[int],
    stratify: bool,
    node_budget: int,
    spent: int = 0,
) -> tuple[Counter, Optional[Counter], int]:
    """Tally all descendants of the given states, states themselves included.

    `spent` nodes walked elsewhere count against node_budget; the returned
    node count covers this walk only.
    """
    by_size: Counter = Counter()
    strata: Optional[Counter] = Counter() if stratify else None
    nodes = spent
    stack = list(states)
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetError(
                f"search node budget exceeded ({node_budget})",
                estimate=node_budget,
                partial=(dict(by_size), dict(strata) if stratify else None, nodes),
            )
        size = state[2]
        if m is None or size == m:
            by_size[size] += 1
            if stratify:
                strata[(size, state[3], state[4], state[5])] += 1
        stack.extend(_children(state, n, allow_equal, m))
    return by_size, strata, nodes - spent


def _walk_task(args):
    return _walk(*args)


def count_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    stratify: bool = False,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountResult:
    """Exact sum-free counts via pruned descending backtracking.

    Parameters
    ----------
    n : universe bound.
    m : count only sets of this size (None = full profile by size).
    universe : optional restriction, a subset of {1, ..., n}.
    allow_equal : whether x + x = z disqualifies (default True).
    stratify : also tally by (ell, 2k, all-odd) low-part statistics.
    threads : worker processes; results are identical for every value.
    node_budget : abort with BudgetError after this many tree nodes, counted
        over all workers.
    """
    t0 = time.perf_counter()
    if m is not None and m < 0:
        raise ValueError("m must be >= 0")
    ubits = _universe_bits(n, universe)
    if m is not None and m > ubits.bit_count():
        return CountResult(0, {}, {} if stratify else None, "backtracking", 0.0, 0)
    root: _State = (ubits, 0, 0, 0, 0, True)

    if threads <= 1:
        by_size, strata, nodes = _walk([root], n, allow_equal, m, stratify, node_budget)
    else:
        # peel a frontier of independent subtrees, then farm them out
        frontier = [root]
        by_size, strata = Counter(), Counter() if stratify else None
        nodes = 0
        target = 64 * threads
        while frontier and len(frontier) < target:
            nxt: list[_State] = []
            for st in frontier:
                nodes += 1
                size = st[2]
                if m is None or size == m:
                    by_size[size] += 1
                    if stratify:
                        strata[(size, st[3], st[4], st[5])] += 1
                nxt.extend(_children(st, n, allow_equal, m))
            frontier = nxt
        if frontier:
            chunks = [frontier[i::threads * 4] for i in range(threads * 4)]
            tasks = [
                (chunk, n, allow_equal, m, stratify, node_budget, nodes)
                for chunk in chunks
                if chunk
            ]
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for part_sizes, part_strata, part_nodes in pool.map(_walk_task, tasks):
                    by_size.update(part_sizes)
                    if stratify:
                        strata.update(part_strata)
                    nodes += part_nodes
        if nodes > node_budget:
            raise BudgetError(
                f"search node budget exceeded ({node_budget})",
                estimate=node_budget,
                partial=(dict(by_size), dict(strata) if stratify else None, nodes),
            )

    by_size = {s: c for s, c in sorted(by_size.items())}
    total = sum(by_size.values())
    return CountResult(
        total=total,
        by_size=by_size,
        strata=dict(strata) if stratify else None,
        method="backtracking",
        elapsed=time.perf_counter() - t0,
        nodes=nodes,
    )


# ----------------------------------------------------------------------
# Streaming enumeration (ascending lexicographic order)


def enumerate_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    stream_budget: int = DEFAULT_STREAM_BUDGET,
) -> Iterator[IntSet]:
    """Yield each matching sum-free set exactly once, in ascending set order.

    The expected output size is counted first; a BudgetError is raised
    before streaming when it exceeds stream_budget.
    """
    expected = count_sum_free(n, m, universe=universe, allow_equal=allow_equal).total
    if expected > stream_budget:
        raise BudgetError(
            f"enumeration would stream {expected} sets (> budget {stream_budget})",
            estimate=expected,
        )
    ubits = _universe_bits(n, universe)
    return _enumerate_rec(n, ubits, allow_equal, m, 0, 0, 1)


def _enumerate_rec(
    n: int, ubits: int, allow_equal: bool, m: Optional[int], chosen: int, size: int, start: int
) -> Iterator[IntSet]:
    if m is None or size == m:
        yield IntSet.from_bits(n, chosen)
        if m is not None:
            return
    for x in range(start, n + 1):
        if not (ubits >> x) & 1:
            continue
        # choosing x kills every later y with y = c + x, plus y = 2x by convention
        forbidden = chosen << x
        if allow_equal:
            forbidden |= 1 << (2 * x)
        yield from _enumerate_rec(
            n, ubits & ~forbidden & ~((1 << (x + 1)) - 1), allow_equal, m, chosen | (1 << x), size + 1, x + 1
        )


# ----------------------------------------------------------------------
# Windowed counts and strata


@dataclass(frozen=True)
class WindowCount:
    """Sum-free count in the window {ceil(n/2) - a, ..., n} and its density.

    probability is the exact chance that a uniform m-subset of the window
    is sum-free: count / C(window size, m).
    """

    count: int
    window_lo: int
    window_size: int
    probability: Fraction


def count_in_window(
    n: int,
    a: int,
    m: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WindowCount:
    """Exact sum-free m-set count in {ceil(n/2) - a, ..., n}."""
    lo = (n + 1) // 2 - a
    if lo < 1:
        raise ValueError(f"window start {lo} below 1 (a too large)")
    universe = IntSet.interval(n, lo, n)
    res = count_sum_free(
        n, m, universe=universe, allow_equal=allow_equal, threads=threads, node_budget=node_budget
    )
    usize = n - lo + 1
    return WindowCount(
        count=res.total,
        window_lo=lo,
        window_size=usize,
        probability=Fraction(res.total, comb(usize, m)),
    )


@dataclass
class StratifiedCounts:
    """Joint distribution of (ell, k) over sum-free m-subsets of {1, ..., n}.

    joint maps (ell, k) to the exact count; odd_joint restricts to sets of
    odd numbers only.  k is exact (a Fraction on the half-integer grid when
    n is odd).
    """

    n: int
    m: int
    total: int
    joint: dict[tuple[int, Fraction], int] = field(default_factory=dict)
    odd_joint: dict[tuple[int, Fraction], int] = field(default_factory=dict)

    def marginal_ell(self) -> dict[int, int]:
        out: Counter = Counter()
        for (ell, _k), c in self.joint.items():
            out[ell] += c
        return dict(sorted(out.items()))


def stratified_counts(
    n: int,
    m: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> StratifiedCounts:
    """Exact joint (ell, k) distribution over sum-free m-subsets of {1, ..., n}."""
    res = count_sum_free(
        n, m, allow_equal=allow_equal, stratify=True, threads=threads, node_budget=node_budget
    )
    table = StratifiedCounts(n=n, m=m, total=res.total)
    for (size, ell, twk, odd), c in res.strata.items():
        assert size == m
        key = (ell, Fraction(twk, 2))
        table.joint[key] = table.joint.get(key, 0) + c
        if odd:
            table.odd_joint[key] = table.odd_joint.get(key, 0) + c
    return table
