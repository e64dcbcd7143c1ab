"""Exact counting and listing of sum-free m-subsets of {1, ..., n}.

Two independent routes are provided.  count_oracle iterates all subsets of
the universe (vectorized over bitmasks, |universe| <= 24) and filters; it
is the ground truth the search is checked against.  The search picks
elements in DESCENDING order while maintaining a forbidden bitmap: after
choosing x, any smaller y with x + y already chosen, or with 2y = x under
the default convention, is dead.  Every node of that tree is itself a
sum-free set and every sum-free set occurs as exactly one node.

count_sum_free does not visit those nodes one by one.  The subtree below
a state depends only on the allowed elements and on the chosen elements
inside allowed + allowed: a later kill y + z = c needs both y and z
allowed, so any other chosen element never matters again.  Each distinct
state is solved once, as the by-size generating polynomial of its
subtree packed into one integer (one n + 2 bit field per size), and
repeated states are read back from a memo that lives for one call.  The
states grow about 3x for each +4 in n, the sets about 4x.

Counts stratified by the low-part statistics (ell, k, all-odd flag) walk
the tree node by node instead, maintaining the statistics incrementally
during the descent.  Everything runs in one process.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterator, Optional

from .core import ALLOW_EQUAL_DEFAULT
from .errors import BudgetError
from .intset import IntSet, coerce_bits
from .sumsets import sumsetbits

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
    method   -- "oracle", "memo", or "backtracking" (the strata walk)
    elapsed  -- wall seconds
    nodes    -- subsets inspected by the oracle; for the search, the tree
                nodes covered: the sum-free sets of size <= m (all if m is None)
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
# Descending search: memoized subtree counts, and a walk for strata


def _subtree(
    allowed: int, chosen: int, wanted: int, memo: dict, width: int, allow_equal: bool, budget: int, size: int
) -> int:
    """By-size generating polynomial of the search subtree below one state.

    Coefficient j (bits [j*width, (j+1)*width)) counts the subtree's
    sum-free sets with j more elements than the state, for j <= wanted.
    Only chosen elements inside allowed + allowed matter below, so the
    caller reduces `chosen` to them and memoizes on (allowed, chosen,
    wanted).  wanted is capped at |allowed|, which no subtree exceeds: a
    full profile keys on the first two alone, and a fixed m reaches only
    states within m levels of the root.  A subtree covering more than
    `budget` nodes refuses, with its sets by size (from `size`) as partial.
    """
    acc = 0
    below = wanted - 1
    bits = allowed
    while bits:
        x = bits.bit_length() - 1
        xbit = 1 << x
        bits ^= xbit
        kept = chosen | xbit
        # bits is allowed below x: drop y with y + x chosen, and x/2 by convention
        child = bits & ~(kept >> x)
        if allow_equal and not x & 1:
            child &= ~(1 << (x >> 1))
        k = child.bit_count()
        r = k if k < below else below
        if r < 2:
            acc += 1 if r < 1 else 1 + (k << width)
            continue
        kept &= (1 << 2 * child.bit_length() - 1) - 1  # child + child lies below twice its top
        if kept:
            kept &= sumsetbits(child)
        key = (child, kept, r)
        v = memo.get(key)
        if v is None:
            v = memo[key] = _subtree(child, kept, r, memo, width, allow_equal, budget, size + 1)
        acc += v
    value = 1 + ((acc << width) & ((1 << width * (wanted + 1)) - 1))
    nodes = value % ((1 << width) - 1)  # the sum of the coefficients
    if nodes > budget:
        by_size = {size + j: c for j, c in enumerate(_coefficients(value, width)) if c}
        raise BudgetError(
            f"search node budget exceeded ({budget})", estimate=budget, partial=(by_size, None, nodes)
        )
    return value


def _coefficients(value: int, width: int) -> list[int]:
    field = (1 << width) - 1
    return [(value >> width * j) & field for j in range((value.bit_length() + width - 1) // width)]


def _walk(n: int, ubits: int, allow_equal: bool, m: Optional[int], node_budget: int) -> tuple[Counter, int]:
    """Visit the search tree node by node; tally (size, ell, 2k, odd) of each matching node."""
    strata: Counter = Counter()
    nodes = 0
    stack = [(ubits, 0, 0, 0, 0, True)]  # allowed, chosen, size, ell, twice_k, odd
    while stack:
        allowed, chosen, size, ell, twk, odd = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetError(
                f"search node budget exceeded ({node_budget})",
                estimate=node_budget,
                partial=(_sizes_of(strata), dict(strata), nodes),
            )
        if m is None or size == m:
            strata[(size, ell, twk, odd)] += 1
            if size == m:
                continue
        bits = allowed
        while bits:
            x = bits.bit_length() - 1
            xbit = 1 << x
            bits ^= xbit
            child = bits & ~((chosen | xbit) >> x)
            if allow_equal and not x & 1:
                child &= ~(1 << (x >> 1))
            if m is not None and child.bit_count() < m - size - 1:
                continue
            low = 2 * x <= n
            stack.append((child, chosen | xbit, size + 1, ell + low, twk + low * (n - 2 * x), odd and bool(x & 1)))
    return strata, nodes


def _sizes_of(strata: Counter) -> dict[int, int]:
    by_size: Counter = Counter()
    for key, c in strata.items():
        by_size[key[0]] += c
    return dict(by_size)


def count_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    stratify: bool = False,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountResult:
    """Exact sum-free counts via the descending search.

    Parameters
    ----------
    n : universe bound.
    m : count only sets of this size (None = full profile by size).
    universe : optional restriction, a subset of {1, ..., n}.
    allow_equal : whether x + x = z disqualifies (default True).
    stratify : also tally by (ell, 2k, all-odd) low-part statistics.
    threads : accepted for compatibility; the search runs in one process
        and results are identical for every value.
    node_budget : refuse with BudgetError when the count covers more tree
        nodes, i.e. sum-free sets (of size <= m when m is given).
    """
    t0 = time.perf_counter()
    if m is not None and m < 0:
        raise ValueError("m must be >= 0")
    ubits = _universe_bits(n, universe)
    method = "backtracking" if stratify else "memo"
    if m is not None and m > ubits.bit_count():
        return CountResult(0, {}, {} if stratify else None, method, 0.0, 0)

    strata = None
    if stratify:
        strata, nodes = _walk(n, ubits, allow_equal, m, node_budget)
        strata, by_size = dict(strata), _sizes_of(strata)
    else:
        width = n + 2  # a field holds any count <= 2^n, and so does the sum of all fields
        wanted = ubits.bit_count() if m is None else min(m, ubits.bit_count())
        value = _subtree(ubits, 0, wanted, {}, width, allow_equal, node_budget, 0)
        nodes = value % ((1 << width) - 1)
        by_size = {j: c for j, c in enumerate(_coefficients(value, width)) if c and (m is None or j == m)}

    by_size = {s: c for s, c in sorted(by_size.items())}
    return CountResult(
        total=sum(by_size.values()),
        by_size=by_size,
        strata=strata,
        method=method,
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
    """Exact sum-free m-set count in {ceil(n/2) - a, ..., n}; threads changes nothing."""
    lo = (n + 1) // 2 - a
    if lo < 1:
        raise ValueError(f"window start {lo} below 1 (a too large)")
    universe = IntSet.interval(n, lo, n)
    res = count_sum_free(n, m, universe=universe, allow_equal=allow_equal, node_budget=node_budget)
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
    """Exact joint (ell, k) distribution of sum-free m-subsets of {1, ..., n}; threads changes nothing."""
    res = count_sum_free(n, m, allow_equal=allow_equal, stratify=True, node_budget=node_budget)
    table = StratifiedCounts(n=n, m=m, total=res.total)
    for (size, ell, twk, odd), c in res.strata.items():
        assert size == m
        key = (ell, Fraction(twk, 2))
        table.joint[key] = table.joint.get(key, 0) + c
        if odd:
            table.odd_joint[key] = table.odd_joint.get(key, 0) + c
    return table
