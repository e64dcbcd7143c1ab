"""Exact partition counting, with and without sumset-size constraints.

p(k) is the number of integer partitions of k (p(3) = 3: 3, 2+1, 1+1+1).
p_star(k, ell) counts partitions of k into ell distinct parts, equivalently
the ell-element sets of positive integers with element sum k; it satisfies
the recurrence p*(k, ell) = p*(k - ell, ell - 1) + p*(k - ell, ell)
(subtract one from every part; the smallest part either was 1 and vanishes
or stays positive) and vanishes when k < ell(ell+1)/2.  Both refuse
(BudgetError) a table past their budget: p counts its additions, p_star
its k ell cells.

The restricted counters answer "how many of those sets also have a small
sumset".  No closed form is known, so they enumerate the candidate sets
down a descending-largest-part tree with sum/size pruning and filter by
the exact |S+S| of each candidate.  Enumeration is refused (BudgetError)
when the candidate count exceeds the configured budget, or, for
count_small_sumset_sets, once its pruned search visits more nodes than
the budget; results are exact integers, never truncated.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterator, Optional

from .enumeration import STACK_HEADROOM
from .errors import BudgetError
from .intset import bits_of
from .sumsets import sumsetbits

DEFAULT_BUDGET = 10**7

_p_cache: list[int] = [1]


def p(k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of integer partitions of k (exact), by Euler's pentagonal recurrence.

    p(s) is the signed sum of p(s - g) over the generalized pentagonal
    numbers g = i(3i -/+ 1)/2 <= s, sign (-1)^(i+1).  The table up to k
    takes sum over g <= k of (k + 1 - g) additions, about 1.09 k^1.5; past
    `budget` of them it refuses (BudgetError) before adding, whatever an
    earlier call already holds.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    pentagonal, additions, i = [], 0, 1
    while i * (3 * i - 1) // 2 <= k:
        for g in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2):
            additions += max(k + 1 - g, 0)
            pentagonal.append((g, i % 2))
        if additions > budget:
            raise BudgetError(f"p({k}) takes more than {budget} additions")
        i += 1
    for s in range(len(_p_cache), k + 1):
        total = 0
        for g, positive in pentagonal:
            if g > s:
                break
            total = total + _p_cache[s - g] if positive else total - _p_cache[s - g]
        _p_cache.append(total)
    return _p_cache[k]


def p_star(k: int, ell: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of ell-element sets of distinct positive integers summing to k.

    The table has k ell cells; past `budget` of them it refuses
    (BudgetError) before allocating.
    """
    if k < 0 or ell < 0:
        raise ValueError("k and ell must be >= 0")
    if ell == 0:
        return 1 if k == 0 else 0
    if k < ell * (ell + 1) // 2:
        return 0
    if k * ell > budget:
        raise BudgetError(f"p*({k}, {ell}) takes {k * ell} table cells, past the budget ({budget})", estimate=k * ell)
    prev = [0] * (k + 1)
    prev[0] = 1
    for j in range(1, ell + 1):
        cur = [0] * (k + 1)
        for s in range(j * (j + 1) // 2, k + 1):
            cur[s] = prev[s - j] + cur[s - j]
        prev = cur
    return prev[k]


def iter_distinct_sets(k: int, ell: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Yield every ell-element set with distinct parts summing to k, ascending tuples.

    Parts are bounded by max_part when given.  The tree branches on the
    largest part in descending order and prunes branches whose remaining
    sum is infeasible for the remaining number of parts.
    """
    if k < 0 or ell < 0:
        raise ValueError("k and ell must be >= 0")
    cap = k if max_part is None else min(max_part, k)
    yield from _distinct_rec(k, ell, cap)


def _distinct_rec(k: int, ell: int, cap: int) -> Iterator[tuple[int, ...]]:
    if ell == 0:
        if k == 0:
            yield ()
        return
    # largest part a: the other ell-1 parts are distinct, positive, below a
    hi = min(cap, k - ell * (ell - 1) // 2)
    lo = -(-(2 * k + ell * (ell - 1)) // (2 * ell))  # ceil(k/ell + (ell-1)/2)
    for a in range(hi, max(lo, ell) - 1, -1):
        for rest in _distinct_rec(k - a, ell - 1, a - 1):
            yield rest + (a,)


def sumset_size_profile(
    k: int, ell: int, max_part: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> Counter:
    """Histogram {|S+S|: count} over all ell-element sets summing to k.

    One enumeration pass answers every sumset-cap query for this (k, ell):
    the count under a cap is the mass of the sizes up to it.
    """
    _check_budget(k, ell, budget)
    profile: Counter = Counter()
    for parts in iter_distinct_sets(k, ell, max_part):
        profile[sumsetbits(bits_of(parts)).bit_count()] += 1
    return profile


def count_restricted(
    k: int,
    ell: int,
    sumset_cap: Optional[int] = None,
    universe_cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of ell-element sets summing to k with |S+S| <= sumset_cap.

    Parts are additionally bounded by universe_cap when given.  Without any
    constraint the count equals p_star(k, ell), computed like the candidate
    count (see _candidates).
    """
    if sumset_cap is None and universe_cap is None:
        return _candidates(k, ell, budget)
    profile = sumset_size_profile(k, ell, universe_cap, budget)
    return sum(c for size, c in profile.items() if sumset_cap is None or size <= sumset_cap)


def count_small_sumset_sets(n: int, m: int, cap: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of m-element subsets of {1, ..., n} with |S+S| <= cap.

    Searches ascending with an incremental sumset bitmap; a branch dies as
    soon as the partial sumset already exceeds the cap (subsets only grow
    their sumsets).  The nodes of that pruned tree are the subsets S with
    |S+S| <= cap that still fit m - |S| larger elements, the empty set
    included.  Once more than `budget` of them are visited it refuses,
    with (sets found, nodes visited) as partial.  Every candidate past
    2 max(S) - min(S) adds the same number of sums, so those candidates all
    fit or none does: the search stops before them when none does and
    counts the m-sets among them in closed form, so no scan outruns the
    budget, however large n is.  The search recurses once per element, so
    an m <= n above the recursion limit less STACK_HEADROOM refuses before
    searching, with (0, 0) as partial.
    """
    if n < 1 or m < 0 or cap < 0:
        raise ValueError("need n >= 1, m >= 0, cap >= 0")
    limit = sys.getrecursionlimit()
    if limit - STACK_HEADROOM < m <= n:
        raise BudgetError(
            f"search depth {m} exceeds the interpreter's recursion limit ({limit})", estimate=budget, partial=(0, 0)
        )
    found, nodes = int(m == 0), 1  # the root is the empty set

    def check() -> None:
        if nodes > budget:
            raise BudgetError(f"search node budget exceeded ({budget})", estimate=budget, partial=(found, nodes))

    def rec(start: int, picked: int, bits: int, ss: int) -> None:
        nonlocal found, nodes
        check()
        stop = n - (m - picked) + 2
        kept = 0
        # each v > 2 max(S) - min(S) adds |S| + 1 sums above max(S + S), so all of those v fit or none does
        uniform = 2 * start - (bits & -bits).bit_length()  # max(S) = start - 1; 2 at the root
        if uniform < stop:
            if ss.bit_count() + picked >= cap:
                stop = uniform
            elif picked == m - 1:
                kept, stop = stop - uniform, uniform
        if picked == m - 1:  # the children are the m-sets: count them without descending
            for v in range(start, stop):
                if (ss | (bits | 1 << v) << v).bit_count() <= cap:
                    kept += 1
            found += kept
            nodes += kept
            return
        for v in range(start, stop):
            nb = bits | (1 << v)
            nss = ss | (nb << v)
            if nss.bit_count() <= cap:
                nodes += 1
                rec(v + 1, picked + 1, nb, nss)

    if m:
        rec(1, 0, 0, 0)
    check()
    return found


def _candidates(k: int, ell: int, budget: int) -> int:
    """p*(k, ell) on a table of up to max(budget, DEFAULT_BUDGET) cells.

    A budget above the default admits a larger table; one below it still
    sizes the enumeration, so its refusal reports the candidate estimate.
    """
    return p_star(k, ell, max(budget, DEFAULT_BUDGET))


def _check_budget(k: int, ell: int, budget: int) -> None:
    candidates = _candidates(k, ell, budget)
    if candidates > budget:
        raise BudgetError(
            f"instance too large for exact enumeration (about {candidates} candidates)",
            estimate=candidates,
        )
