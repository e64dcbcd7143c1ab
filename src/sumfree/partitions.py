"""Exact partition counting, with and without sumset-size constraints.

p(k) is the number of integer partitions of k (p(3) = 3: 3, 2+1, 1+1+1).
p_star(k, ell) counts partitions of k into ell distinct parts, equivalently
the ell-element sets of positive integers with element sum k; it satisfies
the recurrence p*(k, ell) = p*(k - ell, ell - 1) + p*(k - ell, ell)
(subtract one from every part; the smallest part either was 1 and vanishes
or stays positive) and vanishes when k < ell(ell+1)/2.  _p_star_row holds
p*(j, ell) for every j <= k on one row, so its sum counts the ell-sets with
sum at most k.  Both refuse (errors.over_budget) a table past their
budget: p in additions, p_star in its k ell table cells.

The restricted counters answer "how many of those sets also have a small
sumset".  No closed form is known.  sumset_size_profile enumerates the
candidate sets down a descending-largest-part tree with sum/size pruning
and takes the exact |S+S| of each.  count_restricted walks the same tree
with S+S carried as one bitmap and drops a branch once its sumset must
pass the cap.  Each takes one budget, checked before any set is
enumerated: first on the table cells of the p*(k, ell) table that counts
the candidates, then on the candidate sets themselves.
count_small_sumset_sets refuses once its pruned search takes more search
steps than the budget.  Every refusal is errors.over_budget's, in the
unit named here.  Both trees recurse once per part, so a search deeper
than refuse_deeper allows refuses before it starts.  Results are exact
integers, never truncated.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt
from typing import Iterator, Optional

from .errors import over_budget, refuse_deeper
from .intset import bits_of
from .sumsets import sumsetbits

DEFAULT_BUDGET = 10**7

_p_cache: list[int] = [1]


def p(k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of integer partitions of k (exact), by Euler's pentagonal recurrence.

    p(s) is the signed sum of p(s - g) over the generalized pentagonal
    numbers g = i(3i -/+ 1)/2 <= s, sign (-1)^(i+1).  The table up to k
    takes sum over g <= k of (k + 1 - g) additions, about 1.09 k^1.5, in
    closed form: i(3i - 1)/2 summed over i <= I is I^2 (I + 1)/2, and
    i(3i + 1)/2 summed is I (I + 1)^2/2.  Past `budget` of them it refuses
    (BudgetError, with that count as estimate) before adding, whatever an
    earlier call already holds.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    root = isqrt(24 * k + 1)
    minus, plus = (root + 1) // 6, (root - 1) // 6  # the i with i(3i - 1)/2 <= k, and those with i(3i + 1)/2 <= k
    additions = (minus + plus) * (k + 1) - minus**2 * (minus + 1) // 2 - plus * (plus + 1) ** 2 // 2
    if additions > budget:
        raise over_budget(additions, budget, "additions")
    pentagonal = [(i * (3 * i + sign) // 2, i % 2) for i in range(1, minus + 1) for sign in (-1, 1)]
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

    The last entry of _p_star_row(k, ell, budget), a row of partitions of
    the remainder k - ell(ell+1)/2; past `budget` table cells it refuses
    (BudgetError) before allocating.  ell = 0 allocates nothing.
    """
    if ell == 0 and k >= 0:
        return int(k == 0)
    return (_p_star_row(k, ell, budget) or [0])[-1]


def _p_star_row(k: int, ell: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """[p*(j, ell) for j from ell(ell+1)/2 to k], empty when k is below that.

    Entry s counts the partitions of s into parts <= ell (less 1, 2, ...,
    ell from the parts of a set summing to ell(ell+1)/2 + s: at most ell
    parts remain), on one row of k - ell(ell+1)/2 + 1 ints.  Its cost is
    taken as k ell table cells; past `budget` of them it refuses
    (BudgetError) before allocating.
    """
    if k < 0 or ell < 0:
        raise ValueError("k and ell must be >= 0")
    r = k - ell * (ell + 1) // 2
    if r < 0:
        return []
    if k * ell > budget:
        raise over_budget(k * ell, budget, "table cells")
    row = [0] * (r + 1)
    row[0] = 1
    for j in range(1, ell + 1):
        for s in range(j, r + 1):
            row[s] += row[s - j]
    return row


def iter_distinct_sets(k: int, ell: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Yield every ell-element set with distinct parts summing to k, ascending tuples.

    Parts are bounded by max_part when given.  The tree branches on the
    largest part in descending order and prunes branches whose remaining
    sum is infeasible for the remaining number of parts.  It recurses once
    per part, so when some set exists (ell distinct parts up to the bound
    reach every sum from 1 + ... + ell to the ell largest), an ell deeper
    than refuse_deeper allows refuses before the first set.
    """
    if k < 0 or ell < 0:
        raise ValueError("k and ell must be >= 0")
    cap = k if max_part is None else min(max_part, k)
    if ell * (ell + 1) <= 2 * k <= ell * (2 * cap - ell + 1):
        refuse_deeper(ell)
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


def sumset_size_profile(k: int, ell: int, budget: int = DEFAULT_BUDGET) -> Counter:
    """Histogram {|S+S|: count} over all ell-element sets summing to k.

    One enumeration pass answers every sumset-cap query for this (k, ell):
    the count under a cap is the mass of the sizes up to it.  It refuses
    (BudgetError) before enumerating when the candidates, p*(k, ell), or
    the table cells that count them pass `budget`.
    """
    candidates = p_star(k, ell, budget)
    if candidates > budget:
        raise over_budget(candidates, budget, "candidate sets")
    profile: Counter = Counter()
    for parts in iter_distinct_sets(k, ell):
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
    constraint the count is p_star(k, ell, budget), the candidate count.
    Otherwise it refuses (BudgetError) when the table cells or the
    candidates pass `budget`, as sumset_size_profile does, and then walks
    the candidates down iter_distinct_sets' tree (largest part first, the
    same sum and size bounds) with S+S carried as one bitmap.  A part a
    below every part so far adds 2a and a + min(S), both below min(S+S),
    so each part still to come adds at least two sums: a branch is dropped
    as soon as its sums plus two per part to come pass the cap (no cap
    means ell(ell+1)/2, the most an ell-set has).  The last part is what
    is left of the sum.  The walk's leaves are among the candidates, so
    the candidate refusal bounds its work too.
    """
    candidates = p_star(k, ell, budget)
    if sumset_cap is None and universe_cap is None:
        return candidates
    if candidates > budget:
        raise over_budget(candidates, budget, "candidate sets")
    cap = ell * (ell + 1) // 2 if sumset_cap is None else sumset_cap
    top = k if universe_cap is None else min(universe_cap, k)
    if ell * (ell + 1) <= 2 * k <= ell * (2 * top - ell + 1):
        refuse_deeper(ell)
    if ell == 0:
        return int(k == 0 and cap >= 0)  # the empty set, with |S+S| = 0

    def walk(k: int, ell: int, top: int, bits: int, ss: int) -> int:
        if ell == 1:
            return int(0 < k <= top and (ss | (bits | 1 << k) << k).bit_count() <= cap)
        room = cap - 2 * (ell - 1)  # the ell - 1 parts after this one add two sums each
        hi = min(top, k - ell * (ell - 1) // 2)
        lo = -(-(2 * k + ell * (ell - 1)) // (2 * ell))  # ceil(k/ell + (ell-1)/2)
        found = 0
        for a in range(hi, max(lo, ell) - 1, -1):
            nb = bits | 1 << a
            nss = ss | nb << a
            if nss.bit_count() <= room:
                found += walk(k - a, ell - 1, a - 1, nb, nss)
        return found

    return walk(k, ell, top, 0, 0)


def count_small_sumset_sets(n: int, m: int, cap: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of m-element subsets of {1, ..., n} with |S+S| <= cap.

    It is 0, before any search or refusal, when m > n or when m >= 1 and
    cap < 2m - 1: every m-set has |S+S| >= 2m - 1.  Otherwise it searches
    ascending with an incremental sumset bitmap; a branch dies as
    soon as the partial sumset already exceeds the cap (subsets only grow
    their sumsets).  The nodes of that pruned tree are the subsets S with
    |S+S| <= cap and room for m - |S| larger elements; at each node below
    size m every candidate next element is tested against the cap.  Every
    candidate past 2 max(S) - min(S) adds the same number of sums, so those
    candidates all fit or none does: the search stops before them when none
    does and counts the m-sets among them in closed form.  The budget
    bounds the work in search steps: one for the root (the empty set), one
    per candidate tested and one per m-set counted in closed form, charged
    at each node before its candidates are scanned.  Past it the search
    refuses, with the steps taken as estimate and the sets found so far as
    partial, so no scan outruns the budget, however large n is.  The
    search recurses once per element, so an m deeper than refuse_deeper
    allows refuses before searching.
    """
    if n < 1 or m < 0 or cap < 0:
        raise ValueError("need n >= 1, m >= 0, cap >= 0")
    if m > n or 0 < m and cap < 2 * m - 1:  # |S+S| >= 2|S| - 1
        return 0
    refuse_deeper(m)
    found, work = int(m == 0), 1  # the root

    def rec(start: int, picked: int, bits: int, ss: int) -> None:
        nonlocal found, work
        stop = n - (m - picked) + 2
        kept = 0
        # each v > 2 max(S) - min(S) adds |S| + 1 sums above max(S + S), so all of those v fit or none does
        uniform = 2 * start - (bits & -bits).bit_length()  # max(S) = start - 1; 2 at the root
        if uniform < stop:
            if ss.bit_count() + picked >= cap:
                stop = uniform
            elif picked == m - 1:
                kept, stop = stop - uniform, uniform
        work += kept + stop - start  # stop > start: an element fits below stop, and uniform > start
        if work > budget:
            raise over_budget(work, budget, "search steps", found)
        if picked == m - 1:  # the children are the m-sets: count them without descending
            for v in range(start, stop):
                if (ss | (bits | 1 << v) << v).bit_count() <= cap:
                    kept += 1
            found += kept
            return
        for v in range(start, stop):
            nb = bits | (1 << v)
            nss = ss | (nb << v)
            if nss.bit_count() <= cap:
                rec(v + 1, picked + 1, nb, nss)

    if work > budget:
        raise over_budget(work, budget, "search steps", found)
    if m:
        rec(1, 0, 0, 0)
    return found
