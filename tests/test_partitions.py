"""Partition counting: closed recurrences against direct enumeration."""

import math
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from sumfree import (
    BudgetError,
    count_restricted,
    count_small_sumset_sets,
    iter_distinct_sets,
    p,
    p_star,
    sumset,
    sumset_size_profile,
)
from sumfree.intset import bits_of
from sumfree.partitions import _p_star_row
from sumfree.sumsets import sumsetbits
from sumfree.verify import _sumset_profiles


def enum_partitions(k, max_part=None):
    """Yield all partitions of k as non-increasing tuples (naive oracle)."""
    if k == 0:
        yield ()
        return
    top = k if max_part is None else min(k, max_part)
    for first in range(top, 0, -1):
        for rest in enum_partitions(k - first, first):
            yield (first,) + rest


def enum_distinct(k, max_part):
    """Yield all partitions of k into distinct parts (naive oracle)."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in enum_distinct(k - first, first - 1):
            yield (first,) + rest


def test_p_examples():
    assert p(3) == 3
    assert p(0) == 1
    assert p(10) == 42
    with pytest.raises(ValueError):
        p(-1)


def test_p_against_enumeration():
    for k in range(0, 26):
        assert p(k) == sum(1 for _ in enum_partitions(k))


def test_p_equals_the_part_by_part_table():
    # the quadratic table p(k) was built with before the pentagonal recurrence
    kmax = 1000
    table = [1] + [0] * kmax
    for part in range(1, kmax + 1):
        for s in range(part, kmax + 1):
            table[s] += table[s - part]
    assert [p(k) for k in range(kmax + 1)] == table


def test_p_and_p_star_refuse_past_their_budget():
    # partitions --k 100000000 ran the quadratic table with no budget and never returned
    pentagonal = [i * (3 * i + sign) // 2 for i in range(1, 20) for sign in (-1, 1)]
    additions = sum(1 for s in range(1, 101) for g in pentagonal if g <= s)
    p(200)  # a table already built past k does not change the decision
    assert p(100, budget=additions) == 190569292
    with pytest.raises(BudgetError):
        p(100, budget=additions - 1)
    with pytest.raises(BudgetError):
        p(10**8)
    assert p_star(30, 4, budget=120) == p_star(30, 4) == 108
    with pytest.raises(BudgetError):
        p_star(30, 4, budget=119)
    with pytest.raises(BudgetError):  # refused before its 10^9-entry lists are allocated
        p_star(10**9, 1000)


def test_p_star_examples():
    assert p_star(8, 3) == 2  # 5+2+1 and 4+3+1
    assert all(p_star(k, 1) == 1 for k in range(1, 30))
    assert p_star(5, 3) == 0  # 5 < 3*4/2
    assert p_star(0, 0) == 1
    assert p_star(4, 0) == 0
    # ell = 0 is answered before the row of k + 1 ints is allocated, and no budget refuses it
    assert p_star(10**12, 0) == p_star(10**12, 0, budget=0) == 0
    assert all(p_star(k, 2) == (k - 1) // 2 for k in range(1, 200))  # {j, k - j} with 1 <= j < k / 2


def test_p_star_keeps_one_row_of_the_remainder():
    # p_star kept two rows of k + 1 ints whatever ell was: 16 MB traced for p*(10^6 + 1, 1), whose answer is 1
    assert p_star(10**6 + 1, 1) == 1
    tracemalloc.start()
    try:
        assert p_star(10**5 + 1, 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 10**5, peak  # one row of 10^5 + 1 pointers, not two


def test_p_star_against_enumeration():
    for k in range(0, 41):
        by_len = Counter(len(q) for q in enum_distinct(k, k))
        for ell in range(0, 10):
            assert p_star(k, ell) == by_len.get(ell, 0)
    for ell in range(0, 10):  # p_star reads the last entry of the row, which holds every k from ell(ell+1)/2 on
        assert _p_star_row(40, ell) == [p_star(k, ell) for k in range(ell * (ell + 1) // 2, 41)]


def test_p_star_sums_to_distinct_partition_count():
    for k in range(0, 81):
        distinct_total = sum(1 for _ in enum_distinct(k, k))
        assert sum(p_star(k, ell) for ell in range(0, 14)) == distinct_total


def test_iter_distinct_sets():
    sets = list(iter_distinct_sets(12, 3))
    assert len(sets) == p_star(12, 3) == 7
    assert sorted(sets) == sorted(
        [(1, 2, 9), (1, 3, 8), (1, 4, 7), (1, 5, 6), (2, 3, 7), (2, 4, 6), (3, 4, 5)]
    )
    assert all(a < b < c for a, b, c in sets)
    capped = list(iter_distinct_sets(12, 3, max_part=6))
    assert sorted(capped) == sorted([(1, 5, 6), (2, 4, 6), (3, 4, 5)])
    assert list(iter_distinct_sets(0, 0)) == [()]


def test_count_restricted_examples():
    assert count_restricted(12, 3) == 7
    # the 3 three-term progressions summing to 12: {3,4,5}, {2,4,6}, {1,4,7}
    assert count_restricted(12, 3, sumset_cap=5) == 3
    assert count_restricted(0, 0, sumset_cap=99) == 1
    assert count_restricted(12, 3, universe_cap=6) == 3


def test_count_restricted_monotone_and_saturates():
    for k, ell in ((15, 3), (21, 4), (30, 5)):
        prev = 0
        for cap in range(0, 40):
            cur = count_restricted(k, ell, sumset_cap=cap)
            assert cur >= prev
            prev = cur
        assert prev == p_star(k, ell)


def test_count_restricted_against_filter_oracle():
    for k, ell, cap in ((18, 3, 6), (20, 4, 9), (25, 5, 12), (16, 2, 3)):
        expected = 0
        for s in enum_distinct(k, k):
            if len(s) == ell and len({a + b for a in s for b in s}) <= cap:
                expected += 1
        assert count_restricted(k, ell, sumset_cap=cap) == expected


def test_count_restricted_against_brute_force_grid():
    # the pruned walk against every candidate's |S+S|; k = ell = 0 is the empty set, |S+S| = 0, so a negative cap drops it
    for k in range(26):
        for ell in range(7):
            for universe_cap in (None, -1, 0, 3, 8, 30):
                sizes = [sumsetbits(bits_of(s)).bit_count() for s in iter_distinct_sets(k, ell, universe_cap)]
                for cap in (None, -1, 0, 1, 2 * ell - 2, 2 * ell - 1, 2 * ell, 3 * ell, ell * (ell + 1) // 2, 99):
                    want = sum(1 for size in sizes if cap is None or size <= cap)
                    assert count_restricted(k, ell, sumset_cap=cap, universe_cap=universe_cap) == want, (
                        k, ell, universe_cap, cap)


def test_budget_error_reports_estimate():
    # a budget below the p* table's k ell cells refuses on them; one above, on the candidates.  The table took up
    # to 10^7 cells whatever the budget, so (1000, 2) answered 499 within a budget of 1000
    with pytest.raises(BudgetError) as err:
        count_restricted(1000, 2, sumset_cap=5000, budget=1000)
    assert err.value.estimate == 2000 and "2000 table cells" in str(err.value)
    assert count_restricted(1000, 2, sumset_cap=5000, budget=2000) == 499
    with pytest.raises(BudgetError) as err:
        count_restricted(200, 10, sumset_cap=30, budget=100)
    assert err.value.estimate == 2000
    with pytest.raises(BudgetError) as err:
        count_restricted(200, 10, sumset_cap=30, budget=2000)
    assert err.value.estimate == p_star(200, 10)
    with pytest.raises(BudgetError) as err:
        count_small_sumset_sets(60, 20, 100, budget=1000)
    assert err.value.estimate > 1000 and err.value.partial >= 0  # the steps taken, and the sets found so far
    # p(k) refused without an estimate; it is the exact number of additions of the pentagonal recurrence
    for k in (0, 1, 2, 5, 100, 4321):
        pentagonal = [i * (3 * i + sign) // 2 for i in range(1, k + 1) for sign in (-1, 1)]
        additions = sum(k + 1 - g for g in pentagonal if g <= k)
        assert p(k, budget=additions) == p(k)
        with pytest.raises(BudgetError) as err:
            p(k, budget=additions - 1)
        assert err.value.estimate == additions, k


def test_distinct_parts_deeper_than_the_stack_refuse():
    # one set of 1000 parts sums to 500500: the tree recursed once per part into a RecursionError
    with pytest.raises(BudgetError, match="recursion limit") as err:
        count_restricted(500500, 1000, sumset_cap=10**6, budget=10**9)
    assert err.value.estimate is None
    # no set: nothing to recurse into, nothing refused
    assert list(iter_distinct_sets(10, 1000)) == list(iter_distinct_sets(500500, 1000, max_part=999)) == []


def test_restricted_counts_take_a_budget_above_the_default():
    # the candidate count p*(k, 1) takes k table cells, past the default budget of 10^7
    assert count_restricted(10**7 + 1, 1, sumset_cap=1, budget=2 * 10**7) == 1


def test_sumset_size_profile_consistency():
    profile = sumset_size_profile(12, 3)
    assert sum(profile.values()) == 7
    assert profile[5] == 3
    assert sumset_size_profile(0, 0) == {0: 1}
    # the ratio table's one walk gives every cell the profile of its own enumeration
    walked = _sumset_profiles(30, 12)
    cells = [(k, ell) for ell in range(1, 13) for k in range(ell * (ell + 1) // 2, 31)]
    assert len(cells) == 133 and set(walked) == {(0, 0), *cells}  # and the empty set
    assert all(walked[k, ell] == sumset_size_profile(k, ell) for k, ell in cells)


def test_count_small_sumset_sets_examples():
    assert count_small_sumset_sets(6, 2, 3) == 15  # every pair has |S+S| = 3
    assert count_small_sumset_sets(4, 3, 5) == 2  # {1,2,3} and {2,3,4}
    assert count_small_sumset_sets(4, 3, 4) == 0  # |S+S| >= 2m - 1 = 5
    # so a cap below 2m - 1, or an m above n, counts 0 without a search or a refusal; this one refused at budget 0
    assert count_small_sumset_sets(10**6, 3, 4, budget=0) == 0
    assert count_small_sumset_sets(10**6, 10**6 + 1, 10**9, budget=0) == 0
    assert count_small_sumset_sets(20, 3, 5) == sum(20 - 2 * d for d in range(1, 10))  # cap 2m - 1: the progressions
    with pytest.raises(BudgetError):
        count_small_sumset_sets(20, 3, 5, budget=0)


def test_count_small_sumset_sets_against_combinations():
    for n, m, cap in ((8, 3, 6), (9, 4, 9), (10, 2, 3), (7, 5, 30)):
        expected = sum(
            1 for s in combinations(range(1, n + 1), m) if len(sumset(s)) <= cap
        )
        assert count_small_sumset_sets(n, m, cap) == expected


def pruned_search_work(n, m, cap):
    """One for the root, plus the candidates tested and the m-sets counted in closed form at each node.

    A node is a set S with |S| < m, |S+S| <= cap and room for m - |S| larger elements, the empty set
    included; its candidates are max(S) < v <= n - (m - |S|) + 1.  Those past u = 2 max(S) - min(S)
    all fit the cap or none does; when none does, only the ones up to u are tested.
    """
    work = 1
    for size in range(m):
        for s in combinations(range(1, n + 1), size):
            lo, hi = (s[-1] + 1 if s else 1), n - (m - size) + 1
            if s and (s[-1] >= hi or len(sumset(s)) > cap):
                continue
            u = 2 * s[-1] - s[0] if s else 1
            if u < hi and len(sumset(s + (u + 1,))) > cap:
                hi = u
            work += max(0, hi - lo + 1)
    return work


def test_count_small_sumset_sets_budgets_visited_nodes():
    # the budget counted only the nodes, the candidates that fit the cap: 8,207 of the 30,851 units here
    expected = sum(1 for s in combinations(range(1, 21), 6) if len(sumset(s)) <= 13)
    assert count_small_sumset_sets(20, 6, 13, budget=40_000) == expected == 245
    for n, m, cap in ((20, 6, 13), (8, 3, 6), (9, 4, 9), (7, 0, 0), (6, 1, 2), (12, 3, 5), (30, 3, 6)):
        work = pruned_search_work(n, m, cap)
        count = count_small_sumset_sets(n, m, cap, budget=work)
        with pytest.raises(BudgetError) as err:
            count_small_sumset_sets(n, m, cap, budget=work - 1)
        assert err.value.estimate >= work and err.value.partial <= count, (n, m, cap)


def test_small_sumset_budget_counts_the_candidates_that_miss_the_cap():
    # only the candidates that fit the cap were counted: (300, 3, 3) returned 0 after testing about 4.5 million
    with pytest.raises(BudgetError) as err:
        count_small_sumset_sets(300, 4, 7, budget=10**5)
    assert err.value.estimate <= 10**5 + 300


def test_small_sumset_search_deeper_than_the_stack_refuses_before_searching():
    # it recursed once per element into a RecursionError; the default budget would allow this query
    with pytest.raises(BudgetError) as err:
        count_small_sumset_sets(3000, 2000, 10**8)
    assert "recursion limit" in str(err.value) and (err.value.estimate, err.value.partial) == (None, None)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        with pytest.raises(BudgetError):
            count_small_sumset_sets(3000, 301, 10**8)
        assert count_small_sumset_sets(3000, 301, 0) == 0  # cap 0 < 2m - 1: no set, no recursion
        assert count_small_sumset_sets(300, 301, 10**8) == 0  # no 301-subset of {1, ..., 300}
    finally:
        sys.setrecursionlimit(limit)


def test_hardy_ramanujan_window():
    # p(k) * 4k sqrt(3) * exp(-pi sqrt(2k/3)) stays inside [0.8, 1.25]
    for k in range(50, 501):
        log_ratio = (
            math.log(p(k)) + math.log(4 * k * math.sqrt(3)) - math.pi * math.sqrt(2 * k / 3)
        )
        assert 0.8 <= math.exp(log_ratio) <= 1.25, k
