"""Partition counting: closed recurrences against direct enumeration."""

import math
import sys
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


def test_p_star_against_enumeration():
    for k in range(0, 41):
        by_len = Counter(len(q) for q in enum_distinct(k, k))
        for ell in range(0, 10):
            assert p_star(k, ell) == by_len.get(ell, 0)


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


def test_budget_error_reports_estimate():
    with pytest.raises(BudgetError) as err:
        count_restricted(200, 10, sumset_cap=30, budget=100)
    assert err.value.estimate == p_star(200, 10)
    with pytest.raises(BudgetError):
        count_small_sumset_sets(60, 20, 100, budget=1000)


def test_restricted_counts_take_a_budget_above_the_default():
    # the candidate count p*(k, 1) takes k table cells, past the default budget of 10^7
    assert count_restricted(10**7 + 1, 1, sumset_cap=1, budget=2 * 10**7) == 1


def test_sumset_size_profile_consistency():
    profile = sumset_size_profile(12, 3)
    assert sum(profile.values()) == 7
    assert profile[5] == 3
    assert sumset_size_profile(0, 0) == {0: 1}


def test_count_small_sumset_sets_examples():
    assert count_small_sumset_sets(6, 2, 3) == 15  # every pair has |S+S| = 3
    assert count_small_sumset_sets(4, 3, 5) == 2  # {1,2,3} and {2,3,4}
    assert count_small_sumset_sets(4, 3, 4) == 0  # |S+S| >= 2m - 1 = 5


def test_count_small_sumset_sets_against_combinations():
    for n, m, cap in ((8, 3, 6), (9, 4, 9), (10, 2, 3), (7, 5, 30)):
        expected = sum(
            1 for s in combinations(range(1, n + 1), m) if len(sumset(s)) <= cap
        )
        assert count_small_sumset_sets(n, m, cap) == expected


def pruned_tree_nodes(n, m, cap):
    """Sets S with |S+S| <= cap and room for m - |S| larger elements in {1..n}, the empty set included."""
    return sum(
        1
        for size in range(m + 1)
        for s in combinations(range(1, n + 1), size)
        if not s or (s[-1] <= n - (m - size) and len(sumset(s)) <= cap)
    )


def test_count_small_sumset_sets_budgets_visited_nodes():
    # C(20, 6) = 38,760 candidates, but the pruned search visits 8,207 nodes
    expected = sum(1 for s in combinations(range(1, 21), 6) if len(sumset(s)) <= 13)
    assert count_small_sumset_sets(20, 6, 13, budget=10_000) == expected == 245
    for n, m, cap in ((20, 6, 13), (8, 3, 6), (9, 4, 9), (7, 0, 0), (6, 1, 2)):
        nodes = pruned_tree_nodes(n, m, cap)
        count = count_small_sumset_sets(n, m, cap, budget=nodes)
        with pytest.raises(BudgetError) as err:
            count_small_sumset_sets(n, m, cap, budget=nodes - 1)
        found, visited = err.value.partial
        assert err.value.estimate == nodes - 1 and visited >= nodes and found <= count, (n, m, cap)


def test_small_sumset_search_deeper_than_the_stack_refuses_before_searching():
    # it recursed once per element into a RecursionError; the default budget would allow this query
    with pytest.raises(BudgetError) as err:
        count_small_sumset_sets(3000, 2000, 10**8)
    assert "recursion limit" in str(err.value) and err.value.partial == (0, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        with pytest.raises(BudgetError):
            count_small_sumset_sets(3000, 301, 0)
        assert count_small_sumset_sets(3000, 300, 0) == 0  # cap 0: no element fits, no recursion
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
