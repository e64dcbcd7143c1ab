"""Counting and enumeration of sum-free sets against independent oracles."""

import gc
import json
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from sumfree import (
    BudgetError,
    count_in_window,
    count_oracle,
    count_sum_free,
    enumerate_sum_free,
    is_sum_free,
    statistics_of,
    stratified_counts,
)
from sumfree import enumeration
from sumfree.enumeration import DEFAULT_NODE_BUDGET, _differences, _upper


def test_oracle_examples():
    res = count_oracle(4)
    assert res.total == 9
    assert res.by_size == {0: 1, 1: 4, 2: 4}
    assert count_oracle(3).total == 6
    assert count_oracle(4, 3).total == 0


def test_oracle_rejects_large_universe():
    with pytest.raises(BudgetError):
        count_oracle(25)


def brute_force_profile(elements, allow_equal):
    """Sum-free subsets of `elements` by size: every combination, every pair x + y checked."""
    by_size = Counter()
    for size in range(len(elements) + 1):
        for s in combinations(elements, size):
            members = set(s)
            if not any(x + y in members for x in s for y in s if allow_equal or x != y):
                by_size[size] += 1
    return dict(by_size)


def test_oracle_matches_pure_python_brute_force():
    check_oracle_against_brute_force()


def test_oracle_block_walk_matches_pure_python_brute_force(monkeypatch):
    # at the real block size the high bits are walked only above 14 elements
    monkeypatch.setattr(enumeration, "ORACLE_BLOCK", 1 << 3)
    check_oracle_against_brute_force()


def check_oracle_against_brute_force():
    rng = random.Random(19)
    for n in range(0, 13):
        full = list(range(1, n + 1))
        for universe in (None, [v for v in full if rng.random() < 0.5], []):
            elements = full if universe is None else universe
            for allow_equal in (True, False):
                want = brute_force_profile(elements, allow_equal)
                res = count_oracle(n, universe=universe, allow_equal=allow_equal)
                assert (res.by_size, res.total, res.nodes) == (want, sum(want.values()), 1 << len(elements))
                for m in range(0, len(elements) + 2):
                    res = count_oracle(n, m, universe, allow_equal)
                    assert res.by_size == ({m: want[m]} if m in want else {}), (n, universe, allow_equal, m)
                    assert res.nodes == 1 << len(elements)


def test_oracle_imports_no_numpy():
    # every mask is a Python int: the package needs nothing outside the standard library
    code = "import sys, sumfree.cli; sumfree.count_oracle(20); print('numpy' in sys.modules)"
    env = {"PYTHONPATH": str(Path(enumeration.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def test_search_matches_oracle_small():
    for allow_equal in (True, False):
        for n in range(1, 17):
            a = count_oracle(n, allow_equal=allow_equal)
            b = count_sum_free(n, allow_equal=allow_equal)
            assert a.by_size == b.by_size


def test_search_matches_oracle_restricted_universe():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(4, 26)
        universe = {v for v in range(1, n + 1) if rng.random() < 0.6}
        if not universe or len(universe) > 20:
            continue
        for allow_equal in (True, False):
            a = count_oracle(n, universe=universe, allow_equal=allow_equal)
            b = count_sum_free(n, universe=universe, allow_equal=allow_equal)
            assert a.by_size == b.by_size, (n, sorted(universe), allow_equal)


FROZEN_PROFILES = Path(__file__).resolve().parents[1] / "perfbench" / "frozen_profiles.json"


def test_full_profiles_match_frozen_profiles():
    frozen = json.loads(FROZEN_PROFILES.read_text())
    for n in range(1, 35):
        by_size = {int(m): c for m, c in frozen[str(n)].items()}
        assert count_sum_free(n).by_size == by_size, n


def test_oracle_spanning_several_blocks():
    frozen = json.loads(FROZEN_PROFILES.read_text())
    for n in range(17, 25):
        by_size = {int(m): c for m, c in frozen[str(n)].items()}
        res = count_oracle(n)
        assert (res.by_size, res.nodes) == (by_size, 1 << n), n
        if n == 17:
            for m in range(0, n + 2):
                assert count_oracle(n, m).by_size == ({m: by_size[m]} if m in by_size else {}), m
    universe = random.Random(20).sample(range(1, 31), 18)
    for allow_equal in (True, False):
        a = count_oracle(30, universe=universe, allow_equal=allow_equal)
        b = count_sum_free(30, universe=universe, allow_equal=allow_equal)
        assert (a.by_size, a.nodes) == (b.by_size, 1 << 18), allow_equal


def test_fixed_m_universe_and_window_counts_match_oracle():
    rng = random.Random(18)
    for allow_equal in (True, False):
        for n in range(1, 19):
            profile = count_oracle(n, allow_equal=allow_equal).by_size
            for m in range(0, n + 2):
                assert count_sum_free(n, m, allow_equal=allow_equal).total == profile.get(m, 0), (n, m)
            universe = [v for v in range(1, n + 1) if rng.random() < 0.6]
            profile = count_oracle(n, universe=universe, allow_equal=allow_equal).by_size
            assert count_sum_free(n, universe=universe, allow_equal=allow_equal).by_size == profile
            for m in range(0, len(universe) + 1):
                res = count_sum_free(n, m, universe=universe, allow_equal=allow_equal)
                assert res.total == profile.get(m, 0), (n, universe, m)
            for a in range(0, (n + 1) // 2):
                window = count_oracle(n, universe=range((n + 1) // 2 - a, n + 1), allow_equal=allow_equal).by_size
                for m in range(0, n // 2 + a + 2):
                    assert count_in_window(n, a, m, allow_equal=allow_equal).count == window.get(m, 0), (n, a, m)


def plain_walk_sizes(n, allow_equal):
    """Sizes of all nodes of the descending search tree, one node per sum-free set."""
    sizes = Counter()
    stack = [(frozenset(), n + 1)]
    while stack:
        s, below = stack.pop()
        sizes[len(s)] += 1
        for x in range(1, below):
            # s is sum-free and x is below all of it: only x + x and x + a can land in s
            if not (allow_equal and 2 * x in s) and not any(x + a in s for a in s):
                stack.append((s | {x}, x))
    return sizes


def test_nodes_count_the_tree_nodes_of_a_plain_walk():
    for allow_equal in (True, False):
        for n in range(0, 21):
            sizes = plain_walk_sizes(n, allow_equal)
            assert count_sum_free(n, allow_equal=allow_equal).nodes == sum(sizes.values()), n
            for m in range(0, n + 1):
                nodes = sum(c for size, c in sizes.items() if size <= m)
                assert count_sum_free(n, m, allow_equal=allow_equal).nodes == nodes, (n, m)
                if n <= 12:  # the budget is in the same units, and refuses exactly above them
                    assert count_sum_free(n, m, allow_equal=allow_equal, node_budget=nodes).nodes == nodes
                    with pytest.raises(BudgetError) as err:
                        count_sum_free(n, m, allow_equal=allow_equal, node_budget=nodes - 1)
                    assert err.value.estimate == nodes - 1 and err.value.partial[2] >= nodes


def test_counts_leave_no_garbage_cycles():
    gc.collect()
    gc.disable()
    try:
        assert count_sum_free(24).total == 45417
        assert count_in_window(24, 3, 6, allow_equal=False).count > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_memo_states_are_reported():
    # distinct upper states solved and stored; the oracle solves none
    assert count_sum_free(32).states == 12_877
    assert count_oracle(12).states == 0
    for n, m in ((20, None), (24, 6), (28, None), (28, 9)):
        first, again = count_sum_free(n, m), count_sum_free(n, m)
        assert first.states == again.states > 0, (n, m)
        assert first.states <= first.nodes, (n, m)
    assert count_sum_free(10, universe=[]).states == 0
    # without equal summands 2x = max is upper, so a window from n/2 is one prefix and one binomial row
    assert count_sum_free(20, 6, range(10, 21), allow_equal=False).states == 1
    assert count_sum_free(20, 6, range(10, 21)).states == 2


def test_memo_holds_no_entry_without_a_state(monkeypatch):
    # an allowed set enters the memo only with a stored state, not when its states are closed forms
    memos = []
    prefixes = enumeration._prefixes

    def spy(ubits, wanted, allow_equal, budget, memo, width):
        memos.append(memo)
        return prefixes(ubits, wanted, allow_equal, budget, memo, width)

    monkeypatch.setattr(enumeration, "_prefixes", spy)
    for allow_equal in (True, False):
        for n in range(0, 33):
            for m in (None, n // 3, n // 2):
                res = count_sum_free(n, m, allow_equal=allow_equal)
                tables = [table for _diffs, table in memos.pop().values()]
                assert all(tables) and sum(map(len, tables)) == res.states, (allow_equal, n, m)


def gap_avoiding_sizes(elements, gaps):
    # subsets of `elements` with no two elements a gap apart, by size
    sizes = Counter()
    for size in range(len(elements) + 1):
        for s in combinations(elements, size):
            bits = sum(1 << v for v in s)
            if not any(bits & bits >> g for g in gaps):
                sizes[size] += 1
    return sizes


def test_upper_solver_counts_gap_avoiding_subsets():
    # an upper set (2 min > max) with random gaps, some above its span, on one memo and on a fresh one
    rng = random.Random(13)
    width = 42
    shared = {}
    for _ in range(150):
        lo = rng.randint(2, 39)
        hi = min(40, 2 * lo - 1)
        elements = sorted(rng.sample(range(lo, hi + 1), min(hi - lo + 1, rng.randint(2, 11))))
        gaps = [g for g in range(1, 41) if rng.random() < 0.15]
        sizes = gap_avoiding_sizes(elements, gaps)
        wanted = rng.randint(2, len(elements))
        want = [sizes[j] for j in range(wanted + 1)]
        allowed = sum(1 << v for v in elements)
        for memo in (shared, {}):
            value = _upper(allowed, sum(1 << g for g in gaps), wanted, memo, width)
            got = [value >> width * j & (1 << width) - 1 for j in range(wanted + 1)]
            assert (got, value >> width * (wanted + 1)) == (want, 0), (elements, gaps, wanted)


def test_upper_closes_states_wanting_two():
    # an upper set (2 min > max, or 2 min = max without equal summands) wanting 2 more is closed: nothing is stored
    rng = random.Random(17)
    width = 42
    for strict in (True, False):  # 2 min > max, or 2 min = max (upper without equal summands)
        for _ in range(300):
            lo = rng.randint(2, 39)
            hi = min(40, 2 * lo - strict)
            elements = sorted(rng.sample(range(lo, hi + 1), min(hi - lo + 1, rng.randint(2, 11))))
            gaps = [g for g in range(1, lo) if rng.random() < 0.3]  # chosen below the set, some above its span
            sizes = gap_avoiding_sizes(elements, gaps)
            memo = {}
            value = _upper(sum(1 << v for v in elements), sum(1 << g for g in gaps), 2, memo, width)
            assert value == sizes[0] + (sizes[1] << width) + (sizes[2] << 2 * width), (elements, gaps, strict)
            assert memo == {}


def test_upper_closes_states_with_one_gap():
    # every upper set of span <= 10 under each convention's rule (2 min > max, or 2 min = max without equal
    # summands), each single gap g <= span and every wanted from 3 up: a gap that is a difference is closed as a
    # product of paths and stores nothing; one that is not leaves the stored binomial row
    width = 13
    for span in range(2, 11):
        for inner in range(1 << span - 1):
            shape = 1 | inner << 1 | 1 << span  # the set less its minimum, from 0 to span
            k = shape.bit_count()
            if k < 3:
                continue
            elements = [v for v in range(span + 1) if shape >> v & 1]
            for g in range(1, span + 1):
                sizes = gap_avoiding_sizes(elements, [g])
                closed = bool(shape & shape >> g)
                for lo in (span + 1, span + 3, span):  # 2 min > max at two translates, and 2 min = max
                    allowed = shape << lo
                    for wanted in range(3, k + 1):
                        memo = {}
                        value = _upper(allowed, 1 << g, wanted, memo, width)
                        want = [sizes[j] for j in range(wanted + 1)]
                        got = [value >> width * j & (1 << width) - 1 for j in range(wanted + 1)]
                        assert (got, value >> width * (wanted + 1)) == (want, 0), (elements, g, lo, wanted)
                        assert sum(len(table) for _diffs, table in memo.values()) == (not closed), (elements, g)


def test_window_budgets_refuse_exactly_above_their_nodes():
    # the root of a window, {ceil(n/2) - a, ..., n}, can be a closed form itself: the budget still bounds it
    for allow_equal in (True, False):
        for n in range(1, 17):
            for a in (0, 1):
                lo = (n + 1) // 2 - a
                if lo < 1:
                    continue
                profile = count_oracle(n, universe=range(lo, n + 1), allow_equal=allow_equal).by_size
                for m in range(0, n - lo + 2):
                    nodes = sum(c for size, c in profile.items() if size <= m)
                    window = count_in_window(n, a, m, allow_equal=allow_equal, node_budget=nodes)
                    assert window.count == profile.get(m, 0), (allow_equal, n, a, m)
                    with pytest.raises(BudgetError) as err:
                        count_in_window(n, a, m, allow_equal=allow_equal, node_budget=nodes - 1)
                    assert err.value.estimate == nodes - 1 and err.value.partial[2] >= nodes, (allow_equal, n, a, m)


def test_upper_universes_match_oracle():
    # every universe {lo, ..., n} with 2 lo >= n: the root's children are all upper, and so is the root when
    # 2 lo > n, or 2 lo = n without equal summands
    for allow_equal in (True, False):
        for n in range(1, 23):
            for lo in range(max(1, n // 2), n + 1):
                universe = range(lo, n + 1)
                want = count_oracle(n, universe=universe, allow_equal=allow_equal)
                got = count_sum_free(n, universe=universe, allow_equal=allow_equal)
                assert (got.by_size, got.nodes) == (want.by_size, want.total), (allow_equal, n, lo)


def test_search_depth_stays_within_the_set_size():
    # the recursion follows the chosen elements, not the universe: 3 levels fit under a limit of 400
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        assert count_sum_free(900, 3, node_budget=10**12).total == 120_489_675
    finally:
        sys.setrecursionlimit(limit)


def test_differences_match_pairwise_differences():
    # the memo's key reduction: every subset of {1, ..., 10}
    for bits in range(0, 1 << 11, 2):
        s = [v for v in range(1, 11) if bits >> v & 1]
        assert _differences(bits) == sum(1 << d for d in {b - a for a in s for b in s if a < b}), s


def test_search_fixed_m_agrees_with_profile():
    for n in (10, 13, 18):
        full = count_sum_free(n)
        for m in range(0, n // 2 + 2):
            res = count_sum_free(n, m)
            assert res.total == full.by_size.get(m, 0)


def test_count_examples():
    assert count_sum_free(4, 2).total == 4
    assert count_sum_free(10, 5).total == 3


def test_enumerate_examples_and_order():
    assert [set(s) for s in enumerate_sum_free(4, 2)] == [{1, 3}, {1, 4}, {2, 3}, {3, 4}]
    assert [set(s) for s in enumerate_sum_free(2, 1)] == [{1}, {2}]
    assert list(enumerate_sum_free(4, 3)) == []
    listed = [tuple(s) for s in enumerate_sum_free(12, 3)]
    assert listed == sorted(listed)  # ascending lexicographic
    assert len(listed) == count_sum_free(12, 3).total
    assert all(is_sum_free(s) for s in listed)


def test_enumerate_all_sizes_includes_empty():
    sets = [frozenset(s) for s in enumerate_sum_free(5)]
    assert frozenset() in sets
    assert len(sets) == count_sum_free(5).total
    assert len(set(sets)) == len(sets)


def test_enumerate_matches_sorted_brute_force():
    rng = random.Random(19)
    for allow_equal in (True, False):
        for n in range(0, 15):
            for universe in (range(1, n + 1), [v for v in range(1, n + 1) if rng.random() < 0.6]):
                brute = sorted(
                    s
                    for size in range(len(universe) + 1)
                    for s in combinations(universe, size)
                    if is_sum_free(s, allow_equal)
                )
                listed = [tuple(s) for s in enumerate_sum_free(n, universe=universe, allow_equal=allow_equal)]
                assert listed == brute, (allow_equal, n, list(universe))
                for m in range(0, n + 2):
                    listed = [tuple(s) for s in enumerate_sum_free(n, m, universe, allow_equal)]
                    assert listed == [s for s in brute if len(s) == m], (allow_equal, n, list(universe), m)


def test_enumerate_budget_checked_before_streaming():
    with pytest.raises(BudgetError):
        enumerate_sum_free(30, stream_budget=10)


def test_node_budget_error_carries_partial_progress():
    with pytest.raises(BudgetError) as err:
        count_sum_free(20, node_budget=50)
    assert err.value.partial is not None


def test_node_budget_is_global_across_threads():
    nodes = count_sum_free(20).nodes
    for threads in (1, 2):
        assert count_sum_free(20, threads=threads, node_budget=nodes).nodes == nodes
        with pytest.raises(BudgetError):
            count_sum_free(20, threads=threads, node_budget=nodes - 1)
    with pytest.raises(BudgetError):
        count_sum_free(28, threads=2, node_budget=100_000)


def test_hopeless_counts_refuse_before_searching():
    # the odd elements alone make 2^28 > 2 * 10^8 sum-free sets of {1, ..., 56}
    t0 = time.perf_counter()
    queries = [lambda n=n: count_sum_free(n) for n in (56, 3000)]
    queries += [lambda: stratified_counts(3000, 4), lambda: stratified_counts(56, 28)]
    for query in queries:
        with pytest.raises(BudgetError) as err:
            query()
        assert err.value.estimate == DEFAULT_NODE_BUDGET and err.value.partial[2] > DEFAULT_NODE_BUDGET
    # a search deeper than the interpreter's recursion limit refuses whatever the budget
    with pytest.raises(BudgetError):
        count_sum_free(3000, node_budget=10**1000)
    assert time.perf_counter() - t0 < 2


def test_unreachable_counts_refuse_where_the_lower_bound_passes_the_budget():
    # the up-front check returns at once when 2^|universe| <= budget; it refuses exactly where summing the lower
    # bound sum_{j <= wanted} C(u, j) does, u the larger of the odd and the upper elements, budgets 2^u and
    # 2^|universe| give or take one and negative ones included, and a search deeper than the recursion limit
    # still refuses
    def summed(ubits, wanted, budget):
        half = (ubits.bit_length() + 1) // 2
        u = max(sum(ubits >> x & 1 for x in range(1, 2 * half, 2)), (ubits >> half).bit_count())
        bound = 0
        for j in range(min(u, wanted) + 1):
            bound += comb(u, j)
            if bound > budget:
                break
        return u, bound

    rng = random.Random(23)
    universes = [sum(1 << x for x in range(1, n + 1, step)) for n in range(0, 41) for step in (1, 2)]
    universes += [sum(1 << x for x in range(1, n + 1) if rng.random() < 0.6) for n in rng.choices(range(45), k=120)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        universes += [(1 << 401) - 2, sum(1 << x for x in range(1, 401, 2))]
        for ubits in universes:
            size = ubits.bit_count()
            u = summed(ubits, size, 0)[0]
            for wanted in {0, 1, min(2, size), size // 2, size}:
                for budget in {2**u - 1, 2**u, 2**u + 1, 2**size - 1, 2**size, 2**size + 1, -1, -(2**size)}:
                    bound = summed(ubits, wanted, budget)[1]
                    refused = bound > budget or wanted > 300 - enumeration.STACK_HEADROOM
                    try:
                        enumeration._refuse_unreachable(ubits, wanted, budget)
                    except BudgetError as err:
                        assert refused and err.partial == ({}, None, bound), (ubits, wanted, budget)
                    else:
                        assert not refused, (ubits, wanted, budget)
    finally:
        sys.setrecursionlimit(limit)


def test_budget_error_survives_pickling():
    err = pickle.loads(pickle.dumps(BudgetError("too big", estimate=7, partial=({1: 2}, None, 3))))
    assert (str(err), err.estimate, err.partial) == ("too big", 7, ({1: 2}, None, 3))
    with pytest.raises(BudgetError) as info:
        count_sum_free(28, threads=2, node_budget=1000)
    assert info.value.estimate == 1000 and info.value.partial is not None


def test_window_counts():
    # window {5..10}: only constraint is the pair 5 + 5 = 10
    for m in range(0, 7):
        w = count_in_window(10, 0, m)
        assert w.count == comb(6, m) - (comb(4, m - 2) if m >= 2 else 0)
    assert count_in_window(10, 2, 0).count == 1
    w = count_in_window(10, 2, 4)
    oracle = count_oracle(10, 4, universe=range(3, 11))
    assert w.count == oracle.total == 16
    assert w.probability == Fraction(16, comb(8, 4))
    with pytest.raises(ValueError):
        count_in_window(10, 5, 2)


def test_window_top_half_unconstrained_without_equal_summands():
    for m in range(0, 6):
        w = count_in_window(10, 0, m, allow_equal=False)
        assert w.probability == 1


def oracle_strata(n, m, allow_equal=True):
    joint = Counter()
    odd_joint = Counter()
    for s in combinations(range(1, n + 1), m):
        if not is_sum_free(s, allow_equal):
            continue
        st = statistics_of(s, n)
        joint[(st.ell, st.k)] += 1
        if st.odd_flag:
            odd_joint[(st.ell, st.k)] += 1
    return dict(joint), dict(odd_joint)


def test_stratified_counts_against_subset_oracle():
    queries = [(n, m) for n in range(1, 15) for m in range(0, n + 1)] + [(18, 5), (20, 6)]
    for allow_equal in (True, False):
        for n, m in queries:
            table = stratified_counts(n, m, allow_equal=allow_equal)
            joint, odd_joint = oracle_strata(n, m, allow_equal)
            assert (table.joint, table.odd_joint) == (joint, odd_joint), (allow_equal, n, m)
            assert sum(joint.values()) == table.total == count_sum_free(n, m, allow_equal=allow_equal).total


def test_strata_fit_in_the_budget_of_the_count():
    # strata cover exactly the nodes of the count of the same size: they succeed at its node figure and refuse
    # one below it, or below its sets of size m, with a node figure past the budget
    for allow_equal in (True, False):
        for n in range(0, 15):
            for m in range(0, n + 1):
                count = count_sum_free(n, m, allow_equal=allow_equal)
                table = stratified_counts(n, m, allow_equal=allow_equal, node_budget=count.nodes)
                assert table.total == count.total, (allow_equal, n, m)
                for budget in {count.nodes - 1, count.total - 1}:
                    with pytest.raises(BudgetError) as err:
                        stratified_counts(n, m, allow_equal=allow_equal, node_budget=budget)
                    by_size, joint, nodes = err.value.partial
                    assert err.value.estimate == budget and nodes > budget, (allow_equal, n, m, budget)
                    assert by_size.get(m, 0) == sum(joint.values()) <= count.total, (allow_equal, n, m, budget)
    # an m above n covers nothing and refuses nothing, as for counts
    assert stratified_counts(60, 61).total == count_sum_free(60, 61).total == 0


def test_strata_budget_refuses_with_partial_tallies():
    with pytest.raises(BudgetError) as err:
        stratified_counts(20, 5, node_budget=100)
    by_size, strata, nodes = err.value.partial
    assert isinstance(by_size, dict) and isinstance(strata, dict) and nodes > 100


def test_strata_refuse_past_the_budget_on_a_memo_hit():
    # the refusing prefix's high part was solved for an earlier prefix, so reading it checks no budget
    with pytest.raises(BudgetError) as err:
        stratified_counts(16, 8, node_budget=1658)
    by_size, joint, nodes = err.value.partial
    assert nodes > 1658 and by_size[8] == sum(joint.values()) == 2


def test_stratified_examples():
    table = stratified_counts(10, 5)
    assert table.joint[(0, Fraction(0))] == 1  # exactly {6,...,10}
    table8 = stratified_counts(8, 4)
    # {1,3,5,7} sits in the stratum ell=2, k=(4-1)+(4-3)=4, all odd
    key = (2, Fraction(4))
    assert table8.odd_joint.get(key, 0) >= 1
    st = statistics_of({1, 3, 5, 7}, 8)
    assert (st.ell, st.k, st.odd_flag) == (2, 4, True)


def test_strata_k_support_lower_bound():
    # ell low elements <= n/2 have total deficiency at least 0+1+...+(ell-1)
    # (even n; on odd n each deficiency is at least 1/2, 3/2, ...)
    for n, m in ((12, 4), (13, 4)):
        table = stratified_counts(n, m)
        for (ell, k), c in table.joint.items():
            assert c > 0
            if n % 2 == 0:
                assert k >= ell * (ell - 1) // 2
            else:
                assert k >= Fraction(ell * ell, 2)


def test_structural_lower_bound_binomial_witness():
    for n in range(4, 25):
        res = count_sum_free(n)
        half = (n + 1) // 2
        for m in range(0, half + 1):
            assert res.by_size.get(m, 0) >= comb(half, m)


def test_parallel_matches_serial():
    s2 = count_sum_free(21, 6, threads=3)
    assert s2.total == count_sum_free(21, 6).total


def test_known_total_counts():
    # exact totals for 1 <= n <= 20 under the default convention
    known = [2, 3, 6, 9, 16, 24, 42, 61, 108, 151, 253, 369, 607, 847, 1400,
             1954, 3139, 4398, 6976, 9583]
    for n, expected in enumerate(known, start=1):
        assert count_sum_free(n).total == expected
    # published totals (OEIS A007865) above the frozen profiles
    assert count_sum_free(35).total == 2_630_061
    assert count_sum_free(36).total == 3_540_355


def test_growth_ratio_window_both_parities():
    # count / 2^ceil(n/2) sits inside the frozen window [1, 14] (the even
    # subsequence climbs toward ~13.5; odd n runs lower)
    for n in range(10, 29):
        ratio = count_sum_free(n).total / 2 ** ((n + 1) // 2)
        assert 1 <= ratio <= 14, (n, ratio)
