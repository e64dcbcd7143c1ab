"""Core predicate, hypergraph, statistics and family tests.

Oracles here are deliberately naive: explicit triple loops and edge
recounts, independent of the bitmap implementations they check.
"""

import random
from fractions import Fraction

import pytest

from sumfree import (
    IntSet,
    extremal_family,
    is_sum_free,
    odd_numbers,
    schur_edges,
    stability_profile,
    statistics_of,
)


def oracle_sum_free(s, allow_equal):
    s = set(s)
    for x in s:
        for y in s:
            if x == y and not allow_equal:
                continue
            if x + y in s:
                return False
    return True


def test_sum_free_examples():
    assert is_sum_free({1, 3, 5, 7})
    assert is_sum_free(set())
    assert not is_sum_free({1, 2})  # 1 + 1 = 2 under the default convention
    assert is_sum_free({1, 2}, allow_equal=False)
    assert is_sum_free(range(6, 11))


def test_sum_free_matches_triple_loop_exhaustively():
    for n in range(0, 17):
        for mask in range(1 << n):
            s = {v + 1 for v in range(n) if (mask >> v) & 1}
            for allow_equal in (True, False):
                assert is_sum_free(s, allow_equal) == oracle_sum_free(s, allow_equal), (s, allow_equal)


def test_schur_edges_examples():
    assert list(schur_edges(4)) == [(1, 2, 3), (1, 3, 4)]
    assert list(schur_edges(2)) == []
    assert len(list(schur_edges(6))) == 6


def test_schur_edges_against_pair_loop():
    for n in range(1, 61):
        expected = {(x, y, x + y) for x in range(1, n) for y in range(x + 1, n) if x + y <= n}
        got = list(schur_edges(n))
        assert len(got) == len(set(got))  # each edge exactly once
        assert set(got) == expected


def test_schur_edge_count_closed_form():
    for n in list(range(1, 201)) + [251, 333, 400, 500]:
        assert sum(1 for _ in schur_edges(n)) == (n - 1) ** 2 // 4


def test_edges_have_distinct_members():
    for x, y, z in schur_edges(50):
        assert x < y < z == x + y


def test_statistics_examples():
    st = statistics_of({1, 3, 5, 7}, 8)
    assert (st.m, st.ell, st.k, st.odd_flag) == (4, 2, 4, True)
    st = statistics_of(range(6, 11), 10)
    assert (st.ell, st.k, st.odd_flag) == (0, 0, False)
    st = statistics_of({4, 9, 10}, 10)
    assert (st.ell, st.k) == (1, 1)


def test_statistics_odd_n_half_integer_grid():
    st = statistics_of({1, 4, 9}, 9)
    # lows are 1 and 4: k = (9/2 - 1) + (9/2 - 4) = 4
    assert st.ell == 2
    assert st.k == 4
    st2 = statistics_of({3}, 7)
    assert st2.k == Fraction(1, 2)


def test_statistics_k_zero_iff_low_part_in_half():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 30)
        s = {v for v in range(1, n + 1) if rng.random() < 0.3}
        st = statistics_of(s, n)
        low = {v for v in s if 2 * v <= n}
        assert st.k >= 0
        assert (st.k == 0) == (low <= {Fraction(n, 2)})


def test_statistics_k_zero_with_half_element():
    # for even n the element n/2 itself contributes zero deficiency
    st = statistics_of({5, 7}, 10)
    assert st.ell == 1 and st.k == 0


def test_statistics_invariant_under_adding_high_elements():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 40)
        low = {v for v in range(1, n // 2 + 1) if rng.random() < 0.4}
        high = {v for v in range(n // 2 + 1, n + 1) if rng.random() < 0.4}
        a = statistics_of(low, n)
        b = statistics_of(low | high, n)
        assert (a.ell, a.k) == (b.ell, b.k)


def test_extremal_family_shape():
    for n in (1, 2, 3, 4, 9, 10, 25, 100):
        fam = extremal_family(n)
        half = (n + 1) // 2
        assert all(len(b) == half for b in fam)
        assert odd_numbers(n) in fam
        assert IntSet.interval(n, n - half + 1, n) in fam
        if n >= 3:
            assert len(fam) == n // 2 + 2


def test_extremal_family_sum_free_members():
    # The odds and the one or two top intervals are sum-free; intervals
    # starting low contain triples (1 + 2 = 3 already sits in {1..half}),
    # so the family as a whole is NOT a family of sum-free sets.
    for n in range(1, 1001):
        half = (n + 1) // 2
        assert is_sum_free(odd_numbers(n))
        assert is_sum_free(IntSet.interval(n, n - half + 1, n))
    for n in (6, 10, 11, 40):
        fam = extremal_family(n)
        lowest = fam[0]
        assert min(lowest) == 1
        assert not is_sum_free(lowest)


def test_stability_profile_examples():
    prof = stability_profile(odd_numbers(10), 10)
    assert (prof.schur_triples, prof.min_escape) == (0, 0)
    prof = stability_profile(range(1, 11), 10)
    assert prof.schur_triples == (10 - 1) ** 2 // 4
    assert prof.min_escape == 10 - 5
    prof = stability_profile(range(6, 11), 10)
    assert (prof.schur_triples, prof.min_escape) == (0, 0)


def test_stability_profile_against_its_definition():
    # the profile counts triples by shifted ANDs and escapes by window popcounts; here it is
    # checked against every Schur edge and every member of the extremal family, for odd and even n
    rng = random.Random(29)
    for n in range(1, 71):
        edges = list(schur_edges(n))
        family = extremal_family(n)
        sets = [set(), set(range(1, n + 1)), set(odd_numbers(n))]
        sets += [{v for v in range(1, n + 1) if rng.random() < p} for p in (0.2, 0.5, 0.8)]
        for s in sets:
            prof = stability_profile(s, n)
            assert prof.schur_triples == sum(1 for e in edges if set(e) <= s), (n, s)
            assert prof.min_escape == min(len(s - set(b)) for b in family), (n, s)


def test_statistics_against_a_direct_sum_on_odd_n():
    # on odd n, k is a half-integer
    rng = random.Random(31)
    for _ in range(400):
        n = 2 * rng.randint(0, 40) + 1
        s = {v for v in range(1, n + 1) if rng.random() < rng.random()}
        low = [a for a in s if 2 * a <= n]
        st = statistics_of(s, n)
        assert (st.m, st.ell) == (len(s), len(low))
        assert st.k == sum(Fraction(n, 2) - a for a in low)
        assert st.odd_flag == all(a % 2 for a in s)


def test_sum_free_against_the_triple_loop_on_wide_sets():
    rng = random.Random(37)
    for _ in range(2000):
        top = rng.randint(1, 120)
        s = set(rng.sample(range(1, top + 1), rng.randint(0, min(top, 10))))
        if s and rng.random() < 0.3:
            s.add(2 * rng.choice(sorted(s)))  # x and 2x: a violation only when x + x counts
        for allow_equal in (True, False):
            assert is_sum_free(s, allow_equal) == oracle_sum_free(s, allow_equal), (s, allow_equal)


def test_intset_basics():
    s = IntSet(10, [3, 1, 7])
    assert list(s) == [1, 3, 7]  # ascending iteration
    assert len(s) == 3
    assert 3 in s and 2 not in s
    assert min(s) == 1 and max(s) == 7
    with pytest.raises(ValueError):
        IntSet(5, [6])
    with pytest.raises(ValueError):
        IntSet(5, [0])


def test_intset_equality_keeps_the_hash_contract():
    # an IntSet once compared equal to the frozenset of its values while hashing apart from it
    assert IntSet(5, [1]) != frozenset({1}) and IntSet(5, [1]) != {1}
    assert len({IntSet(5, [1]), frozenset({1})}) == 2
    a, b = IntSet(5, [1, 4]), IntSet(9, [4, 1])
    assert a == b and hash(a) == hash(b)
    assert not IntSet(5) and IntSet(5, [2])  # truthiness from __len__
