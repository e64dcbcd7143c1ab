"""Sumset algebra, translate sets, and progression covers."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from sumfree import b_set, doubling, freiman_cover, span, sumset


def naive_sumset(a, b=None):
    b = a if b is None else b
    return {x + y for x in a for y in b}


def test_sumset_examples():
    assert set(sumset({1, 2, 3})) == {2, 3, 4, 5, 6}
    assert len(sumset({1, 2, 3})) == 2 * 3 - 1  # arithmetic progression
    assert set(sumset({5}, {7})) == {12}
    assert set(sumset({1, 2, 4})) == {2, 3, 4, 5, 6, 8}
    with pytest.raises(ValueError):
        sumset(set())


def test_sumset_matches_naive_and_lower_bound():
    rng = random.Random(2)
    for _ in range(2000):
        a = set(rng.sample(range(1, 80), rng.randint(1, 10)))
        b = set(rng.sample(range(1, 80), rng.randint(1, 10)))
        ss = sumset(a, b)
        assert set(ss) == naive_sumset(a, b)
        assert len(ss) >= len(a) + len(b) - 1


def test_sumset_equality_iff_common_difference_progressions():
    assert len(sumset(range(3, 20, 4))) == 2 * len(range(3, 20, 4)) - 1
    assert len(sumset({1, 2, 4})) > 2 * 3 - 1


def test_span_examples():
    assert span({1, 4}) == 3
    assert span(sumset({1, 4})) == 6
    assert span({7}) == 0
    with pytest.raises(ValueError):
        span(set())


def test_span_identity_random():
    rng = random.Random(3)
    for _ in range(2000):
        s = set(rng.sample(range(1, 150), rng.randint(1, 12)))
        assert span(sumset(s)) == 2 * span(s)


def test_doubling_examples():
    assert doubling(range(1, 11)) == Fraction(19, 10)
    assert doubling({7}) == 1
    assert doubling({1, 2, 4, 8, 16}) == 3  # |S+S| = 15 over 5 elements


def naive_b_set(s, delta):
    s = set(s)
    ss = naive_sumset(s)
    lo = min(ss) - max(s)
    hi = max(ss) - min(s)
    allowed = Fraction(delta) * len(s)
    return tuple(
        y for y in range(lo, hi + 1) if len({x + y for x in s} - ss) <= allowed
    )


def test_b_set_examples():
    assert b_set({1, 2, 3}, 0) == (1, 2, 3)
    assert b_set({5}, 0) == (5,)
    bs = b_set({1, 2, 4, 8}, Fraction(1, 4))
    assert len(bs) <= Fraction(len(sumset({1, 2, 4, 8})), 1) / (1 - Fraction(1, 4))


def test_b_set_zero_delta_is_exact_translate_set():
    rng = random.Random(4)
    for _ in range(300):
        s = set(rng.sample(range(1, 40), rng.randint(1, 8)))
        ss = set(sumset(s))
        expected = tuple(
            y
            for y in range(min(ss) - max(s), max(ss) - min(s) + 1)
            if {x + y for x in s} <= ss
        )
        assert b_set(s, 0) == expected


def test_b_set_matches_naive_for_positive_delta():
    rng = random.Random(9)
    for _ in range(300):
        s = set(rng.sample(range(1, 50), rng.randint(1, 9)))
        d = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2)))
        assert b_set(s, d) == naive_b_set(s, d)


def test_b_set_with_nonpositive_translates_against_naive():
    # with 1 and 2 in S the window starts at min(S+S) - max(S) <= 0, so translates reach y <= 0,
    # where some of S + y falls to <= 0 and counts as escaping
    rng = random.Random(29)
    for _ in range(400):
        s = {1, 2} | set(rng.sample(range(3, 60), rng.randint(0, 10)))
        for d in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            assert b_set(s, d) == naive_b_set(s, d), (sorted(s), d)
    assert b_set({1, 2, 4, 8}, Fraction(1, 4)) == (0, 1, 2, 4, 8)


def naive_freiman_cover(s):
    s = sorted(s)
    if len(naive_sumset(set(s))) > 3 * len(s) - 4:
        return None
    g = 0
    for x, y in zip(s, s[1:]):
        g = gcd(g, y - x)
    return (s[0], g, (s[-1] - s[0]) // g + 1)


def test_freiman_cover_against_naive():
    rng = random.Random(31)
    for _ in range(3000):
        step = rng.choice((1, 1, 2, 3, 5))
        s = {step * v for v in rng.sample(range(1, 40), rng.randint(3, 12))}
        cover = freiman_cover(s)
        got = None if cover is None else (cover.first, cover.difference, cover.length)
        assert got == naive_freiman_cover(s), sorted(s)


def test_b_set_rejects_bad_delta():
    with pytest.raises(ValueError):
        b_set({1, 2}, 1)
    with pytest.raises(ValueError):
        b_set(set(), 0)


def test_freiman_examples():
    cover = freiman_cover({1, 2, 3, 5})  # |S+S| = 8 = 3*4 - 4
    assert cover is not None
    assert cover.contains({1, 2, 3, 5})
    assert cover.length <= 8 - 4 + 1
    cover = freiman_cover({3, 5, 7, 9})
    assert (cover.first, cover.difference, cover.length) == (3, 2, 4)
    assert freiman_cover({1, 2, 3, 10}) is None  # |S+S| = 9 > 8
    with pytest.raises(ValueError):
        freiman_cover({1, 2})


def test_freiman_cover_is_minimal_progression():
    rng = random.Random(6)
    for _ in range(500):
        first = rng.randint(1, 20)
        diff = rng.randint(1, 6)
        length = rng.randint(3, 9)
        full = [first + i * diff for i in range(length)]
        s = sorted(rng.sample(full, max(3, length - 1)))
        cover = freiman_cover(s)
        if cover is None:
            continue
        assert cover.contains(s)
        assert cover.first == min(s)
        g = 0
        for x, y in zip(s, s[1:]):
            g = gcd(g, y - x)
        assert cover.difference == g
        assert cover.length == (max(s) - min(s)) // g + 1


def test_freiman_small_exhaustive_slice():
    # every 3-element normalized small-doubling set up to 25 gets a valid cover
    for rest in combinations(range(2, 26), 2):
        s = (1,) + rest
        ss = naive_sumset(set(s))
        if len(ss) > 3 * 3 - 4:
            assert freiman_cover(s) is None
            continue
        cover = freiman_cover(s)
        assert cover is not None and cover.contains(s)
        assert cover.length <= len(ss) - 3 + 1
