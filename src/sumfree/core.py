"""Sum-free predicate, Schur-triple hypergraph, and low-part statistics.

A set is sum-free when it contains no solution of x + y = z.  Two
conventions exist for x = y: by default x + x = z counts as a violation
(so {1, 2} is not sum-free because 1 + 1 = 2); pass allow_equal=False to
require x != y.  The triple hypergraph on {1, ..., n} always uses three
distinct elements: its edges are {x, y, z} with x < y < z = x + y <= n,
and no pair of vertices lies in more than two edges.

For a set I inside {1, ..., n} the low part is S(I) = {x in I : x <= n/2};
the statistics record carries its size, its total deficiency
sum over a in S(I) of (n/2 - a), and whether I consists of odd numbers
only.  On odd n the deficiency lives on the half-integer grid, so it is
kept as an exact fraction.

The extremal family for the sum-free counting problem consists of every
interval {a+1, ..., a+ceil(n/2)} with 0 <= a <= floor(n/2), together with
the odd numbers.  Apart from the odd numbers and the one or two highest
intervals, members of the family are not themselves sum-free; they are
reference sets that near-maximal nearly-sum-free sets cluster around.

Every kernel works on the bitmap of the set (bit v = value v).  The
stability profile counts the triples inside A as, for each x in A, the
popcount of (A above x) & (A >> x), and the escape from the family as |A|
less the most of A that one member holds: the popcount of A & odds, or of
the window (A >> a+1) & (2^ceil(n/2) - 1) at its best a.  schur_edges and
extremal_family list the edges and members themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .intset import IntSet, coerce_bits

#: Default convention: x + x = z counts as a violation.
ALLOW_EQUAL_DEFAULT = True


def is_sum_free(values, allow_equal: bool = ALLOW_EQUAL_DEFAULT) -> bool:
    """True when the set has no solution of x + y = z among its elements.

    With allow_equal (the default) the summands may coincide, so a set
    containing both x and 2x fails.  With allow_equal=False only solutions
    with x != y count.
    """
    bits = coerce_bits(values)
    rest = bits
    while rest:
        low = rest & -rest  # x = low.bit_length() - 1; bits * low is S + x
        hits = bits * low & bits
        if hits and (allow_equal or hits != low * low):  # low * low is the bit of 2x
            return False
        rest ^= low
    return True


def schur_edges(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield each triple x < y < z = x + y <= n exactly once.

    These are the edges of the triple hypergraph on {1, ..., n}; there are
    floor((n-1)^2 / 4) of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for x in range(1, n // 2 + 1):
        for y in range(x + 1, n - x + 1):
            yield (x, y, x + y)


@dataclass(frozen=True)
class Statistics:
    """Per-set record of the low-part statistics of I inside {1, ..., n}.

    m         -- |I|
    ell       -- |S(I)| where S(I) = {x in I : x <= n/2}
    k         -- sum over a in S(I) of (n/2 - a), exact (half-integers on odd n)
    odd_flag  -- True when every element of I is odd
    """

    m: int
    ell: int
    k: Fraction
    odd_flag: bool


def statistics_of(values, n: int) -> Statistics:
    """Compute the Statistics record of a set inside {1, ..., n}."""
    bits = coerce_bits(values)
    if bits.bit_length() - 1 > n:
        raise ValueError("set not contained in {1, ..., n}")
    low = bits & ((1 << (n // 2 + 1)) - 1)  # values <= n/2, i.e. 2v <= n
    ell = low.bit_count()
    twice_k = ell * (n + 2)  # 2k = ell n - 2 sum(v); the loop below takes off 2 (v + 1) per v
    while low:
        b = low & -low
        twice_k -= 2 * b.bit_length()
        low ^= b
    odd_flag = not bits & _even_mask(bits.bit_length())
    return Statistics(bits.bit_count(), ell, _half(twice_k), odd_flag)


def _half(t: int) -> Fraction:
    """t / 2 as a Fraction, skipping the gcd when t is even."""
    return Fraction(t >> 1) if t & 1 == 0 else Fraction(t, 2)


def _even_mask(length: int) -> int:
    """Bitmap of the even numbers 0, 2, 4, ... below 2 * ceil(length / 2) (0b0101...01)."""
    return ((1 << (length + (length & 1))) - 1) // 3


def odd_numbers(n: int) -> IntSet:
    """The odd numbers in {1, ..., n}."""
    return IntSet(n, range(1, n + 1, 2))


def extremal_family(n: int) -> tuple[IntSet, ...]:
    """The intervals {a+1, ..., a+ceil(n/2)} for 0 <= a <= floor(n/2), plus the odds.

    Duplicates (possible only for n <= 2) are removed; every member has
    exactly ceil(n/2) elements.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    half = (n + 1) // 2
    members = [IntSet.interval(n, a + 1, a + half) for a in range(n // 2 + 1)]
    odds = odd_numbers(n)
    if odds not in members:
        members.append(odds)
    return tuple(members)


@dataclass(frozen=True)
class StabilityProfile:
    """Triple count inside a set and its distance to the extremal family.

    schur_triples -- number of edges {x, y, z}, x + y = z, with all three in A
    min_escape    -- min over family members B of |A \\ B|
    """

    schur_triples: int
    min_escape: int


def stability_profile(values, n: int) -> StabilityProfile:
    """Count distinct-element triples inside A and its escape from the family."""
    bits = coerce_bits(values)
    if bits.bit_length() - 1 > n:
        raise ValueError("set not contained in {1, ..., n}")
    if n < 1:
        raise ValueError("n must be >= 1")
    triples = 0
    rest = bits
    while rest:  # for each x in A: the y > x in A with x + y in A
        low = rest & -rest
        rest ^= low
        triples += (rest & (bits >> (low.bit_length() - 1))).bit_count()
    # |A \ B| = |A| - |A & B|: the nearest member holds the most of A
    best = (bits & (_even_mask(n + 1) << 1)).bit_count()
    window = (1 << ((n + 1) // 2)) - 1
    rest = bits >> 1
    for _ in range(n // 2 + 1):  # interval {a+1, ..., a+ceil(n/2)} is window << (a+1)
        held = (rest & window).bit_count()
        if held > best:
            best = held
        rest >>= 1
    return StabilityProfile(triples, bits.bit_count() - best)
