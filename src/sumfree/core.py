"""Sum-free predicate, Schur-triple hypergraph, and low-part statistics.

A set is sum-free when it contains no solution of x + y = z.  Two
conventions exist for x = y: by default x + x = z counts as a violation
(so {1, 2} is not sum-free because 1 + 1 = 2); pass allow_equal=False to
require x != y.  The triple hypergraph on {1, ..., n} always uses three
distinct elements: its edges are {x, y, z} with x < y < z = x + y <= n,
and no pair of vertices lies in more than two edges.

For a set I inside {1, ..., n} the low part is S(I) = {x in I : x <= n/2};
the statistics record carries its size, its total deficiency
sum over a in S(I) of (n/2 - a), the deficiency of its minimum, and
whether I consists of odd numbers only.  On odd n these quantities live on
the half-integer grid, so they are kept as exact fractions.

The extremal family for the sum-free counting problem consists of every
interval {a+1, ..., a+ceil(n/2)} with 0 <= a <= floor(n/2), together with
the odd numbers.  Apart from the odd numbers and the one or two highest
intervals, members of the family are not themselves sum-free; they are
reference sets that near-maximal nearly-sum-free sets cluster around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .intset import IntSet, coerce_bits, iter_bits

#: Default convention: x + x = z counts as a violation.
ALLOW_EQUAL_DEFAULT = True


def is_sum_free(values, allow_equal: bool = ALLOW_EQUAL_DEFAULT) -> bool:
    """True when the set has no solution of x + y = z among its elements.

    With allow_equal (the default) the summands may coincide, so a set
    containing both x and 2x fails.  With allow_equal=False only solutions
    with x != y count.
    """
    bits = coerce_bits(values)
    for x in iter_bits(bits):
        hits = (bits << x) & bits
        if not allow_equal:
            hits &= ~(1 << (2 * x))
        if hits:
            return False
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
    a_stat    -- n/2 - min(S(I)), or None when S(I) is empty
    odd_flag  -- True when every element of I is odd
    """

    m: int
    ell: int
    k: Fraction
    a_stat: Optional[Fraction]
    odd_flag: bool


def statistics_of(values, n: int) -> Statistics:
    """Compute the Statistics record of a set inside {1, ..., n}."""
    bits = coerce_bits(values)
    if bits.bit_length() - 1 > n:
        raise ValueError("set not contained in {1, ..., n}")
    m = bits.bit_count()
    low = bits & ((1 << (n // 2 + 1)) - 1)  # values <= n/2, i.e. 2v <= n
    ell = low.bit_count()
    twice_k = ell * n - 2 * sum(iter_bits(low))
    a_stat = None
    if low:
        a_stat = Fraction(n - 2 * ((low & -low).bit_length() - 1), 2)
    odd_flag = all(v & 1 for v in iter_bits(bits))
    return Statistics(m=m, ell=ell, k=Fraction(twice_k, 2), a_stat=a_stat, odd_flag=odd_flag)


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
    triples = 0
    for x, y, z in schur_edges(n):
        if (bits >> x) & (bits >> y) & (bits >> z) & 1:
            triples += 1
    escape = min((bits & ~b.bits).bit_count() for b in extremal_family(n))
    return StabilityProfile(schur_triples=triples, min_escape=escape)
