"""Sumset algebra: A+B, span, doubling, translate sets, progression covers.

The sumset A+B = {a + b} is computed by OR-ing shifted bitmaps, so it costs
|A| big-integer shifts.  Always |A+B| >= |A| + |B| - 1, with equality
exactly for arithmetic progressions with a common difference, and the span
identity span(S+S) = 2 span(S) holds for every nonempty S.

Two structural tools build on this.  b_set(S, delta) collects the integer
translates y whose shifted copy S + y escapes S + S in at most delta*|S|
elements; a pair-counting argument bounds its size by |S+S| / (1 - delta).
It tests every y of its window at once: each a in S gives one shift of S+S
that marks the y with a + y in S+S, and bit-sliced counters (bit j of
every y's count in one int) add up the |S| marks.
freiman_cover(S) returns the shortest arithmetic progression containing S
whenever the doubling is small (|S+S| <= 3|S| - 4); in that regime the
cover provably has at most |S+S| - |S| + 1 terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .intset import IntSet, coerce_bits, iter_bits


def sumset(a_values, b_values=None) -> IntSet:
    """The sumset {a + b : a in A, b in B}; B defaults to A."""
    a_bits = coerce_bits(a_values)
    b_bits = a_bits if b_values is None else coerce_bits(b_values)
    if not a_bits or not b_bits:
        raise ValueError("sumset of an empty set is undefined")
    out = sumsetbits(a_bits, b_bits)
    return IntSet.from_bits(out.bit_length() - 1, out)


def span(values) -> int:
    """max(S) - min(S); raises on the empty set."""
    bits = coerce_bits(values)
    if not bits:
        raise ValueError("undefined span: empty set")
    return bits.bit_length() - (bits & -bits).bit_length()


def doubling(values) -> Fraction:
    """|S+S| / |S| as an exact fraction."""
    bits = coerce_bits(values)
    if not bits:
        raise ValueError("doubling of an empty set is undefined")
    return Fraction(sumsetbits(bits).bit_count(), bits.bit_count())


def sumsetbits(bits: int, other: Optional[int] = None) -> int:
    """Bitmap of S+T from the bitmaps of S and T, T = S by default (0 when either is empty)."""
    shifted = bits if other is None else other
    out = 0
    rest = bits
    while rest:
        low = rest & -rest
        out |= shifted * low  # T shifted up by the value of the lowest element of S left
        rest ^= low
    return out


def b_set(values, delta) -> tuple[int, ...]:
    """Integers y with |(S + y) \\ (S + S)| <= delta * |S|, ascending.

    Only y in [min(S+S) - max(S), max(S+S) - min(S)] can qualify: outside
    that window every element of S + y escapes, and |S| > delta*|S| for
    delta < 1.  The result may include y <= 0, so it is returned as a plain
    tuple of integers rather than a positive-universe set.
    """
    if not isinstance(delta, Fraction):
        delta = Fraction(delta)
    if not (0 <= delta < 1):
        raise ValueError("delta must lie in [0, 1)")
    bits = coerce_bits(values)
    if not bits:
        raise ValueError("b_set of an empty set is undefined")
    size = bits.bit_count()
    ss = sumsetbits(bits)
    lo = ((ss & -ss).bit_length() - 1) - (bits.bit_length() - 1)
    hi = (ss.bit_length() - 1) - ((bits & -bits).bit_length() - 1)
    # bit i of window >> a is set when a + lo + i lies in S+S; a translate
    # falling to <= 0 reads a bit shifted in as 0, so it escapes too
    window = ss >> lo if lo >= 0 else ss << -lo
    planes: list[int] = []  # bit-sliced hit counts: bit i of planes[j] is bit j of y = lo + i's count
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        carry = window >> (low.bit_length() - 1)
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    # escapes <= delta |S| exactly when the hits reach need = |S| - floor(delta |S|);
    # compare each count with need from the top bit down
    need = size - delta.numerator * size // delta.denominator
    more = 0  # the y whose count already passes need on the bits compared
    equal = (1 << (hi - lo + 1)) - 1 if need < 1 << len(planes) else 0  # the y equal to need on them so far
    for j in reversed(range(len(planes))):
        if need >> j & 1:
            equal &= planes[j]
        else:
            more |= equal & planes[j]
            equal &= ~planes[j]
    kept = more | equal
    out = []
    while kept:
        low = kept & -kept
        out.append(low.bit_length() - 1 + lo)
        kept ^= low
    return tuple(out)


@dataclass(frozen=True)
class APCover:
    """Arithmetic progression {first, first + difference, ...} of `length` terms."""

    first: int
    difference: int
    length: int

    def members(self) -> tuple[int, ...]:
        return tuple(self.first + i * self.difference for i in range(self.length))

    def contains(self, values) -> bool:
        last = self.first + (self.length - 1) * self.difference
        return all(
            self.first <= v <= last and (v - self.first) % self.difference == 0
            for v in iter_bits(coerce_bits(values))
        )


def freiman_cover(values):
    """Shortest progression containing S when |S+S| <= 3|S| - 4, else None.

    The cover uses difference g = gcd of the consecutive differences of S
    and first term min(S); any progression containing S must refine it, so
    this one has minimal length span(S)/g + 1.  In the small-doubling
    regime that length never exceeds |S+S| - |S| + 1.
    """
    bits = coerce_bits(values)
    size = bits.bit_count()
    if size < 3:
        raise ValueError("too small for the small-doubling regime (need |S| >= 3)")
    if sumsetbits(bits).bit_count() > 3 * size - 4:
        return None
    first = (bits & -bits).bit_length() - 1
    rest = bits >> first ^ 1  # bit d is set when first + d is in S, d > 0
    g = 0
    while rest and g != 1:
        low = rest & -rest
        g = gcd(g, low.bit_length() - 1)
        rest ^= low
    return APCover(first=first, difference=g, length=(bits.bit_length() - 1 - first) // g + 1)
