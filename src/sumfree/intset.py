"""Immutable set of positive integers backed by a bitmap.

Values live in {1, ..., universe_bound}.  The bitmap is a Python int with
bit v representing the value v (bit 0 is never set), so shifting the bitmap
left by x yields the translate S + x.  That encoding makes sumsets and
forbidden-element bookkeeping one-liners elsewhere in the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits_of(values: Iterable[int]) -> int:
    """Pack positive integers into a bitmap (bit v = value v)."""
    bits = 0
    for v in values:
        if v < 1:
            raise ValueError(f"values must be positive integers, got {v}")
        bits |= 1 << v
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set values in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class IntSet:
    """Finite set of integers from {1, ..., universe_bound}.

    Iteration is ascending; membership and cardinality are O(1)-ish bitmap
    operations.  Instances are immutable and hashable.
    """

    __slots__ = ("universe_bound", "_bits")

    def __init__(self, universe_bound: int, values: Iterable[int] = ()):
        if universe_bound < 1:
            raise ValueError("universe_bound must be >= 1")
        bits = bits_of(values)
        if bits.bit_length() - 1 > universe_bound:
            raise ValueError(
                f"value {bits.bit_length() - 1} exceeds universe bound {universe_bound}"
            )
        self.universe_bound = universe_bound
        self._bits = bits

    @classmethod
    def from_bits(cls, universe_bound: int, bits: int) -> "IntSet":
        s = cls.__new__(cls)
        s.universe_bound = universe_bound
        s._bits = bits
        if bits & 1:
            raise ValueError("bit 0 must not be set (values start at 1)")
        if bits.bit_length() - 1 > universe_bound:
            raise ValueError("bits exceed universe bound")
        return s

    @classmethod
    def interval(cls, universe_bound: int, lo: int, hi: int) -> "IntSet":
        """The interval {lo, ..., hi} as an IntSet."""
        if lo < 1 or hi > universe_bound:
            raise ValueError("interval outside universe")
        bits = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1) if hi >= lo else 0
        return cls.from_bits(universe_bound, bits)

    @property
    def bits(self) -> int:
        return self._bits

    def __contains__(self, v: int) -> bool:
        return 0 < v and (self._bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._bits)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSet):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"IntSet({self.universe_bound}, {{{', '.join(map(str, self))}}})"


def coerce_bits(values) -> int:
    """Bitmap of an IntSet or any iterable of positive integers."""
    if isinstance(values, IntSet):
        return values.bits
    return bits_of(values)
