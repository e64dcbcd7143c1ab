"""Exact counting and listing of sum-free m-subsets of {1, ..., n}.

count_oracle is the ground truth: it checks every subset of the universe
(|universe| <= 24) against every relation x + y = z, in blocks of 2^14
subsets, each block's verdicts one bit each of a Python integer.  The
relations inside a block's low 14 bits are tested once for all blocks,
and the blocks are walked depth-first over their high bits, each testing
only the relations its last high bit completes.  It shares no code with
the search, which has one walk: counts, strata and the sampler's ranking
walk its low prefixes, listings walk every node.

Every search adds elements in ASCENDING order while maintaining the
allowed bitmap: after choosing x, any larger c + x with c already chosen,
or 2x under the default convention, is dead.  Every node of that tree is a
sum-free set and every sum-free set occurs as exactly one node.  The paper
splits a sum-free set into its low part and a top part, and so do the
counts: the elements x with 2x > max (2x >= max without equal summands)
form an upper set, in which no two elements (no two distinct ones) sum to
a third, and the search chooses every low element before any high one.
So a count walks the sum-free low prefixes one by one and multiplies each
by its completions: the subsets of the high elements the prefix leaves
alive with no two elements a chosen element apart, an upper state: the
independent sets of the prefix's forbidden-pair graph on the top half,
edges {x, x + s} for chosen s (bounds.build_pair_graph).  _upper counts them as a by-size
generating polynomial packed into one integer (one n + 2 bit field per
size): closed forms when at most 2 more elements are wanted (C(k, 2) pairs
less those a gap apart), when no gap fits (the binomial row, one power of
1 + y) or when exactly one gap g fits (a product of path polynomials over
the runs x, x + g, x + 2g, ...), and otherwise by branching on the minimum,
keyed on the canonical translate, the one starting at span + 1, and on the
gaps inside its difference set.  The memo lives for one call and stores
upper states only: one entry per allowed set with a stored state, holding
that set's difference set, computed once, and a table of the states that
share it.  At n = 32 the 1,954 low prefixes reach 12,877 states on 2,773
allowed sets, and the states grow about 3x for each +4 in n.  A prefix one
element short is not extended: any allowed element completes it.  A count
that must cover more nodes than its budget, by a lower bound from the odd
elements and the upper half, or recurse deeper than the interpreter
allows, refuses before searching; otherwise the walk refuses after the
prefix that passes the budget.  The same prefixes, taken in post-order,
rank the sum-free m-sets: sum_free_ranking maps each rank below the count
to the set of that rank in listing order, unranked inside its prefix's
upper state, which is how the sampler draws exactly uniform sets.

Listings need the sets themselves, so enumerate_sum_free walks the nodes
one by one in ascending set order, skipping branches that cannot reach
size m.  Strata by the low-part statistics (ell, k, all-odd flag) are
tallies over the same prefixes, with the upper part cut at 2x > n where
those statistics are defined; an all-odd prefix kills only even numbers,
so its all-odd completions are a binomial.  Windows and strata share the
count's budget and refusals.  Everything runs in one process.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Callable, Iterator, Optional

from .core import ALLOW_EQUAL_DEFAULT
from .errors import BudgetError
from .intset import IntSet, coerce_bits, iter_bits

DEFAULT_NODE_BUDGET = 2 * 10**8
DEFAULT_STREAM_BUDGET = 10**6
ORACLE_MAX_UNIVERSE = 24
ORACLE_BLOCK = 1 << 14  # subsets per block, one bit each of a keep mask; a power of two, fastest at 20-24 elements
STACK_HEADROOM = 100  # interpreter frames left to the callers of a count


@dataclass
class CountResult:
    """Exact counting result.

    total    -- number of matching sum-free sets
    by_size  -- size -> count (single entry when a size was requested)
    method   -- "oracle" or "memo"
    elapsed  -- wall seconds
    nodes    -- subsets inspected by the oracle; for the search, the tree
                nodes covered: the sum-free sets of size <= m (all if m is None)
    states   -- distinct upper states the memo solved and stored (0 for the
                oracle)
    """

    total: int
    by_size: dict[int, int]
    method: str
    elapsed: float
    nodes: int = 0
    states: int = 0


def _universe_bits(n: int, universe, m: Optional[int] = None) -> int:
    if n < 0 or (m is not None and m < 0):
        raise ValueError("n and m must be >= 0")
    if universe is None:
        return ((1 << (n + 1)) - 1) ^ 1
    bits = coerce_bits(universe)
    if bits.bit_length() - 1 > n:
        raise ValueError("universe not contained in {1, ..., n}")
    return bits


# ----------------------------------------------------------------------
# Brute-force oracle over all subsets


def count_oracle(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
) -> CountResult:
    """Count by inspecting every subset of the universe (exact ground truth).

    The universe may hold at most 24 elements.  Each relation x + y = z
    among universe elements is one mask of its bits, and a subset is not
    sum-free when it contains all of some relation's bits.  The low
    log2(ORACLE_BLOCK) bits of a subset mask are its offset in a block and
    the other, high, bits number the blocks.  A block's keep mask is one
    integer with bit o set while the subset at offset o may be sum-free.
    The offsets holding all of a relation's low bits are the AND of at most
    three fixed masks, one per bit b, of the offsets with bit b set, and
    ANDing a keep mask with their complement clears them.  The relations
    inside the low bits are cleared once, on every offset, into a base keep
    mask.  The blocks are walked depth-first over their high bits, and each
    relation with high bits is cleared at the block that sets the highest
    of them, once all of them are set, from its parent's mask, which every
    block below inherits.  So every subset is tested against every
    relation, and a block pays only for the relations new to it.  A
    block's sets of each size are the popcount of its mask ANDed with the
    offsets of one popcount, shifted by the popcount of its high bits.
    """
    t0 = time.perf_counter()
    ubits = _universe_bits(n, universe, m)
    elements = [v for v in range(1, n + 1) if (ubits >> v) & 1]
    u = len(elements)
    if u > ORACLE_MAX_UNIVERSE:
        raise BudgetError(
            f"universe too large for the subset oracle ({u} > {ORACLE_MAX_UNIVERSE})",
            estimate=2**u,
        )
    low = min(ORACLE_BLOCK.bit_length() - 1, u)
    has, by_pop = [], [1]  # over the offsets of a block: has[b] those with bit b set, by_pop[s] those with s bits set
    for b in range(low):  # doubling: offsets o + 2^b repeat those at o, with bit b set
        width = 1 << b
        has = [h | h << width for h in has] + [((1 << width) - 1) << width]
        by_pop = [p | q << width for p, q in zip(by_pop + [0], [0] + by_pop)]
    everything = (1 << (1 << low)) - 1

    def spared(rel_low):  # the offsets not holding all of a relation's low bits
        mask = everything
        for b in iter_bits(rel_low):
            mask &= has[b]
        return everything ^ mask

    index = {v: i for i, v in enumerate(elements)}
    keep, by_top = everything, [[] for _ in range(u - low)]  # by_top[t]: (high bits, spared) of the relations topped by t
    for i, x in enumerate(elements):
        for j in range(i if allow_equal else i + 1, u):
            kdx = index.get(x + elements[j])
            if kdx is not None:
                rel = (1 << i) | (1 << j) | (1 << kdx)
                rel_high, rel_spared = rel >> low, spared(rel & ((1 << low) - 1))
                if rel_high:
                    by_top[rel_high.bit_length() - 1].append((rel_high, rel_spared))
                else:
                    keep &= rel_spared

    counts = [0] * (u + 1)

    def visit(high, keep, top):
        size = high.bit_count()
        for s, offsets in enumerate(by_pop, size):
            counts[s] += (keep & offsets).bit_count()
        for t in range(top, u - low):
            child, child_keep = high | 1 << t, keep
            for rel_high, rel_spared in by_top[t]:
                if rel_high & child == rel_high:
                    child_keep &= rel_spared
            visit(child, child_keep, t + 1)

    visit(0, keep, 0)
    by_size = {s: c for s, c in enumerate(counts) if c and (m is None or s == m)}
    return CountResult(
        total=sum(by_size.values()),
        by_size=by_size,
        method="oracle",
        elapsed=time.perf_counter() - t0,
        nodes=1 << u,
    )



# ----------------------------------------------------------------------
# Counts: low prefixes times upper completions


def _differences(bits: int) -> int:
    """Bitmap of the positive differences {b - a : a < b} of the set with bitmap `bits`."""
    out = 0
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        out |= rest >> (low.bit_length() - 1)  # the elements above a, shifted down by a
    return out


def _upper(allowed: int, gaps: int, wanted: int, memo: dict, width: int) -> int:
    """By-size polynomial of the subsets of `allowed` with no two elements a gap apart, up to `wanted` elements.

    Coefficient j (bits [j*width, (j+1)*width)) counts those subsets of j
    elements.  `allowed` is upper: 2 min > max, or 2 min >= max without
    equal summands, so no two of its elements (no two distinct ones) sum to
    a third, and the count's only kills are c + x = z for chosen c, the
    gaps; those inside allowed - allowed fit a pair.  wanted is capped at
    |allowed|.  Below 3 the polynomial is closed: 1, 1 + k y, and C(k, 2)
    pairs less those a gap apart (_pairs).  With no gap that fits it is
    the binomial row of its size k, stored once per wanted under the
    interval {k, ..., 2k - 1}; a single gap is tested with one AND.  With
    exactly one gap that fits it is closed by _one_gap.  Any other state is
    keyed on its canonical translate, the one starting at span + 1, and on
    its gaps reduced to that translate's differences, and solved on its
    minimum a: P(A) = P(A - a) + y P(A - a - (a + gaps)), which is
    (1 + y) P(A - a) when a + gaps misses A.  The exclude chain A, A - a, ...
    runs in a loop down to a solved or closed state and its states are
    stored on the way back, so only the include branch recurses, and the
    depth stays within `wanted`.  The memo has one entry per allowed set
    with a stored state: its difference set, computed once, and a table
    from gaps * width + wanted (wanted alone for a binomial row) to the
    polynomial.  Every coefficient counts subsets of `allowed`, at most
    2^(width - 2), so no field carries into the next.
    """
    chain = []
    while True:
        k = allowed.bit_count()
        if k < wanted:
            wanted = k
        if wanted < 3:
            value = 1 if wanted < 1 else 1 + (k << width)
            if wanted == 2:
                value += _pairs(allowed, gaps, k) << 2 * width
            break
        if gaps & gaps - 1:  # two gaps or more: the canonical translate, shifted 2 min - max - 1 (up one at 2 min = max)
            allowed = allowed << 1 >> 2 * (allowed & -allowed).bit_length() - 1 - allowed.bit_length()
            entry = memo.get(allowed)
            diffs = _differences(allowed) if entry is None else entry[0]
            gaps &= diffs
        if not gaps & gaps - 1:  # at most one gap left
            if gaps and allowed & allowed >> gaps.bit_length() - 1:  # it fits: closed, not stored
                value = _one_gap(allowed, gaps.bit_length() - 1, wanted, width)
                break
            allowed = ((1 << k) - 1) << k
            entry = memo.get(allowed)
            if entry is None:
                entry = memo[allowed] = ((1 << k) - 2, {})  # differences 1, ..., k - 1
            value = entry[1].get(wanted)
            if value is None:  # (1 + y)^k: its fields are C(k, j) < 2^width, so none carries
                value = entry[1][wanted] = ((1 << width) + 1) ** k & (1 << width * (wanted + 1)) - 1
            break
        if entry is None:
            entry = memo[allowed] = (diffs, {})
        table = entry[1]
        key = gaps * width + wanted
        value = table.get(key)
        if value is not None:
            break
        abit = allowed & -allowed
        rest = allowed ^ abit
        hit = rest & (gaps << (abit.bit_length() - 1))
        include = hit and _upper(rest ^ hit, gaps, wanted - 1, memo, width)  # 0: no hit
        chain.append((table, key, wanted, include))
        allowed = rest
    for table, key, wanted, include in reversed(chain):
        value += (include or value) << width
        value = table[key] = value & (1 << width * (wanted + 1)) - 1
    return value


def _pairs(allowed: int, gaps: int, k: int) -> int:
    """The 2-subsets of the k-element upper set `allowed` with no two elements a gap apart: C(k, 2) - e.

    Each pair x < y is excluded by one gap at most, y - x, so e is the
    number of pairs a gap apart, summed over the gaps.
    """
    excluded = 0
    gaps &= (2 << allowed.bit_length() - (allowed & -allowed).bit_length()) - 1  # a gap above the span excludes none
    while gaps:
        gbit = gaps & -gaps
        gaps ^= gbit
        excluded += (allowed & allowed >> gbit.bit_length() - 1).bit_count()
    return k * (k - 1) // 2 - excluded


def _one_gap(allowed: int, g: int, wanted: int, width: int) -> int:
    """By-size polynomial of the subsets of `allowed` with no two elements g apart, up to `wanted` elements.

    The pairs g apart join the elements into paths x, x + g, x + 2g, ...,
    the maximal runs of `allowed` in steps of g, and a subset avoids the gap
    exactly when it does on each path.  A path of L elements has P_0 = 1,
    P_1 = 1 + y and P_L = P_{L-1} + y P_{L-2} (its first element left out,
    or taken and the second left out), so the polynomial is the product of
    P_L over the runs, one power per run length.  Every coefficient of it
    counts subsets of `allowed`, at most 2^(width - 2), so no field carries
    into the next and each factor can be truncated to `wanted` fields.
    """
    mask = (1 << width * (wanted + 1)) - 1
    pairs = allowed & allowed >> g
    if not pairs & allowed >> 2 * g:  # no run longer than 2: P_1 for each element in no pair, P_2 for each pair
        p = pairs.bit_count()
        return ((1 << width) + 1) ** (allowed.bit_count() - 2 * p) * ((2 << width) + 1) ** p & mask
    reach = allowed & ~(allowed << g)  # the runs' starts, then those whose runs reach `length` more elements
    runs = reach.bit_count()  # the runs of at least `length` elements
    value, length = 1, 1
    shorter, path = 1, 1 + (1 << width)  # P_{length - 1} and P_length
    while runs:
        reach &= allowed >> length * g
        longer = reach.bit_count()
        if runs > longer:
            value = value * path ** (runs - longer) & mask
        runs = longer
        length += 1
        shorter, path = path, path + (shorter << width)
    return value


def _refuse_unreachable(ubits: int, wanted: int, budget: int) -> None:
    """Refuse, before searching, a count the budget or the interpreter cannot reach.

    Every subset of the universe's odd elements is sum-free under both
    conventions, and so is every subset of its elements above half its
    largest.  So the count covers at least sum_{j <= wanted} C(u, j) nodes,
    u the larger of those two element counts, and it refuses with that sum
    (its terms added until it passes the budget) in partial.  That sum is
    at most 2^u <= 2^|universe|, so a budget of at least 2^|universe|
    passes it without summing.  The upper solver recurses once per chosen
    element, so it also refuses when wanted exceeds the recursion limit
    less STACK_HEADROOM.
    """
    limit = sys.getrecursionlimit()
    if budget >> ubits.bit_count() > 0 and wanted <= limit - STACK_HEADROOM:
        return  # 2^|universe| <= budget
    half = (ubits.bit_length() + 1) // 2  # elements >= half sum past the largest
    odd = ubits & (((1 << 2 * half) - 1) // 3 << 1)  # bits 1, 3, ..., 2 * half - 1
    u = max(odd.bit_count(), (ubits >> half).bit_count())
    bound = 0
    for j in range(min(u, wanted) + 1):
        bound += comb(u, j)
        if bound > budget:
            break
    if bound > budget:
        message = f"search node budget exceeded ({budget})"
    elif wanted > limit - STACK_HEADROOM:
        message = f"search depth {wanted} exceeds the interpreter's recursion limit ({limit})"
    else:
        return
    raise BudgetError(message, estimate=budget, partial=({}, None, bound))


def _prefixes(
    ubits: int, wanted: int, allow_equal: bool, budget: int, memo: dict, width: int, cut: Optional[int] = None
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (upper, chosen, size, value) for each sum-free low prefix of ubits with at most `wanted` elements.

    The high elements are those from `cut` up, by default those x with
    2x > max(ubits), or 2x >= max without equal summands; they form an
    upper set, and the low prefixes are the sum-free sets of the others.
    _walk lists them in ascending set order, each before its extensions,
    keeping the high elements they leave alive: a prefix's `upper` set.
    Its completions are the subsets of that set with no two elements a
    chosen element apart, and `value` is their by-size polynomial up to
    wanted - size elements, from _upper on `memo`.  A prefix one element
    short is not extended: any allowed element, low or high, completes it,
    so its upper set is all it allows.  A universe with no low part is one
    prefix and is not walked.  Every sum-free set is one prefix plus one
    completion, so the coefficient sums add up to the count's nodes.  A
    count past `budget` refuses here: before the walk when
    _refuse_unreachable does, and otherwise after the prefix that passes
    it, with the nodes so far in partial.
    """
    _refuse_unreachable(ubits, wanted, budget)
    if cut is None:  # 2x > max(ubits), or 2x >= max without equal summands
        cut = (ubits.bit_length() + allow_equal) // 2
    high = ubits >> cut << cut
    field = (1 << width) - 1
    nodes = 0
    walk = _walk(ubits, high, allow_equal, max(wanted - 1, 0), False) if ubits & ~high else ((ubits, 0, 0),)
    for allowed, chosen, size in walk:
        upper = allowed if size == wanted - 1 else allowed & high
        value = _upper(upper, chosen, wanted - size, memo, width)
        nodes += value % field  # the sum of the coefficients
        if nodes > budget:
            raise BudgetError(f"search node budget exceeded ({budget})", estimate=budget, partial=({}, None, nodes))
        yield upper, chosen, size, value


def count_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountResult:
    """Exact sum-free counts: the low prefixes of the universe times their upper completions.

    The upper part is cut at 2x > max(universe), or 2x >= max without
    equal summands, so a universe with no low part is one prefix.  Each
    prefix's polynomial is shifted by its size and summed; width = n + 2,
    so a field holds any count <= 2^n, and so does the sum of all fields.

    Parameters
    ----------
    n : universe bound.
    m : count only sets of this size (None = full profile by size).
    universe : optional restriction, a subset of {1, ..., n}.
    allow_equal : whether x + x = z disqualifies (default True).
    threads : accepted for compatibility; the search runs in one process
        and results are identical for every value.
    node_budget : refuse with BudgetError when the count covers more tree
        nodes, i.e. sum-free sets (of size <= m when m is given).
    """
    t0 = time.perf_counter()
    ubits = _universe_bits(n, universe, m)
    if m is not None and m > ubits.bit_count():
        return CountResult(0, {}, "memo", 0.0, 0)
    width = n + 2
    field = (1 << width) - 1
    wanted = ubits.bit_count() if m is None else m
    memo: dict = {}
    value = 0
    for _upper_bits, _chosen, size, completions in _prefixes(ubits, wanted, allow_equal, node_budget, memo, width):
        value += completions << width * size
    if m is None:
        by_size = {j: c for j, c in enumerate(value >> width * j & field for j in range(wanted + 1)) if c}
    else:
        count = value >> width * m & field
        by_size = {m: count} if count else {}
    states = sum(len(table) for _diffs, table in memo.values())
    return CountResult(sum(by_size.values()), by_size, "memo", time.perf_counter() - t0, value % field, states)


def sum_free_ranking(
    n: int, m: int, allow_equal: bool = ALLOW_EQUAL_DEFAULT, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, Callable[[int], int]]:
    """The number of sum-free m-subsets of {1, ..., n}, and the map from a rank in [0, total) to the bitmap of
    the set of that rank in the order enumerate_sum_free lists them.

    The count is count_sum_free(n, m)'s, on the same prefixes, with its
    budget and refusals.  In listing order a prefix's completions follow
    the sets of all its low extensions, low elements being smaller, so the
    prefixes are ranked in post-order, each over its completions of size
    m; a rank picks its prefix by bisection and is unranked inside that
    prefix's upper set (_unrank), on the memo the count left.  A uniform
    rank gives an exactly uniform set.
    """
    ubits = _universe_bits(n, None, m)
    width = n + 2
    field = (1 << width) - 1
    memo: dict = {}
    listed, pending = [], []  # prefixes with completions, in listing order, and those whose extensions may follow
    if m <= n:  # as count_sum_free, which returns 0 above the universe without searching
        for upper, chosen, size, value in _prefixes(ubits, m, allow_equal, node_budget, memo, width):
            while pending and pending[-1][2] >= size:  # no extension of it follows
                listed.append(pending.pop())
            count = value >> width * (m - size) & field
            if count:
                pending.append((upper, chosen, size, count))
        listed += reversed(pending)
    starts = list(accumulate((count for *_prefix, count in listed), initial=0))
    total = starts.pop()

    def unrank(rank: int) -> int:
        i = bisect_right(starts, rank) - 1
        upper, chosen, size, _count = listed[i]
        return chosen | _unrank(rank - starts[i], upper, chosen, m - size, memo, width)

    return total, unrank


def _unrank(rank: int, allowed: int, gaps: int, wanted: int, memo: dict, width: int) -> int:
    """The bitmap of the subset at `rank`, in ascending set order, among the `wanted`-subsets of `allowed` with no
    two elements a gap apart.

    Its sets with minimum x are x plus the (wanted - 1)-subsets of the
    elements above x less x + gaps, counted by _upper.  So the walk takes,
    at each step, the first x whose count exceeds the rank, having
    subtracted those of the x before it.  The kill rule is c + x for a gap
    c only, never 2x: `allowed` is upper, so a chosen x exceeds the span of
    what is left above it and 2x exceeds its maximum (or equals it, without
    equal summands).  A prefix one element short passes all it allows,
    upper or not; with one element wanted the rank just picks it.  Nearly
    every count is read from the memo the count left.
    """
    field = (1 << width) - 1
    chosen = 0
    while wanted:
        wanted -= 1
        bits = allowed
        while True:
            xbit = bits & -bits
            bits ^= xbit
            child = bits & ~(gaps << xbit.bit_length() - 1)
            below = _upper(child, gaps, wanted, memo, width) >> width * wanted & field
            if rank < below:
                break
            rank -= below
        allowed = child
        chosen |= xbit
    return chosen


# ----------------------------------------------------------------------
# Listings and low prefixes: one walk over the ascending search


def _walk(ubits: int, fixed: int, allow_equal: bool, m: Optional[int], reach: bool) -> Iterator[tuple[int, int, int]]:
    """Yield the nodes (allowed, chosen, size) of the ascending search in set order, choosing nothing in `fixed`.

    Elements are added in ascending order: choosing x kills c + x for each
    chosen c, and 2x by convention, so `allowed` holds the elements above
    max(chosen) that keep the set sum-free.  `fixed` lies above every other
    element of ubits; its elements stay in `allowed` while alive but are
    never chosen.  No node is deeper than m.  With `reach`, branches that
    cannot reach size m are skipped, and a node of size m - 1 yields its
    size-m children directly (allowed 0) instead of stacking them.
    """
    stack = [(ubits, 0, 0)]
    while stack:
        allowed, chosen, size = stack.pop()
        yield allowed, chosen, size
        if size == m:
            continue
        free = allowed & ~fixed
        if reach and size == m - 1:
            for x in iter_bits(free):
                yield 0, chosen | 1 << x, m
            continue
        need = m - size - 1 if reach else -1
        higher = allowed & fixed  # allowed elements above x
        while free:  # descending, so the smallest x is stacked last and walked first
            x = free.bit_length() - 1
            xbit = 1 << x
            free ^= xbit
            child = higher & ~((chosen | xbit) << x if allow_equal else chosen << x)
            higher |= xbit
            if child.bit_count() >= need:
                stack.append((child, chosen | xbit, size + 1))


def enumerate_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    stream_budget: int = DEFAULT_STREAM_BUDGET,
) -> Iterator[IntSet]:
    """Yield each matching sum-free set exactly once, in ascending set order.

    The expected output size is counted first; a BudgetError is raised
    before streaming when it exceeds stream_budget.
    """
    expected = count_sum_free(n, m, universe=universe, allow_equal=allow_equal).total
    if expected > stream_budget:
        raise BudgetError(
            f"enumeration would stream {expected} sets (> budget {stream_budget})",
            estimate=expected,
        )
    nodes = _walk(_universe_bits(n, universe), 0, allow_equal, m, m is not None)
    return (IntSet.from_bits(n, chosen) for _allowed, chosen, size in nodes if m is None or size == m)


# ----------------------------------------------------------------------
# Windowed counts and strata


@dataclass(frozen=True)
class WindowCount:
    """Sum-free count in the window {ceil(n/2) - a, ..., n} and its density.

    probability is the exact chance that a uniform m-subset of the window
    is sum-free: count / C(window size, m).
    """

    count: int
    window_lo: int
    window_size: int
    probability: Fraction


def count_in_window(
    n: int,
    a: int,
    m: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WindowCount:
    """Exact sum-free m-set count in {ceil(n/2) - a, ..., n}.

    The count is count_sum_free's on that universe, summed over the same
    prefixes with the same budget; without equal summands the upper part
    starts at ceil(n/2), so a window with a = 0 is one prefix.
    """
    lo = (n + 1) // 2 - a
    if lo < 1:
        raise ValueError(f"window start {lo} below 1 (a too large)")
    usize = n - lo + 1
    if m > usize:
        raise ValueError(f"m = {m} exceeds the window size {usize}")
    width = n + 2
    ubits = _universe_bits(n, None, m) >> lo << lo  # {lo, ..., n}, once n and m are checked
    count = 0
    for _upper_bits, _chosen, size, value in _prefixes(ubits, m, allow_equal, node_budget, {}, width):
        count += value >> width * (m - size) & (1 << width) - 1
    return WindowCount(count, lo, usize, Fraction(count, comb(usize, m)))


@dataclass
class StratifiedCounts:
    """Joint distribution of (ell, k) over sum-free m-subsets of {1, ..., n}.

    joint maps (ell, k) to the exact count; odd_joint restricts to sets of
    odd numbers only.  k is exact (a Fraction on the half-integer grid when
    n is odd).
    """

    n: int
    m: int
    total: int
    joint: dict[tuple[int, Fraction], int] = field(default_factory=dict)
    odd_joint: dict[tuple[int, Fraction], int] = field(default_factory=dict)

    def marginal_ell(self) -> dict[int, int]:
        ells = sorted({ell for ell, _k in self.joint})
        return {ell: sum(c for (e, _k), c in self.joint.items() if e == ell) for ell in ells}


def stratified_counts(
    n: int,
    m: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> StratifiedCounts:
    """Exact joint (ell, k) distribution of sum-free m-subsets of {1, ..., n}.

    ell, k and the all-odd flag of a set depend only on its low part, the
    elements x with 2x <= n, where they are defined; so the prefixes are
    those of count_sum_free with the upper part cut at 2x > n under both
    conventions.  A prefix's completions of size m - |prefix| all share its
    stratum, except those of a prefix one element short, whose low
    completions are prefixes of size m, each in its own stratum.  An
    all-odd prefix kills only even numbers, so C(odd high allowed,
    m - |prefix|) of its completions are all odd.  The tallies are keyed on
    (ell, 2k) and k becomes a Fraction at the end.  The budget and the
    refusals are count_sum_free(n, m)'s, on the same nodes, so strata
    succeed and refuse at the same budgets as the count.  A refusal's
    partial is (by_size, (ell, k) -> count so far, nodes).
    """
    ubits = _universe_bits(n, None, m)
    if m > n:
        return StratifiedCounts(n=n, m=m, total=0)
    cut = n // 2 + 1  # the elements x with 2x > n
    high = ubits >> cut << cut
    odd = sum(1 << x for x in range(1, n + 1, 2))
    width = n + 2
    field = (1 << width) - 1
    joint, odd_joint = Counter(), Counter()  # keyed on (ell, 2k)
    try:
        for upper, chosen, size, value in _prefixes(ubits, m, allow_equal, node_budget, {}, width, cut):
            low = upper & ~high  # only one element short: each x in it completes a prefix of size m
            k2 = size * n - 2 * sum(iter_bits(chosen))  # 2k = sum (n - 2x)
            for x in iter_bits(low):
                joint[m, k2 + n - 2 * x] += 1
                odd_joint[m, k2 + n - 2 * x] += not (chosen | 1 << x) & ~odd
            joint[size, k2] += (value >> width * (m - size) & field) - low.bit_count()
            if not chosen & ~odd:
                odd_joint[size, k2] += comb((upper & high & odd).bit_count(), m - size)
    except BudgetError as err:
        joint = _halves(joint)
        partial = ({m: sum(joint.values())} if joint else {}, joint, err.partial[2])
        raise BudgetError(str(err), node_budget, partial) from None
    joint, odd_joint = _halves(joint), _halves(odd_joint)
    return StratifiedCounts(n, m, sum(joint.values()), joint, odd_joint)


def _halves(tally: Counter) -> dict[tuple[int, Fraction], int]:
    """The nonzero counts of an (ell, 2k) tally, keyed on (ell, k)."""
    return {(ell, Fraction(k2, 2)): c for (ell, k2), c in tally.items() if c}
