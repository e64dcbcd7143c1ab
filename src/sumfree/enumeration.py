"""Exact counting and listing of sum-free m-subsets of {1, ..., n}.

count_oracle is the ground truth: it checks every subset of the universe
(|universe| <= 24) against every relation x + y = z, in blocks of 2^14
subsets, each block's verdicts one bit each of a Python integer.  The
relations inside a block's low 14 bits are tested once for all blocks,
and the blocks are walked depth-first over their high bits, each testing
only the relations its last high bit completes.  It shares no code with
the search, which has two engines: a memo for counts and a walk for
listings, and strata use both.

count_sum_free picks elements in ASCENDING order, the order of the walk
below, while maintaining the allowed bitmap: after choosing x, any larger
c + x with c already chosen, or 2x under the default convention, is dead.
Every node of that tree is a sum-free set and every sum-free set occurs
as exactly one node, but the nodes are not visited one by one.  The
subtree below a state depends only on the allowed elements and on the
chosen elements inside allowed - allowed, the positive differences: a
later kill c + y = z needs both y and z allowed, so any other chosen
element never matters again.  A small chosen element is rarely such a
difference, so many states share a key.  Each distinct state is solved
once, as the by-size generating polynomial of its subtree packed into one
integer (one n + 2 bit field per size).  Most states are upper: their
allowed set has 2 min > max, as the top half of {1, ..., n} does, or
2 min >= max without equal summands, so no two allowed elements (no two
distinct ones) sum to a third and only the chosen gaps matter.  An upper
state counts the subsets of its allowed set with no two elements a gap
apart, the gaps being those in its difference set.  Wanting at most 2
more elements, it is closed: C(k, 2) pairs less those a gap apart.  With
a single gap g it is closed too: the pairs g apart join its elements into
paths, the runs x, x + g, x + 2g, ... of the allowed set, and its
polynomial is the product of the paths' polynomials, one power per run
length.  A gapless one is the binomial row of its size k, one power of
1 + y, keyed on {k, ..., 2k - 1}.  Any other is keyed on its canonical
translate, the one starting at span + 1, and solved by branching on its
minimum.  The other states loop over every allowed element.  The memo
lives for one call and has two levels: one entry per allowed set,
holding that set's difference set, computed once, and a table of the
states that share the set.  A repeated state costs two dict lookups.  At
n = 32 there are 10,729 states, the root and 913 others not upper, on
3,588 allowed sets, and the states grow about 2.9x for each +4 in n; the
ascending loop alone needed 12,442, but each took about 7 children.  A
count that must cover more nodes than its budget, by a lower bound from
the odd elements and the upper half, or recurse deeper than the
interpreter allows, refuses before searching.  Since the memo knows how
many m-sets lie below each state, it also unranks: sum_free_ranking maps
each rank below the count to the set of that rank in listing order, which
is how the sampler draws exactly uniform sets.

Listings need the sets themselves, so enumerate_sum_free walks the nodes
one by one in ascending set order, skipping branches that cannot reach
size m.  Strata by the low-part statistics (ell, k, all-odd flag) need only
the low part, the elements x with 2x <= n, and the ascending search chooses
all of those before any high element.  So stratified_counts walks the
sum-free low prefixes alone and reads the high completions of each
through the memo's dispatch, so prefixes whose high parts reduce to one
canonical upper state share its entry; an all-odd prefix kills only even
numbers, so its all-odd completions are a binomial.  Strata budget the
count's nodes, summed over the prefixes, and refuse before searching
exactly when the count of the same size does.  Everything runs in one
process.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, NoReturn, Optional

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
    states   -- distinct search states the memo solved and stored, the root
                among them unless closed (0 for the oracle)
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
# Counts: memoized subtree polynomials over the ascending search


def _differences(bits: int) -> int:
    """Bitmap of the positive differences {b - a : a < b} of the set with bitmap `bits`."""
    out = 0
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        out |= rest >> (low.bit_length() - 1)  # the elements above a, shifted down by a
    return out


def _subtree(
    allowed: int, chosen: int, wanted: int, memo: dict, width: int, allow_equal: bool, budget: int, size: int
) -> int:
    """By-size generating polynomial of the search subtree below one state.

    Coefficient j (bits [j*width, (j+1)*width)) counts the subtree's
    sum-free sets with j more elements than the state, for j <= wanted.
    Elements are chosen in ascending order, so `allowed` lies above every
    chosen element, and choosing x kills c + x for each chosen c (and 2x by
    convention).  Each child's polynomial comes from _child.  A subtree
    covering more than `budget` nodes refuses, with its sets by size (from
    `size`) as partial.
    """
    acc = 0
    bits = allowed
    while bits:
        xbit = bits & -bits
        bits ^= xbit
        x = xbit.bit_length() - 1
        kept = chosen | xbit
        # bits is allowed above x: drop c + x for each chosen c, and 2x by convention
        child = bits & ~(kept << x if allow_equal else chosen << x)
        acc += _child(child, kept, wanted - 1, memo, width, allow_equal, budget, size + 1)
    value = 1 + ((acc << width) & ((1 << width * (wanted + 1)) - 1))
    if value % ((1 << width) - 1) > budget:  # the sum of the coefficients
        _refuse(value, width, budget, size)
    return value


def _child(
    allowed: int, chosen: int, wanted: int, memo: dict, width: int, allow_equal: bool, budget: int, size: int
) -> int:
    """By-size polynomial of the state (allowed, chosen), up to `wanted` more elements: the memo's one dispatch.

    Only chosen elements inside allowed - allowed matter below, so a state
    is (allowed, chosen reduced to that difference set, wanted).  wanted is
    capped at |allowed|, which no subtree exceeds, so it stays below width.
    Below 2 the polynomial is closed, and so is an upper state's at 2 (see
    _pairs); any other upper state goes to _upper, which closes it with
    one gap or keys it on its canonical translate; any other state is read
    from, or solved into, the memo.  That has one entry per allowed set:
    its difference set, computed once, and a table from the reduced chosen
    and wanted, packed as chosen * width + wanted, to the subtree's
    polynomial.  A full profile keys on the first two alone, and a fixed m
    reaches only states within m levels of the root.  A closed form is not
    checked against the budget; its parent is, or, at the root, _solve.
    """
    k = allowed.bit_count()
    if k < wanted:
        wanted = k
    if wanted < 2:
        return 1 if wanted < 1 else 1 + (k << width)
    # upper: 2 min(allowed) > max(allowed), or >= without equal summands
    if 2 * (allowed & -allowed).bit_length() > allowed.bit_length() + allow_equal:
        if wanted < 3:
            return 1 + (k << width) + (_pairs(allowed, chosen, k) << 2 * width)
        return _upper(allowed, chosen, wanted, memo, width, budget, size)
    entry = memo.get(allowed)
    if entry is None:
        entry = memo[allowed] = (_differences(allowed), {})
    diffs, table = entry
    chosen &= diffs
    key = chosen * width + wanted
    value = table.get(key)
    if value is None:
        value = table[key] = _subtree(allowed, chosen, wanted, memo, width, allow_equal, budget, size)
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


def _refuse(value: int, width: int, budget: int, size: int) -> NoReturn:
    """Refuse a subtree that covers more than `budget` nodes, with its sets by size as partial."""
    by_size = {size + j: c for j, c in enumerate(_coefficients(value, width)) if c}
    nodes = sum(by_size.values())
    raise BudgetError(f"search node budget exceeded ({budget})", estimate=budget, partial=(by_size, None, nodes))


def _upper(allowed: int, gaps: int, wanted: int, memo: dict, width: int, budget: int, size: int) -> int:
    """By-size polynomial of an upper state: 2 min > max, or 2 min >= max without equal summands.

    No sum of two allowed elements is allowed (without equal summands, no
    sum of two distinct ones), and every element chosen below exceeds the
    span, so the subtree counts the subsets of `allowed` with no two
    elements a gap apart, the gaps being the chosen elements inside
    allowed - allowed; neither convention matters further.  A set no gap
    fits in counts as freely as any other of its size, so its polynomial
    is the binomial row, stored on its first miss.  A set exactly one gap
    fits in is closed by _one_gap and not stored.  Any other state is
    solved on the minimum a: P(A) = P(A - a) + y P(A - a - (a + gaps)),
    which is (1 + y) P(A - a) when a + gaps misses A.  The exclude chain
    A, A - a, ... runs in a loop down to a solved state, a closed form
    (wanted below 3, or one gap) or a binomial row, and its states are
    stored on the way back, so only the include branch recurses, through
    _child, and the depth stays within `wanted`, as in _subtree.  wanted is
    capped at |allowed| and is at least 3.
    """
    chain = []
    while True:
        # the key: the canonical translate, starting at span + 1, and the gaps inside its differences;
        # a gapless set is keyed on {k, ..., 2k - 1}; the shift, 2 min - max - 1, is -1 where 2 min = max: up one first
        if gaps:
            allowed = allowed << 1 >> 2 * (allowed & -allowed).bit_length() - 1 - allowed.bit_length()
            entry = memo.get(allowed)
            if entry is None:
                entry = memo[allowed] = (_differences(allowed), {})
            gaps &= entry[0]
        if not gaps:
            k = allowed.bit_count()
            allowed = ((1 << k) - 1) << k
            entry = memo.get(allowed)
            if entry is None:
                entry = memo[allowed] = ((1 << k) - 2, {})  # differences 1, ..., k - 1
            value = entry[1].get(wanted)
            if value is None:  # (1 + y)^k: its fields are C(k, j) < 2^width, so none carries
                value = entry[1][wanted] = ((1 << width) + 1) ** k & (1 << width * (wanted + 1)) - 1
            break
        if not gaps & gaps - 1:  # one gap fits: closed, not stored
            value = _one_gap(allowed, gaps.bit_length() - 1, wanted, width)
            break
        table = entry[1]
        key = gaps * width + wanted
        value = table.get(key)
        if value is not None:
            break
        abit = allowed & -allowed
        rest = allowed ^ abit
        hit = rest & (gaps << (abit.bit_length() - 1))
        include = hit and _child(rest ^ hit, gaps, wanted - 1, memo, width, True, budget, size + 1)  # 0: no hit
        chain.append((table, key, wanted, include))
        k = rest.bit_count()
        if k < wanted:
            wanted = k
        if wanted < 3:
            value = 1 + (k << width)
            if wanted == 2:
                value += _pairs(rest, gaps, k) << 2 * width
            break
        allowed = rest
    field = (1 << width) - 1
    for table, key, wanted, include in reversed(chain):
        value += (include or value) << width
        value = table[key] = value & (1 << width * (wanted + 1)) - 1
        if value % field > budget:  # the sum of the coefficients
            _refuse(value, width, budget, size)
    return value


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


def _refuse_unreachable(ubits: int, wanted: int, budget: int, joint: Optional[dict] = None) -> None:
    """Refuse, before searching, a count the budget or the interpreter cannot reach.

    Every subset of the universe's odd elements is sum-free under both
    conventions, and so is every subset of its elements above half its
    largest.  So the count covers at least sum_{j <= wanted} C(u, j) nodes,
    u the larger of those two element counts, and it refuses as the memo
    would, with that sum (its terms added until it passes the budget) in
    partial.  That sum is at most 2^u <= 2^|universe|, so a budget of at
    least 2^|universe| passes it without summing.  The memo recurses once
    per chosen element, so it also refuses when wanted exceeds the
    recursion limit less STACK_HEADROOM.  `joint` is the partial's middle:
    None for a count, no strata yet ({}) for strata.
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
    raise BudgetError(message, estimate=budget, partial=({}, joint, bound))


def _coefficients(value: int, width: int) -> list[int]:
    field = (1 << width) - 1
    return [(value >> width * j) & field for j in range((value.bit_length() + width - 1) // width)]


def count_sum_free(
    n: int,
    m: Optional[int] = None,
    universe=None,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountResult:
    """Exact sum-free counts on the memoized search.

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
    value, memo = _solve(ubits, ubits.bit_count() if m is None else m, width, allow_equal, node_budget)
    if m is None:
        by_size = {j: c for j, c in enumerate(_coefficients(value, width)) if c}
    else:
        count = value >> width * m & (1 << width) - 1
        by_size = {m: count} if count else {}
    return CountResult(
        total=sum(by_size.values()),
        by_size=by_size,
        method="memo",
        elapsed=time.perf_counter() - t0,
        nodes=value % ((1 << width) - 1),
        states=sum(len(table) for _diffs, table in memo.values()),
    )


def _solve(ubits: int, wanted: int, width: int, allow_equal: bool, budget: int) -> tuple[int, dict]:
    """The root's polynomial up to `wanted` elements, and the memo that solved it; refuses as a count does.

    width = n + 2: a field holds any count <= 2^n, and so does the sum of all fields.
    """
    _refuse_unreachable(ubits, wanted, budget)
    memo: dict = {}
    value = _child(ubits, 0, wanted, memo, width, allow_equal, budget, 0)
    if value % ((1 << width) - 1) > budget:  # a closed-form root checks nothing itself
        _refuse(value, width, budget, 0)
    return value, memo


def sum_free_ranking(
    n: int, m: int, allow_equal: bool = ALLOW_EQUAL_DEFAULT, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, Callable[[int], int]]:
    """The number of sum-free m-subsets of {1, ..., n}, and the map from a rank in [0, total) to the bitmap of
    the set of that rank in the order enumerate_sum_free lists them.

    The count is count_sum_free(n, m)'s, with its budget and refusals, and
    the map unranks on the memo that count leaves, so a uniform rank gives
    an exactly uniform set.
    """
    ubits = _universe_bits(n, None, m)
    width = n + 2
    value, memo = _solve(ubits, min(m, n), width, allow_equal, node_budget)  # coefficient m > n is 0
    total = value >> width * m & (1 << width) - 1
    return total, lambda rank: _unrank(rank, ubits, m, memo, width, allow_equal, node_budget)


def _unrank(rank: int, allowed: int, wanted: int, memo: dict, width: int, allow_equal: bool, budget: int) -> int:
    """The chosen bitmap of the set at `rank` among those with `wanted` elements below the root (allowed, none chosen).

    The ascending search lists a state's sets before its children's, and
    its children's subtrees by ascending x, each in the same order.  So the
    walk takes, at each state, the first x whose child's coefficient for the
    elements still wanted exceeds the rank, having subtracted those of the
    children before it.  Every child's polynomial comes from _child, as in
    the count, so it is read from the memo the count left (a gapless upper
    child the count never asked for at this wanted is solved into it once).
    """
    field = (1 << width) - 1
    chosen = 0
    while wanted:
        wanted -= 1
        bits = allowed
        while True:
            xbit = bits & -bits
            bits ^= xbit
            x = xbit.bit_length() - 1
            kept = chosen | xbit
            child = bits & ~(kept << x if allow_equal else chosen << x)
            below = _child(child, kept, wanted, memo, width, allow_equal, budget, 0) >> width * wanted & field
            if rank < below:
                break
            rank -= below
        allowed, chosen = child, kept
    return chosen


# ----------------------------------------------------------------------
# Listings and low prefixes: one walk over the ascending search


def _walk(ubits: int, fixed: int, allow_equal: bool, m: Optional[int]) -> Iterator[tuple[int, int, int]]:
    """Yield the nodes (allowed, chosen, size) of the ascending search in set order, choosing nothing in `fixed`.

    Elements are added in ascending order: choosing x kills c + x for each
    chosen c, and 2x by convention, so `allowed` holds the elements above
    max(chosen) that keep the set sum-free.  `fixed` lies above every other
    element of ubits; its elements stay in `allowed` while alive but are
    never chosen.  With m given, branches that cannot reach size m are
    skipped, and a node of size m - 1 yields its size-m children directly
    (allowed 0) instead of stacking them.
    """
    stack = [(ubits, 0, 0)]
    while stack:
        allowed, chosen, size = stack.pop()
        yield allowed, chosen, size
        if size == m:
            continue
        free = allowed & ~fixed
        if m is not None and size == m - 1:
            for x in iter_bits(free):
                yield 0, chosen | 1 << x, m
            continue
        need = -1 if m is None else m - size - 1
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
    nodes = _walk(_universe_bits(n, universe), 0, allow_equal, m)
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
    """Exact sum-free m-set count in {ceil(n/2) - a, ..., n}."""
    lo = (n + 1) // 2 - a
    if lo < 1:
        raise ValueError(f"window start {lo} below 1 (a too large)")
    usize = n - lo + 1
    if m > usize:
        raise ValueError(f"m = {m} exceeds the window size {usize}")
    res = count_sum_free(n, m, IntSet.interval(n, lo, n), allow_equal, node_budget=node_budget)
    return WindowCount(
        count=res.total,
        window_lo=lo,
        window_size=usize,
        probability=Fraction(res.total, comb(usize, m)),
    )


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

    ell, k and the all-odd flag of the low part depend only on the elements
    x with 2x <= n, which the ascending search chooses before any high one.
    So the walk chooses low elements only, and the high completions of each
    low prefix are coefficient m - |prefix| of its high state's polynomial,
    read through _child, the memo's one dispatch: the high part is always
    an upper state, so prefixes that leave the same canonical translate and
    gaps share one entry.  An all-odd prefix kills only even numbers, so
    C(odd high allowed, m - |prefix|) of its completions are all odd.  The
    tallies are keyed on (ell, 2k) and k becomes a Fraction at the end.
    The budget is in the units of count_sum_free(n, m), the nodes covered,
    summed over the prefixes.  A state solved here refuses past the budget
    left, and a memo hit checks nothing, so the sum is also checked after
    each prefix; the same queries refuse as if every prefix were solved
    afresh, and it refuses before searching exactly when the count does.
    A refusal's partial is (by_size, (ell, k) -> count so far, nodes).
    """
    ubits = _universe_bits(n, None, m)
    if m > n:
        return StratifiedCounts(n=n, m=m, total=0)
    _refuse_unreachable(ubits, m, node_budget, joint={})
    high = ubits >> n // 2 + 1 << n // 2 + 1  # the elements x with 2x > n
    odd = sum(1 << x for x in range(1, n + 1, 2))
    width = n + 2
    field = (1 << width) - 1
    memo: dict = {}
    joint, odd_joint = Counter(), Counter()  # keyed on (ell, 2k)
    nodes = 0
    try:
        for allowed, chosen, size in _walk(ubits, high, allow_equal, m):
            value = _child(allowed & high, chosen, m - size, memo, width, allow_equal, node_budget - nodes, size)
            nodes += value % field  # the sum of the coefficients
            if nodes > node_budget:
                break
            key = (size, size * n - 2 * sum(iter_bits(chosen)))  # ell, and 2k = sum (n - 2x)
            joint[key] += value >> width * (m - size) & field
            if not chosen & ~odd:
                odd_joint[key] += comb((allowed & high & odd).bit_count(), m - size)
    except BudgetError as err:
        nodes += err.partial[2]  # the refusing subtree's nodes: past the budget left
    joint, odd_joint = _halves(joint), _halves(odd_joint)
    if nodes <= node_budget:
        return StratifiedCounts(n, m, sum(joint.values()), joint, odd_joint)
    partial = ({m: sum(joint.values())} if joint else {}, joint, nodes)
    raise BudgetError(f"search node budget exceeded ({node_budget})", node_budget, partial)


def _halves(tally: Counter) -> dict[tuple[int, Fraction], int]:
    """The nonzero counts of an (ell, 2k) tally, keyed on (ell, k)."""
    return {(ell, Fraction(k2, 2)): c for (ell, k2), c in tally.items() if c}
