"""Uniform random sum-free m-sets, exact by unranking on the count memo, and structure trend tables.

sum_free_ranking counts the sum-free m-sets as count_sum_free(n, m) does,
over the low prefixes and their upper completions, so it knows how many
m-sets each prefix completes to.  A draw takes a uniform rank below the
total and unranks it on those counts and on the count's memo, so every
draw is exactly uniform over the sum-free m-sets.  The node budget bounds
both: the count refuses as count_sum_free does, and `count` draws, each a
walk of m + 1 tree nodes from the empty set to its set, refuse before the
count when count * (m + 1) passes the budget.

Reports histogram the low-part statistics (ell, k, all-odd flag) of the
samples and keep nothing per draw: the quantiles are read from the
histogram (_order_statistics).  Reproducibility: every rank is drawn from
one random.Random(seed), so a report is a pure function of (n, m, count,
seed, allow_equal).

Trend tables track the scaled statistics ell * m/n and k * m^3/n^3 across
n, reading the lower medians from the exact strata (stratified_counts) at
every n through the same _order_statistics.
The "stable" flag compares medians against fixed windows; the windows are
heuristic desk-scale calibrations, nothing more.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, isqrt
from typing import Callable, Iterator, Sequence

from .core import ALLOW_EQUAL_DEFAULT, statistics_of
from .enumeration import DEFAULT_NODE_BUDGET, stratified_counts, sum_free_ranking
from .errors import over_budget
from .intset import iter_bits

#: heuristic windows for the scaled medians in trend tables
TREND_ELL_WINDOW = (0.0, 6.0)
TREND_K_WINDOW = (0.0, 8.0)


def _draws(
    n: int, m: int, count: int, seed: int, allow_equal: bool, node_budget: int
) -> tuple[int, Iterator[frozenset]]:
    """The number of sum-free m-subsets of {1, ..., n}, and `count` of them, each the set of a uniform rank.

    Each draw walks m + 1 tree nodes, so more than node_budget of them in
    all refuse (BudgetError) before the count runs.
    """
    if not (0 <= m <= n and count >= 0):
        raise ValueError("need 0 <= m <= n and count >= 0")
    if (nodes := count * (m + 1)) > node_budget:
        raise over_budget(nodes, node_budget, "tree nodes")
    total, unrank = sum_free_ranking(n, m, allow_equal, node_budget)
    if count and not total:
        raise ValueError(f"no sum-free {m}-subset of {{1, ..., {n}}} to draw")
    rng = random.Random(seed)
    return total, (frozenset(iter_bits(unrank(rng.randrange(total)))) for _ in range(count))


def draw_sum_free(
    n: int, m: int, count: int, seed: int, allow_equal: bool = ALLOW_EQUAL_DEFAULT
) -> Iterator[frozenset]:
    """Yield `count` independent uniform sum-free m-subsets of {1, ..., n}.

    The count runs at the call, so its refusal (BudgetError), the draws'
    (count * (m + 1) nodes past the default node budget), or a ValueError
    when there is no such set to draw, comes before any set is drawn.
    """
    return _draws(n, m, count, seed, allow_equal, DEFAULT_NODE_BUDGET)[1]


@dataclass
class SampleReport:
    """Histogram of (ell, k, all-odd) over uniform sum-free samples."""

    n: int
    m: int
    sample_count: int
    seed: int
    histogram: dict[tuple[int, Fraction, bool], int]
    ell_quantiles: tuple
    k_quantiles: tuple
    acceptance: float
    elapsed: float


def _order_statistics(weights: dict, axis: int, ranks: Sequence[int]) -> tuple:
    """Coordinate `axis` of the elements at the given 0-based ranks of the multiset in which each key of a
    key -> weight table appears `weight` times, sorted on that coordinate (the table is sorted once)."""
    keys = sorted(weights, key=lambda key: key[axis])
    ends = list(accumulate(weights[key] for key in keys))  # ends[i]: the rank one past key i's last copy
    return tuple(keys[bisect_right(ends, rank)][axis] for rank in ranks)


def sample_uniform(
    n: int,
    m: int,
    count: int,
    seed: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SampleReport:
    """Draw `count` uniform sum-free m-sets and report their statistics.

    The report keeps only the histogram: quantile level q of ell (or k) is
    the draw of 0-based rank round(q * (count - 1)) in ell (k) order, read
    from it.  acceptance is the exact share of the m-subsets that are
    sum-free.  A count over node_budget refuses (BudgetError) as
    count_sum_free does, and so do draws that walk more than node_budget
    nodes (count * (m + 1)), before the count runs.
    """
    t0 = time.perf_counter()
    total, draws = _draws(n, m, count, seed, allow_equal, node_budget)
    histogram: Counter = Counter()
    for sample in draws:
        st = statistics_of(sample, n)
        histogram[(st.ell, st.k, st.odd_flag)] += 1
    ranks = [round(q * (count - 1)) for q in (0.0, 0.25, 0.5, 0.75, 1.0)] if count else []
    quantiles = (_order_statistics(histogram, axis, ranks) for axis in (0, 1))
    return SampleReport(n, m, count, seed, dict(histogram), *quantiles, total / comb(n, m), time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Trend tables


@dataclass(frozen=True)
class TrendRow:
    n: int
    m: int
    ell_median: Fraction
    k_median: Fraction
    ell_scaled: float  # median(ell) * m / n
    k_scaled: float  # median(k) * m^3 / n^3
    stable: bool  # scaled medians inside the heuristic windows


def parse_m_rule(rule: str) -> Callable[[int], int]:
    """Rules: 'sqrt' (ceil of sqrt), 'half', 'div:K' (ceil n/K), 'fixed:M'."""
    if rule == "sqrt":
        return lambda n: n and isqrt(n - 1) + 1
    if rule == "half":
        return lambda n: (n + 1) // 2
    if rule.startswith("div:"):
        k = int(rule.split(":", 1)[1])
        if k < 1:
            raise ValueError("div:K needs K >= 1")
        return lambda n: -(-n // k)
    if rule.startswith("fixed:"):
        m = int(rule.split(":", 1)[1])
        return lambda n: m
    raise ValueError(f"unknown m rule {rule!r}")


def structure_trend(
    n_list: Sequence[int],
    m_rule: str,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[TrendRow]:
    """Tabulate scaled low-part statistics across n.

    Each row's medians are exact, read from the stratified count of the
    sum-free m-sets, which refuses (BudgetError) past node_budget as
    count_sum_free does; a row with no sum-free m-set is a ValueError
    naming its n and m.
    """
    if any(n < 1 for n in n_list):
        raise ValueError("every n must be >= 1")
    rule = parse_m_rule(m_rule)
    rows = []
    for n in n_list:
        m = rule(n)
        weights = stratified_counts(n, m, allow_equal, node_budget).joint
        if not weights:
            raise ValueError(f"no sum-free {m}-subset of {{1, ..., {n}}}")
        middle = [(sum(weights.values()) - 1) // 2]  # the lower median's rank
        ell_med, k_med = (Fraction(_order_statistics(weights, axis, middle)[0]) for axis in (0, 1))
        ell_scaled = float(ell_med) * m / n
        k_scaled = float(k_med) * m**3 / n**3
        (ell_lo, ell_hi), (k_lo, k_hi) = TREND_ELL_WINDOW, TREND_K_WINDOW
        stable = ell_lo <= ell_scaled <= ell_hi and k_lo <= k_scaled <= k_hi
        rows.append(TrendRow(n, m, ell_med, k_med, ell_scaled, k_scaled, stable))
    return rows
