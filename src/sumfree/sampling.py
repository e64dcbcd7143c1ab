"""Uniform random sum-free m-sets, exact by unranking on the count memo, and structure trend tables.

sum_free_ranking counts the sum-free m-sets as count_sum_free(n, m) does,
over the low prefixes and their upper completions, so it knows how many
m-sets each prefix completes to.  A draw takes a uniform rank below the
total and unranks it on those counts and on the count's memo, so every
draw is exactly uniform over the sum-free m-sets, and the sampler refuses
only as that count does, through its node budget.

Reports histogram the low-part statistics (ell, k, all-odd flag) of the
samples.  Reproducibility: every rank is drawn from one
random.Random(seed), so a report is a pure function of (n, m, count,
seed, allow_equal).

Trend tables track the scaled statistics ell * m/n and k * m^3/n^3 across
n, using exact strata up to n = TREND_EXACT_LIMIT and sampling beyond.
The "stable" flag compares medians against fixed windows; the windows are
heuristic desk-scale calibrations, nothing more.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable, Iterator, Sequence

from .core import ALLOW_EQUAL_DEFAULT, statistics_of
from .enumeration import DEFAULT_NODE_BUDGET, stratified_counts, sum_free_ranking
from .intset import iter_bits

#: trend tables use exact strata up to this n, samples beyond it
TREND_EXACT_LIMIT = 26
#: heuristic windows for the scaled medians in trend tables
TREND_ELL_WINDOW = (0.0, 6.0)
TREND_K_WINDOW = (0.0, 8.0)


def _draws(
    n: int, m: int, count: int, seed: int, allow_equal: bool, node_budget: int
) -> tuple[int, Iterator[frozenset]]:
    """The number of sum-free m-subsets of {1, ..., n}, and `count` of them, each the set of a uniform rank."""
    if not (0 <= m <= n and count >= 0):
        raise ValueError("need 0 <= m <= n and count >= 0")
    total, unrank = sum_free_ranking(n, m, allow_equal, node_budget)
    if count and not total:
        raise ValueError(f"no sum-free {m}-subset of {{1, ..., {n}}} to draw")
    rng = random.Random(seed)
    return total, (frozenset(iter_bits(unrank(rng.randrange(total)))) for _ in range(count))


def draw_sum_free(
    n: int, m: int, count: int, seed: int, allow_equal: bool = ALLOW_EQUAL_DEFAULT
) -> Iterator[frozenset]:
    """Yield `count` independent uniform sum-free m-subsets of {1, ..., n}.

    The count runs at the call, so its refusal (BudgetError), or a ValueError
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


def _quantiles(sorted_vals: Sequence) -> tuple:
    if not sorted_vals:
        return ()
    last = len(sorted_vals) - 1
    return tuple(sorted_vals[round(q * last)] for q in (0.0, 0.25, 0.5, 0.75, 1.0))


def sample_uniform(
    n: int,
    m: int,
    count: int,
    seed: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SampleReport:
    """Draw `count` uniform sum-free m-sets and report their statistics.

    acceptance is the exact share of the m-subsets that are sum-free.  A
    count over node_budget refuses (BudgetError) as count_sum_free does.
    """
    t0 = time.perf_counter()
    total, draws = _draws(n, m, count, seed, allow_equal, node_budget)
    histogram: Counter = Counter()
    ells: list[int] = []
    ks: list[Fraction] = []
    for sample in draws:
        st = statistics_of(sample, n)
        histogram[(st.ell, st.k, st.odd_flag)] += 1
        ells.append(st.ell)
        ks.append(st.k)
    quantiles = _quantiles(sorted(ells)), _quantiles(sorted(ks))
    return SampleReport(n, m, count, seed, dict(histogram), *quantiles, total / comb(n, m), time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Trend tables


@dataclass(frozen=True)
class TrendRow:
    n: int
    m: int
    method: str  # "exact" or "sampled"
    ell_median: Fraction
    k_median: Fraction
    ell_scaled: float  # median(ell) * m / n
    k_scaled: float  # median(k) * m^3 / n^3
    stable: bool  # scaled medians inside the heuristic windows


def _weighted_median(weights: dict, axis: int) -> Fraction:
    """Median of coordinate `axis` of the keys of a key -> weight table (smallest value reaching half mass)."""
    total = sum(weights.values())
    acc = 0
    for key, w in sorted(weights.items(), key=lambda item: item[0][axis]):
        acc += w
        if 2 * acc >= total:
            return Fraction(key[axis])
    raise ValueError("empty distribution")


def parse_m_rule(rule) -> Callable[[int], int]:
    """Rules: 'sqrt' (ceil of sqrt), 'half', 'div:K' (ceil n/K), 'fixed:M'."""
    if callable(rule):
        return rule
    if rule == "sqrt":
        return lambda n: isqrt(n) if isqrt(n) ** 2 == n else isqrt(n) + 1
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
    m_rule,
    count: int,
    seed: int,
    allow_equal: bool = ALLOW_EQUAL_DEFAULT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[TrendRow]:
    """Tabulate scaled low-part statistics across n.

    For n <= TREND_EXACT_LIMIT the distribution is the exact stratified
    count; beyond that, `count` uniform samples are used.  Both refuse
    (BudgetError) past node_budget, as count_sum_free does.
    """
    if any(n < 1 for n in n_list):
        raise ValueError("every n must be >= 1")
    rule = parse_m_rule(m_rule)
    rows = []
    for n in n_list:
        m = rule(n)
        if n <= TREND_EXACT_LIMIT:
            method, weights = "exact", stratified_counts(n, m, allow_equal, node_budget).joint
        else:
            method, weights = "sampled", Counter()  # (ell, k) -> samples
            for (ell, k, _odd), c in sample_uniform(n, m, count, seed, allow_equal, node_budget).histogram.items():
                weights[ell, k] += c
        ell_med = _weighted_median(weights, 0)
        k_med = _weighted_median(weights, 1)
        ell_scaled = float(ell_med) * m / n
        k_scaled = float(k_med) * m**3 / n**3
        (ell_lo, ell_hi), (k_lo, k_hi) = TREND_ELL_WINDOW, TREND_K_WINDOW
        stable = ell_lo <= ell_scaled <= ell_hi and k_lo <= k_scaled <= k_hi
        rows.append(TrendRow(n, m, method, ell_med, k_med, ell_scaled, k_scaled, stable))
    return rows
