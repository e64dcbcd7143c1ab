"""Uniform random sum-free m-sets by rejection, and structure trend tables.

A uniform m-subset of {1, ..., n} conditioned on being sum-free is drawn
by straight rejection, so every accepted set is exactly uniform over the
sum-free m-sets.  Rejection is refused when the estimated acceptance rate
falls below min_acceptance (exact counts are used for the estimate when
the universe is small enough, a pilot stream otherwise); exact enumeration
is the right tool in that regime.

Reports histogram the low-part statistics (ell, k, all-odd flag) of the
samples.  Reproducibility: the seed derives the one stream all samples
are drawn from, so a report is a pure function of (n, m, count, seed).

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
from typing import Callable, Iterable, Sequence

from .core import ALLOW_EQUAL_DEFAULT, is_sum_free, statistics_of
from .enumeration import count_sum_free, stratified_counts
from .errors import BudgetError

MIN_ACCEPTANCE = 1e-6
EXACT_COUNT_LIMIT = 32  # universes this small get exact acceptance estimates
PILOT_DRAWS = 200_000

#: trend tables use exact strata up to this n, samples beyond it
TREND_EXACT_LIMIT = 26
#: heuristic windows for the scaled medians in trend tables
TREND_ELL_WINDOW = (0.0, 6.0)
TREND_K_WINDOW = (0.0, 8.0)


def acceptance_estimate(n: int, m: int, seed: int = 0, allow_equal: bool = ALLOW_EQUAL_DEFAULT) -> float:
    """Estimated probability that a uniform m-subset of {1, ..., n} is sum-free."""
    if n <= EXACT_COUNT_LIMIT:
        return count_sum_free(n, m, allow_equal=allow_equal).total / comb(n, m)
    rng = random.Random(f"{seed}:pilot")
    hits = sum(
        1 for _ in range(PILOT_DRAWS) if is_sum_free(rng.sample(range(1, n + 1), m), allow_equal)
    )
    return hits / PILOT_DRAWS


def draw_sum_free(
    n: int, m: int, count: int, seed: int, allow_equal: bool = ALLOW_EQUAL_DEFAULT
) -> Iterable[frozenset]:
    """Yield `count` independent uniform sum-free m-subsets of {1, ..., n}."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        candidate = frozenset(rng.sample(range(1, n + 1), m))
        if is_sum_free(candidate, allow_equal):
            produced += 1
            yield candidate


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
    min_acceptance: float = MIN_ACCEPTANCE,
) -> SampleReport:
    """Draw `count` uniform sum-free m-sets and report their statistics.

    Refuses (BudgetError) when the estimated acceptance rate is below
    min_acceptance; exact enumeration should be used instead.
    """
    t0 = time.perf_counter()
    if not (0 <= m <= n):
        raise ValueError("need 0 <= m <= n")
    if count < 0:
        raise ValueError("need count >= 0")
    rate = acceptance_estimate(n, m, seed=seed, allow_equal=allow_equal)
    if rate < min_acceptance:
        raise BudgetError(
            f"rejection sampling infeasible (estimated acceptance {rate:.2e}); "
            "use exact enumeration instead",
            estimate=rate,
        )
    histogram: Counter = Counter()
    ells: list[int] = []
    ks: list[Fraction] = []
    for sample in draw_sum_free(n, m, count, random.Random(seed).getrandbits(64), allow_equal):
        st = statistics_of(sample, n)
        histogram[(st.ell, st.k, st.odd_flag)] += 1
        ells.append(st.ell)
        ks.append(st.k)
    ells.sort()
    ks.sort()
    return SampleReport(
        n=n,
        m=m,
        sample_count=count,
        seed=seed,
        histogram=dict(histogram),
        ell_quantiles=_quantiles(ells),
        k_quantiles=_quantiles(ks),
        acceptance=rate,
        elapsed=time.perf_counter() - t0,
    )


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
) -> list[TrendRow]:
    """Tabulate scaled low-part statistics across n.

    For n <= TREND_EXACT_LIMIT the distribution is the exact stratified
    count; beyond that, `count` uniform samples are used.
    """
    if any(n < 1 for n in n_list):
        raise ValueError("every n must be >= 1")
    rule = parse_m_rule(m_rule)
    rows = []
    for n in n_list:
        m = rule(n)
        if n <= TREND_EXACT_LIMIT:
            method, weights = "exact", stratified_counts(n, m, allow_equal=allow_equal).joint
        else:
            method, weights = "sampled", Counter()  # (ell, k) -> samples
            for (ell, k, _odd), c in sample_uniform(n, m, count, seed, allow_equal=allow_equal).histogram.items():
                weights[ell, k] += c
        ell_med = _weighted_median(weights, 0)
        k_med = _weighted_median(weights, 1)
        ell_scaled = float(ell_med) * m / n
        k_scaled = float(k_med) * m**3 / n**3
        stable = (
            TREND_ELL_WINDOW[0] <= ell_scaled <= TREND_ELL_WINDOW[1]
            and TREND_K_WINDOW[0] <= k_scaled <= TREND_K_WINDOW[1]
        )
        rows.append(
            TrendRow(
                n=n,
                m=m,
                method=method,
                ell_median=ell_med,
                k_median=k_med,
                ell_scaled=ell_scaled,
                k_scaled=k_scaled,
                stable=stable,
            )
        )
    return rows
