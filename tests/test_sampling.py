"""Sampler by unranking on the count memo: rank order, refusals, determinism, uniformity, trend tables."""

import tracemalloc
from collections import Counter
from math import comb

import pytest

from sumfree.cli import main
from sumfree.enumeration import sum_free_ranking
from sumfree.sampling import parse_m_rule
from sumfree.verify import chi2_quantile
from sumfree import (
    BudgetError,
    count_sum_free,
    draw_sum_free,
    enumerate_sum_free,
    is_sum_free,
    sample_uniform,
    stratified_counts,
    structure_trend,
)


def test_samples_are_sum_free():
    for s in draw_sum_free(10, 5, 100, seed=1):
        assert is_sum_free(s)
    for s in draw_sum_free(14, 4, 100, seed=2, allow_equal=False):
        assert is_sum_free(s, allow_equal=False)


def test_seed_determinism():
    a = sample_uniform(12, 4, 300, seed=42)
    b = sample_uniform(12, 4, 300, seed=42)
    assert a.histogram == b.histogram
    assert a.ell_quantiles == b.ell_quantiles and a.k_quantiles == b.k_quantiles
    c = sample_uniform(12, 4, 300, seed=43)
    assert c.histogram != a.histogram


@pytest.mark.parametrize("allow_equal", (True, False))
def test_every_rank_unranks_to_the_listing_order(allow_equal):
    # a uniform rank is then a uniform set; m runs past the largest sum-free size, where the count is 0
    for n in range(17):
        for m in range(n + 2):
            total, unrank = sum_free_ranking(n, m, allow_equal)
            listing = [s.bits for s in enumerate_sum_free(n, m, allow_equal=allow_equal)]
            assert [unrank(rank) for rank in range(total)] == listing, (n, m)


def test_refusals_come_from_the_count(capsys):
    # the one refusal is the count's node budget, with the count's error and partial; here up front
    with pytest.raises(BudgetError) as counted:
        count_sum_free(20, 5, node_budget=100)
    with pytest.raises(BudgetError) as sampled:
        sample_uniform(20, 5, 1, seed=0, node_budget=100)
    assert (str(sampled.value), sampled.value.estimate) == (str(counted.value), counted.value.estimate)
    assert sampled.value.partial is counted.value.partial is None  # refused by the lower bound, before any search
    assert main(["sample", "--n", "20", "--m", "5", "--count", "1", "--budget", "100"]) == 3
    # no sum-free 6-subset of {1, ..., 10} to draw from: a usage error with one line
    assert main(["sample", "--n", "10", "--m", "6", "--count", "5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.endswith("error: no sum-free 6-subset of {1, ..., 10} to draw\n")


def test_histogram_mass_and_quantiles():
    rep = sample_uniform(16, 5, 500, seed=3)
    assert sum(rep.histogram.values()) == 500
    assert len(rep.ell_quantiles) == 5
    assert rep.ell_quantiles[0] <= rep.ell_quantiles[2] <= rep.ell_quantiles[-1]


@pytest.mark.parametrize("count", (1, 2, 4, 7, 8, 500))
def test_quantiles_are_the_draws_at_their_ranks(count):
    # the oracle: the report's histogram expanded into its sorted ells and ks, level q at rank round(q * (count - 1))
    rep = sample_uniform(16, 5, count, seed=count)
    ells = sorted(ell for (ell, _k, _odd), c in rep.histogram.items() for _ in range(c))
    ks = sorted(k for (_ell, k, _odd), c in rep.histogram.items() for _ in range(c))
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert rep.ell_quantiles == tuple(ells[round(q * (count - 1))] for q in levels)
    assert rep.k_quantiles == tuple(ks[round(q * (count - 1))] for q in levels)
    assert sample_uniform(16, 5, 0, seed=0).ell_quantiles == ()


def test_report_memory_does_not_grow_with_the_count():
    sample_uniform(8, 2, 10, seed=1)  # imports and first-call caches outside the trace
    tracemalloc.start()
    try:
        sample_uniform(8, 2, 10**4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_draws_are_budgeted_before_the_count(capsys):
    # each draw walks m + 1 nodes; the count of (12, 3) walks 210, well under the draws' 1,000
    assert count_sum_free(12, 3).nodes < 250 * 4
    assert sum(sample_uniform(12, 3, 250, seed=0, node_budget=250 * 4).histogram.values()) == 250
    with pytest.raises(BudgetError, match=r"needs at least 1000 tree nodes, past the budget \(999\)$"):
        sample_uniform(12, 3, 250, seed=0, node_budget=250 * 4 - 1)
    assert main(["sample", "--n", "8", "--m", "2", "--count", "99999999999999999999999"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"needs at least {99999999999999999999999 * 3} tree nodes" in err


def test_chi2_quantile_matches_reference_values():
    # scipy.stats.chi2.ppf(p, df), scipy 1.17.1; df = 136 is the (12, 3) support less one, as the checks use
    reference = {
        (0.5, 1): 0.454936423119572,
        (0.95, 1): 3.841458820694124,
        (0.999, 2): 13.815510557964274,
        (0.95, 10): 18.307038053275146,
        (0.999, 10): 29.58829844507442,
        (0.5, 136): 135.33391742963482,
        (0.999, 136): 192.70716872129785,
    }
    for (p, df), want in reference.items():
        assert chi2_quantile(p, df) == pytest.approx(want, rel=1e-11), (p, df)


def test_chi_square_uniformity_quick():
    support = [frozenset(s) for s in enumerate_sum_free(12, 3)]
    threshold = chi2_quantile(0.999, len(support) - 1)
    for seed in (0, 1):
        counts = Counter()
        for s in draw_sum_free(12, 3, 3000, seed=seed):
            counts[s] += 1
        expected = 3000 / len(support)
        stat = sum((counts.get(s, 0) - expected) ** 2 / expected for s in support)
        assert stat < threshold


def test_empirical_matches_exact_distribution_tv():
    # total-variation distance between sampled and exact (ell, k) histograms
    n, m, draws = 16, 4, 100_000
    table = stratified_counts(n, m)
    exact_total = table.total
    rep = sample_uniform(n, m, draws, seed=11)
    sampled = Counter()
    for (ell, k, _odd), c in rep.histogram.items():
        sampled[(ell, k)] += c
    keys = set(table.joint) | set(sampled)
    tv = sum(
        abs(table.joint.get(key, 0) / exact_total - sampled.get(key, 0) / draws) for key in keys
    ) / 2
    assert tv <= 0.05


def test_trend_exact_path_matches_strata():
    # past n = 26 the medians were estimated from samples; every row now reads the strata
    for row in structure_trend([24, 30, 40], "fixed:6"):
        joint = stratified_counts(row.n, 6).joint
        total = sum(joint.values())
        for axis, median in ((0, row.ell_median), (1, row.k_median)):
            marginal = Counter()
            for key, c in joint.items():
                marginal[key[axis]] += c
            acc = 0
            for value in sorted(marginal):
                acc += marginal[value]
                if 2 * acc >= total:
                    assert median == value, (row.n, axis)
                    break


def test_sqrt_rule_is_the_least_m_whose_square_reaches_n():
    rule = parse_m_rule("sqrt")
    assert rule(0) == 0
    for n in [*range(1, 10**4 + 1), 10**40 - 1, 10**40, 10**40 + 1]:
        m = rule(n)
        assert m * m >= n > (m - 1) * (m - 1), n


def test_trend_degenerate_m1():
    rows = structure_trend([8], "fixed:1")
    assert rows[0].ell_median in (0, 1)
    assert rows[0].k_scaled < 1


def test_trend_extremal_regime_small_ell():
    # m = ceil(n/2): the only sum-free sets are near-extremal, ell stays tiny
    for row in structure_trend([16, 20], "half"):
        assert row.ell_median <= 2


def test_acceptance_is_exact_above_32(capsys):
    rep = sample_uniform(40, 7, 10, seed=3)
    assert sum(rep.histogram.values()) == 10
    assert rep.acceptance == count_sum_free(40, 7).total / comb(40, 7)
    assert main(["sample", "--n", "40", "--m", "7", "--count", "10"]) == 0
    assert "histogram" in capsys.readouterr().out
