"""Rejection sampler: correctness, determinism, uniformity, trend tables."""

from collections import Counter

import pytest
from scipy.stats import chi2

from sumfree import sampling
from sumfree.cli import main
from sumfree import (
    BudgetError,
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


def test_infeasible_acceptance_is_refused():
    with pytest.raises(BudgetError) as err:
        sample_uniform(10, 5, 10, seed=0, min_acceptance=0.5)
    assert "enumeration" in str(err.value)


def test_histogram_mass_and_quantiles():
    rep = sample_uniform(16, 5, 500, seed=3)
    assert sum(rep.histogram.values()) == 500
    assert len(rep.ell_quantiles) == 5
    assert rep.ell_quantiles[0] <= rep.ell_quantiles[2] <= rep.ell_quantiles[-1]


def test_chi_square_uniformity_quick():
    support = [s.to_set() for s in enumerate_sum_free(12, 3)]
    threshold = chi2.ppf(0.999, len(support) - 1)
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
    rows = structure_trend([24], lambda n: 6, count=10, seed=0)
    row = rows[0]
    assert row.method == "exact"
    table = stratified_counts(24, 6)
    ell_counts = Counter()
    for (ell, _k), c in table.joint.items():
        ell_counts[ell] += c
    total = sum(ell_counts.values())
    acc = 0
    for ell in sorted(ell_counts):
        acc += ell_counts[ell]
        if 2 * acc >= total:
            assert row.ell_median == ell
            break


def test_trend_degenerate_m1():
    rows = structure_trend([8], "fixed:1", count=50, seed=1)
    assert rows[0].ell_median in (0, 1)
    assert rows[0].k_scaled < 1


def test_trend_sampled_path():
    rows = structure_trend([30], "sqrt", count=400, seed=5)
    assert rows[0].method == "sampled"
    assert rows[0].m == 6
    assert rows[0].ell_scaled >= 0


def test_trend_extremal_regime_small_ell():
    # m = ceil(n/2): the only sum-free sets are near-extremal, ell stays tiny
    rows = structure_trend([16, 20], "half", count=10, seed=0)
    for row in rows:
        assert row.method == "exact"
        assert row.ell_median <= 2


def test_pilot_estimate_above_exact_limit(monkeypatch, capsys):
    # above EXACT_COUNT_LIMIT the acceptance rate comes from a seeded pilot stream
    monkeypatch.setattr(sampling, "PILOT_DRAWS", 2000)
    a = sample_uniform(40, 7, 10, seed=3)
    assert sum(a.histogram.values()) == 10
    assert a.acceptance == sample_uniform(40, 7, 10, seed=3).acceptance > 0
    assert main(["sample", "--n", "40", "--m", "7", "--count", "10"]) == 0
    assert "histogram" in capsys.readouterr().out
