"""Log-domain values, inequality checkers, moments, and pair graphs."""

import math
import random
import re
from math import comb

import pytest

from sumfree import (
    LogValue,
    build_pair_graph,
    check_binom_inequalities,
    check_gamma_sum,
    empirical_constant,
    janson_quantities,
    log_binom,
    odd_numbers,
    p_star,
    theorem_rhs,
)
from sumfree.bounds import BOUNDS
from sumfree.verify import _janson_oracle_exact


def test_logvalue_arithmetic():
    two = LogValue.of(2)
    three = LogValue.of(3)
    assert (two * three).close(LogValue.of(6))
    zero = LogValue.of(0)
    assert zero.is_zero
    assert (zero * two).is_zero
    assert zero.leq(two) and not two.leq(zero)
    big = LogValue.of(10**400)  # beyond float range, exact integer path
    assert abs(big.log - 400 * math.log(10)) < 1e-6


def test_log_binom_exact_cross_check():
    for a in range(0, 61):
        for b in range(0, a + 1):
            assert log_binom(a, b).close(LogValue.of(comb(a, b)))
    assert log_binom(5, 7).is_zero
    assert log_binom(5, -1).is_zero
    assert log_binom(10, 0).log == 0.0


def test_log_binom_is_exact_for_a_large_first_index():
    # lgamma(a + 1) - lgamma(a - b + 1) cancelled: 2.5e-8 relative at a = 10^9, 1.8% at 10^15
    for a in (10**6, 10**9, 10**12, 10**15):
        for b in (3, 10, 1000):
            assert log_binom(a, b).close(LogValue.of(comb(a, b))), (a, b)
            assert log_binom(a, a - b).close(LogValue.of(comb(a, b))), (a, b)
    for a, b in ((2**16, 2**15), (2**17, 2**16 + 3), (3 * 10**5, 10**5)):  # the smaller index past Stirling's cutoff
        assert log_binom(a, b).close(LogValue.of(comb(a, b))), (a, b)
    assert theorem_rhs("conj", N=1e300, m=2, delta=1).close(LogValue(1380.8579086158675))  # read ln 4


def test_binom_inequality_examples():
    checks = check_binom_inequalities(10, 4, 2, 1)
    by_name = {c.name: c for c in checks}
    # C(10, 2) = 45 <= (4/6)^2 C(10, 4) = 93.33
    assert math.isclose(math.exp(by_name["shift-second-index"].lhs.log), 45)
    assert math.isclose(math.exp(by_name["shift-second-index"].rhs.log), (4 / 6) ** 2 * 210)
    assert all(c.passed for c in checks)


def test_binom_inequality_equality_at_c_zero_d_zero():
    with pytest.raises(ValueError):
        check_binom_inequalities(10, 4, 4, 0)
    # c = 0 is allowed by a > b > c >= 0; both shifts collapse to equality
    checks = check_binom_inequalities(10, 4, 0, 0)
    assert checks[0].lhs.close(checks[0].rhs)
    assert checks[1].lhs.close(checks[1].rhs)


def test_binom_inequality_random_sweep():
    rng = random.Random(99)
    for _ in range(2000):
        a = rng.randint(3, 1000)
        b = rng.randint(2, a - 1)
        c = rng.randint(0, b - 1)
        d = rng.randint(0, b)
        assert all(chk.passed for chk in check_binom_inequalities(a, b, c, d))


def test_gamma_sum_closed_form():
    chk = check_gamma_sum(1, 1.0)
    closed = math.e / (math.e - 1) ** 2  # sum j e^-j
    assert math.isclose(chk.tail_sum, closed, rel_tol=1e-12)
    assert chk.passed


def test_gamma_sum_large_b_dominance():
    chk = check_gamma_sum(1, 20.0)
    assert math.isclose(chk.tail_sum, math.exp(-20), rel_tol=1e-6)
    assert chk.constant < 0.01
    assert chk.passed


def test_gamma_sum_refuses_a_b_it_cannot_sum():
    # no term of these ever fell below 1e-15 of the sum past j = a / b, so the loop never ended
    for b in (math.nan, math.inf, 1e-300):
        with pytest.raises(ValueError, match="b"):
            check_gamma_sum(1, b)
    with pytest.raises(ValueError, match="too small"):
        check_gamma_sum(3, 2e-5)  # at least a / b = 150,000 terms


def test_gamma_sum_in_log_space():
    # j**a overflowed a float long before the term did (OverflowError past a of about 140 at b = 1)
    chk = check_gamma_sum(150, 1.0)
    assert chk.passed and math.isclose(chk.constant, 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError, match=r"a = 1000, b = 1\.0: .* past the float range"):
        check_gamma_sum(1000, 1.0)
    # every term underflowed to 0, so none fell below 1e-15 of the sum and the loop never ended
    chk = check_gamma_sum(1, 1000.0)
    assert chk.passed and chk.tail_sum == chk.constant == 0.0
    assert math.isclose(chk.gamma_bound, 1e-6)


def test_gamma_sum_grid():
    worst = 0.0
    for a in range(1, 11):
        for tenth in range(1, 51):
            chk = check_gamma_sum(a, tenth / 10)
            worst = max(worst, chk.constant)
            assert chk.passed
    assert worst <= 2.0


def test_janson_examples():
    jq = janson_quantities([{1, 2}], 10, 5)
    assert math.isclose(jq.mu.value(), 0.25)
    assert jq.delta.is_zero
    assert math.isclose(jq.bound.value(), math.exp(-0.125))
    jq = janson_quantities([{1, 2}, {3, 4}], 10, 5)
    assert math.isclose(jq.mu.value(), 0.5)
    assert jq.delta.is_zero


def test_janson_refuses_a_family_larger_than_the_ground():
    # no 3-set lies inside a 2-element ground, so mu would be 0, not (2/2)^3 = 1
    for family, ground in (([{1, 2, 3}], 2), ([{1, 2}, {3, 4}, {5}], 4)):
        with pytest.raises(ValueError):
            janson_quantities(family, ground, ground)
    # labels are abstract: a family of 4 labels above the ground's size fits a ground of 4
    assert janson_quantities([{11, 13}, {15, 17}], 4, 2).mu.close(LogValue.of(0.5))


def test_janson_schur_pair_construction():
    # pairs {x, y} of odd numbers with x + y or x - y landing in S = {2}
    n = 10
    odds = list(odd_numbers(n))
    family = []
    for i, x in enumerate(odds):
        for y in odds[i + 1 :]:
            if x + y == 2 or abs(x - y) == 2:
                family.append({x, y})
    assert sorted(map(sorted, family)) == [[1, 3], [3, 5], [5, 7], [7, 9]]
    jq = janson_quantities(family, len(odds), 3)
    mu_x, delta_x = _janson_oracle_exact(family, len(odds), 3)
    assert jq.mu.close(LogValue.of(mu_x))
    assert jq.delta.close(LogValue.of(delta_x))


def test_janson_random_against_exact_oracle():
    rng = random.Random(123)
    for _ in range(300):
        ground = rng.randint(4, 25)
        draw = rng.randint(0, ground)
        family = [
            set(rng.sample(range(1, ground + 1), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 8))
        ]
        jq = janson_quantities(family, ground, draw)
        mu_x, delta_x = _janson_oracle_exact(family, ground, draw)
        assert jq.mu.close(LogValue.of(mu_x))
        assert jq.delta.close(LogValue.of(delta_x))


def test_pair_graph_examples():
    g = build_pair_graph(10, {4})
    assert g.edges == ((6, 10),)
    assert g.edge_count == 1 == 10 // 2 - 4
    g = build_pair_graph(10, {1})
    assert g.edges == ((6, 7), (7, 8), (8, 9), (9, 10))
    assert g.edge_count == 4
    assert g.max_degree == 2


def test_pair_graph_edge_count_and_degree():
    rng = random.Random(7)
    for n in range(2, 201, 2):
        for _ in range(3):
            size = rng.randint(1, max(1, min(6, n // 2)))
            s = rng.sample(range(1, n // 2 + 1), size)
            g = build_pair_graph(n, s)
            assert g.edge_count == sum(n // 2 - x for x in s)
            assert g.max_degree <= 2 * len(s)


def test_pair_graph_exclusion():
    g = build_pair_graph(10, {1}, excluded={8})
    assert g.edges == ((6, 7), (9, 10))
    assert 8 not in g.vertices
    with pytest.raises(ValueError, match="excluded"):  # was accepted without a word
        build_pair_graph(10, {1}, excluded={11})


def test_theorem_rhs_forms():
    parts = theorem_rhs("parts", k=8, ell=3)
    assert math.isclose(parts.log, 3 * math.log(math.e**2 * 8 / 9))
    assert LogValue.of(p_star(8, 3)).leq(parts)
    ce = theorem_rhs("CEthm", n=10, m=3, C=0)
    assert ce.close(log_binom(5, 3))
    ss2 = theorem_rhs("S+S2", ell=10, lam=2, delta=0)
    assert math.isclose(ss2.log, 10 * math.log(5 * math.e / 6))
    ss = theorem_rhs("S+S", k=20, ell=4, c=2, delta=0.5)
    assert math.isclose(ss.log, 0.5 * 4 * math.log(2) + 4 * math.log(2 * 2 * math.e * 20 / 48))
    conj = theorem_rhs("conj", N=20, m=3, delta=0)
    assert conj.close(log_binom(10, 3))
    for delta in (2.0, -2.0):  # no set: the float delta * 0.0, signed like delta
        empty = theorem_rhs("S+S", k=20, ell=0, c=2, delta=delta).log
        assert empty == 0.0 and math.copysign(1.0, empty) == math.copysign(1.0, delta)
    assert theorem_rhs("parts", k=0, ell=0).log == 0.0 and theorem_rhs("parts", k=8, ell=0).log == 0.0
    assert theorem_rhs("parts", k=0, ell=3).log == -math.inf
    with pytest.raises(ValueError):
        theorem_rhs("nope", x=1)


def test_conj_is_the_log_binomial_at_half_of_n():
    # C(N/2, m) on the half-integer grid, by lgamma written out here, and -inf (no set) when m > N/2
    for cap_n in range(0, 41):
        for m in range(0, cap_n // 2 + 3):
            for delta in (0, 0.5, -1.0):
                rhs = theorem_rhs("conj", N=cap_n, m=m, delta=delta).log
                if 2 * m > cap_n:
                    assert rhs == -math.inf, (cap_n, m, delta)
                    continue
                half = cap_n / 2
                expected = delta * m * math.log(2) + math.lgamma(half + 1) - math.lgamma(m + 1) - math.lgamma(half - m + 1)
                assert math.isclose(rhs, expected, rel_tol=1e-12, abs_tol=1e-12), (cap_n, m, delta)


def test_theorem_rhs_stays_finite_where_a_product_overflows():
    # each of these read nan or inf, though every input is finite
    huge = int(1e308)  # the float 1e308, exactly
    assert theorem_rhs("conj", N=3, m=2, delta=1e308).is_zero  # C(1.5, 2) = 0 times 2^(2e308): not inf - inf
    assert theorem_rhs("CEthm", n=100, m=60, C=1e308).is_zero  # C(50, 60) = 0
    entropy = -(7 / 8 * math.log(7 / 8) + 1 / 8 * math.log(1 / 8))
    for got, want in (
        (theorem_rhs("S+S2", ell=5, lam=1e308, delta=1),
         5 * (math.log(4 * huge - 3) - math.log(6) + 1) + 5 * math.log(2)),
        (theorem_rhs("S+S", k=100, ell=2, c=1e308, delta=1),
         2 * (math.log(2 * huge * 100) - math.log(3) + 1 - 2 * math.log(2)) + 2 * math.log(2)),
        # ln C(a, pa) = a H(p) - ln(2 pi a p (1 - p)) / 2 + O(1/a), with a = 8e307 and p = 7/8: s ln x would overflow
        (theorem_rhs("conj", N=1.6e308, m=7e307, delta=0), 8e307 * entropy),
    ):
        assert got.close(LogValue(want)), (got, want)


VALID = dict(n=10, m=3, C=1.0, k=20, ell=4, c=2.0, delta=0.5, lam=2.0, N=20)


def test_theorem_rhs_refuses_missing_and_non_finite_parameters():
    for name, (needs, _ranges, _formula) in BOUNDS.items():
        theorem_rhs(name, **{p: VALID[p] for p in needs})
        for p in needs:
            with pytest.raises(ValueError, match=re.escape(f"{name} needs {', '.join(needs)}; missing {p}")):
                theorem_rhs(name, **{q: VALID[q] for q in needs if q != p})
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{re.escape(name)} needs a finite {p}, not {value}"):
                    theorem_rhs(name, **{**{q: VALID[q] for q in needs}, p: value})
    with pytest.raises(ValueError, match="CEthm needs n, m, C; missing n"):
        theorem_rhs("CEthm", m=3, C=1.0)
    with pytest.raises(ValueError, match="S[+]S2 needs ell, lam, delta; missing lam, delta"):
        theorem_rhs("S+S2", ell=3, lam=None)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite delta"):
            theorem_rhs("conj", N=20, m=3, delta=value)
        with pytest.raises(ValueError, match="finite C"):
            theorem_rhs("CEthm", n=10, m=3, C=value)


def test_theorem_rhs_names_the_parameter_out_of_range():
    # each of these took the log of a value <= 0: "math domain error"
    for name, params, message in (
        ("parts", dict(k=-1, ell=2), "parts needs k >= 0, not -1"),
        ("S+S", dict(k=5, ell=2, c=-1.0, delta=1.0), "S[+]S needs c > 0, not -1.0"),
        ("S+S2", dict(ell=2, lam=0.5, delta=1.0), "S[+]S2 needs lam > 0.75, not 0.5"),
        ("CEthm", dict(n=10, m=0, C=1.0), "CEthm needs m >= 1, not 0"),
    ):
        with pytest.raises(ValueError, match=message):
            theorem_rhs(name, **params)


def test_empirical_constant_examples():
    assert abs(empirical_constant(10, 3, comb(5, 3))) < 1e-12
    assert math.isclose(empirical_constant(4, 2, 4), 1.0)
    assert empirical_constant(4, 2, 0) is None
    # may legitimately go negative for undercounts
    assert empirical_constant(10, 3, 1) < 0
    assert empirical_constant(9, 5, 1) == 0.0  # m = ceil(n/2): the top half itself
    for m in (-1, 6, 20):
        with pytest.raises(ValueError):
            empirical_constant(10, m, 5)
