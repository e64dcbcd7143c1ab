"""Acceptance checks: one gate for the test suite and `sumfree verify`.

Each criterion is declared once, by `@criterion(cid, name, seconds=...)`
on a check that returns (passed, detail).  The decorator times the check,
fails it at or past its time bound, and appends it to ALL_CHECKS, which
tests/test_acceptance.py and `sumfree verify` both run.

Each check is exact or uses the frozen tolerance recorded next to it (log
comparisons use bounds.REL_TOL, the gamma tail sums bounds.GAMMA_CAP); the
"small" scale shrinks ranges for a quick smoke run, the "full" scale is
the real gate.  Frozen desk-scale calibrations (first exact run, then
fixed; any later regression fails):

- count_growth: count(n)/2^(n/2) for even n in [10, 40] lies in [1, 14],
  increases through n = 36, and is flat within 0.2 afterwards (13.5, at
  n = 40, is the highest value seen at desk scale, not a limit: past
  n = 40 the ratio falls for even and odd n alike); the inverted count
  constant C*(n, m) stays below 4 for every m >= sqrt(n).
- lower_bound: the window {ceil(n/2)-a, ..., n} with a = floor(0.05 n^2/m^2)
  has distinct-summand sum-free probability >= exp(-0.05 n / (2m)).  The
  x + x = z pairs are excluded here: with them the pinned constant 0.05
  fails at desk scale (n = 16, m = 4 gives probability 5/6 < e^-0.1), and
  no fixed constant works at these n.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import comb, exp, gcd, isqrt

from .bounds import (
    GAMMA_CAP,
    LogValue,
    build_pair_graph,
    check_binom_inequalities,
    check_gamma_sum,
    empirical_constant,
    janson_quantities,
    theorem_rhs,
)
from .enumeration import count_in_window, count_oracle, count_sum_free, enumerate_sum_free
from .intset import bits_of
from .partitions import DEFAULT_BUDGET, count_restricted, p, p_star, sumset_size_profile
from .sampling import draw_sum_free
from .sumsets import b_set, freiman_cover, span, sumset, sumsetbits

# frozen caps (see module docstring)
RATIO_LO = 1.0
RATIO_HI = 14.0
RATIO_RISE_THROUGH = 36
RATIO_FLAT_TOL = 0.2
CSTAR_CAP = 4.0
WINDOW_C = 0.05


@dataclass
class CheckResult:
    cid: str
    name: str
    passed: bool
    detail: str
    elapsed: float

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:>2}: {self.name} ({self.elapsed:.1f}s) - {self.detail}"


#: the declared criteria in declaration order; each takes the scale and returns a CheckResult
ALL_CHECKS = []


def criterion(cid: str, name: str, seconds: float | None = None):
    """Declare a check, returning (passed, detail), as criterion `cid` and append it to ALL_CHECKS.

    The declared check takes the scale and returns a timed CheckResult; one
    that takes `seconds` or longer fails, whatever its own verdict.
    """

    def declare(check):
        @wraps(check)
        def timed(scale: str = "full") -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = check(scale)
            elapsed = time.perf_counter() - t0
            if seconds is not None and elapsed >= seconds:
                passed, detail = False, f"{detail}; over its {seconds} s bound"
            return CheckResult(cid, name, passed, detail, elapsed)

        ALL_CHECKS.append(timed)
        return timed

    return declare


# ----------------------------------------------------------------------


@criterion("1", "oracle equivalence", seconds=120)
def check_oracle_equivalence(scale: str = "full") -> tuple[bool, str]:
    """1. Search equals the subset oracle for every n, m and both conventions."""
    nmax = 20 if scale == "full" else 12
    bad = []
    for allow_equal in (True, False):
        for n in range(1, nmax + 1):
            a = count_oracle(n, allow_equal=allow_equal)
            b = count_sum_free(n, allow_equal=allow_equal)
            if a.by_size != b.by_size:
                bad.append((n, allow_equal))
    detail = f"n <= {nmax}, all m, both conventions; mismatches: {bad}"
    return not bad, detail


@criterion("2", "pinned partition values")
def check_pinned_partition_values(scale: str = "full") -> tuple[bool, str]:
    """2. p(3) = 3 and p*_3(8) = 2 exactly."""
    ok = p(3) == 3 and p_star(8, 3) == 2
    return ok, f"p(3)={p(3)}, p*(8,3)={p_star(8, 3)}"


@criterion("3", "distinct-parts bound", seconds=10)
def check_distinct_parts_bound(scale: str = "full") -> tuple[bool, str]:
    """3. p*(k, ell) < (e^2 k / ell^2)^ell for all ell >= 1, staircase <= k <= 120."""
    kmax = 120 if scale == "full" else 60
    violations = 0
    cells = 0
    for ell in range(1, 16):
        lo = ell * (ell + 1) // 2
        if lo > kmax:
            break
        for k in range(lo, kmax + 1):
            cells += 1
            lhs = LogValue.of(p_star(k, ell))
            if not lhs.log < theorem_rhs("parts", k=k, ell=ell).log:
                violations += 1
    return violations == 0, f"{cells} cells, {violations} violations"


@criterion("4", "count growth caps", seconds=600)
def check_count_growth(scale: str = "full") -> tuple[bool, str]:
    """4. Frozen growth caps: ratio in [1, 14], rise-then-flat; C* <= 4 for m >= sqrt(n)."""
    nmax = 40 if scale == "full" else 24
    ratios = {}
    cstar_max = (None, -math.inf)
    problems = []
    for n in range(10, nmax + 1, 2):
        res = count_sum_free(n)
        ratio = res.total / 2 ** (n // 2)
        ratios[n] = ratio
        if not RATIO_LO <= ratio <= RATIO_HI:
            problems.append(f"ratio({n})={ratio:.3f} outside [{RATIO_LO}, {RATIO_HI}]")
        for m, c in res.by_size.items():
            if m * m >= n and c > 0:
                cs = empirical_constant(n, m, c)
                if cs > cstar_max[1]:
                    cstar_max = ((n, m), cs)
                if cs > CSTAR_CAP:
                    problems.append(f"C*({n},{m})={cs:.3f} > {CSTAR_CAP}")
    ns = sorted(ratios)
    for prev, cur in zip(ns, ns[1:]):
        if cur <= RATIO_RISE_THROUGH and ratios[cur] <= ratios[prev]:
            problems.append(f"ratio not rising at n={cur}")
        if cur > RATIO_RISE_THROUGH and abs(ratios[cur] - ratios[prev]) > RATIO_FLAT_TOL:
            problems.append(f"ratio not flat at n={cur}")
    detail = (
        f"ratios {ratios[ns[0]]:.2f}..{ratios[ns[-1]]:.2f} (max {max(ratios.values()):.2f}), "
        f"max C*={cstar_max[1]:.3f} at {cstar_max[0]}; problems: {problems}"
    )
    return not problems, detail


@criterion("5", "lower-bound construction", seconds=60)
def check_lower_bound(scale: str = "full") -> tuple[bool, str]:
    """5. count(n, m) >= C(ceil(n/2), m); window probability >= exp(-0.05 n/(2m)).

    The probability clause uses the distinct-summand convention (see the
    module docstring for why the pinned constant forces that choice).
    """
    ns = range(16, 29, 2) if scale == "full" else range(16, 21, 2)
    problems = []
    for n in ns:
        res = count_sum_free(n)
        mlo = isqrt(n) if isqrt(n) ** 2 == n else isqrt(n) + 1
        for m in range(mlo, n // 2 + 1):
            if res.by_size.get(m, 0) < comb((n + 1) // 2, m):
                problems.append(f"count({n},{m}) below binomial witness")
            a = int(WINDOW_C * n * n / (m * m))
            w = count_in_window(n, a, m, allow_equal=False)
            bound = exp(-WINDOW_C * n / (2 * m))
            if float(w.probability) < bound:
                problems.append(
                    f"window({n},a={a},{m}) probability {float(w.probability):.4f} < {bound:.4f}"
                )
    return not problems, f"problems: {problems}"


@criterion("6", "progression covers", seconds=120)
def check_freiman_exhaustive(scale: str = "full") -> tuple[bool, str]:
    """6. Small-doubling sets get a progression cover of length <= |S+S| - |S| + 1."""
    vmax = 40 if scale == "full" else 24
    checked = 0
    failures = []
    for size in (3, 4, 5):
        for rest in combinations(range(2, vmax + 1), size - 1):
            s = (1,) + rest
            g = 0
            for x, y in zip(s, s[1:]):
                g = gcd(g, y - x)
            if g != 1:
                continue
            bits = bits_of(s)
            ss = sumsetbits(bits).bit_count()
            if ss > 3 * size - 4:
                continue
            checked += 1
            cover = freiman_cover(s)
            if cover is None or not cover.contains(s) or cover.length > ss - size + 1:
                failures.append(s)
    detail = f"{checked} small-doubling sets (max element {vmax}), failures: {failures[:5]}"
    return not failures, detail


@criterion("7", "translate-set bound", seconds=60)
def check_b_set_bound(scale: str = "full") -> tuple[bool, str]:
    """7. |b_set(S, d)| <= |S+S| / (1 - d) on random sets."""
    cases = 10_000 if scale == "full" else 1_000
    rng = random.Random(1707)
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    failures = 0
    for i in range(cases):
        size = rng.randint(1, 12)
        s = rng.sample(range(1, 61), size)
        d = deltas[i % 3]
        bs = b_set(s, d)
        ss = len(sumset(s))
        if len(bs) * (1 - d) > ss:
            failures += 1
    return failures == 0, f"{cases} cases, {failures} failures"


@criterion("8", "span identity")
def check_span_identity(scale: str = "full") -> tuple[bool, str]:
    """8. span(S + S) = 2 span(S) on random sets."""
    cases = 10_000 if scale == "full" else 1_000
    rng = random.Random(88)
    failures = 0
    for _ in range(cases):
        size = rng.randint(1, 14)
        s = rng.sample(range(1, 200), size)
        if span(sumset(s)) != 2 * span(s):
            failures += 1
    return failures == 0, f"{cases} cases, {failures} failures"


def _janson_oracle_exact(family, ground_size, draw_size):
    """Independent exact-rational double loop for mu and Delta."""
    q = Fraction(draw_size, ground_size)
    sets = [frozenset(u) for u in family]
    mu = sum(q ** len(u) for u in sets)
    delta = Fraction(0)
    for i, u in enumerate(sets):
        for j, w in enumerate(sets):
            if i != j and u & w:
                delta += q ** len(u | w)
    return mu, delta


@criterion("9", "moment quantities and pair graph", seconds=60)
def check_janson_and_pair_graph(scale: str = "full") -> tuple[bool, str]:
    """9. mu/Delta match an exact oracle; pair-graph has k edges, degree <= 2|S|."""
    fams = 1000 if scale == "full" else 200
    rng = random.Random(41)
    problems = []
    for _ in range(fams):
        ground = rng.randint(6, 30)
        draw = rng.randint(1, ground)
        family = [
            frozenset(rng.sample(range(1, ground + 1), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 10))
        ]
        jq = janson_quantities(family, ground, draw)
        mu_x, delta_x = _janson_oracle_exact(family, ground, draw)
        if not jq.mu.close(LogValue.of(mu_x)):
            problems.append(("mu", family, ground, draw))
        if not jq.delta.close(LogValue.of(delta_x)):
            problems.append(("delta", family, ground, draw))
    nmax = 200 if scale == "full" else 60
    for n in range(2, nmax + 1, 2):
        for _ in range(3):
            size = rng.randint(1, max(1, min(8, n // 2)))
            s = rng.sample(range(1, n // 2 + 1), min(size, n // 2))
            g = build_pair_graph(n, s)
            expected = sum(n // 2 - x for x in s)
            if g.edge_count != expected:
                problems.append(("edges", n, tuple(s), g.edge_count, expected))
            if g.max_degree > 2 * len(s):
                problems.append(("degree", n, tuple(s)))
    return not problems, f"problems: {problems[:3]}"


def restricted_ratio_table(kmax: int = 90, ellmax: int = 12, budget: int = DEFAULT_BUDGET):
    """Rows (k, ell, family, parameter, cap, count, rhs_log, log-ratio or None).

    family "per-sum" caps are floor(c k / ell) with the matching bound
    2^ell (2 c e k / (3 ell^2))^ell; family "per-size" caps are
    floor(lam * ell) with 2^ell ((4 lam - 3) e / 6)^ell, asserted only on
    its hypothesis range k <= ell^2.  The table enumerates at most `budget`
    candidates in all: each cell's profile gets what the cells before it
    left, and refuses (BudgetError) past it.  A negative kmax or ellmax
    raises ValueError.
    """
    if kmax < 0 or ellmax < 0:
        raise ValueError(f"need kmax >= 0 and ellmax >= 0, not {kmax}, {ellmax}")
    rows = []
    left = budget
    for ell in range(1, ellmax + 1):
        for k in range(ell * (ell + 1) // 2, kmax + 1):
            profile = sumset_size_profile(k, ell, budget=left)
            left -= sum(profile.values())
            families = (("per-sum", "S+S", "c", lambda c: int(c * k / ell)),
                        ("per-size", "S+S2", "lam", lambda lam: int(lam * ell)))
            for family, name, key, cap_of in families:
                for param in (2, 2.5, 3):
                    cap = cap_of(param)
                    count = sum(c for size, c in profile.items() if size <= cap)
                    rhs = theorem_rhs(name, k=k, ell=ell, delta=1, **{key: param}).log
                    ratio = LogValue.of(count).log - rhs if count else None
                    rows.append((k, ell, family, param, cap, count, rhs, ratio))
    return rows


@criterion("10", "restricted-count tables", seconds=300)
def check_restricted_tables(scale: str = "full") -> tuple[bool, str]:
    """10. Restricted counts stay below the delta=1 closed forms; ratios reported.

    The per-size family is asserted on its hypothesis range k <= ell^2
    only (outside it the bound is simply false at desk scale: ell = 3,
    k = 90, lam = 3 has 631 unconstrained sets versus (3e)^3 ~ 542).
    Ratio rows cover the full grid either way.
    """
    kmax = 90 if scale == "full" else 45
    rows = restricted_ratio_table(kmax=kmax)
    problems = []
    worst = {"per-sum": -math.inf, "per-size": -math.inf}
    asserted = 0
    for k, ell, family, param, cap, count, rhs_log, ratio in rows:
        in_hypothesis = family == "per-sum" or k <= ell * ell
        if ratio is not None:
            worst[family] = max(worst[family], ratio)
        if in_hypothesis and count > 0:
            asserted += 1
            if not LogValue.of(count).leq(LogValue(rhs_log)):
                problems.append((k, ell, family, param, count))
    spot = random.Random(5).sample([r for r in rows if r[5] > 0], 40)
    for k, ell, family, param, cap, count, _rhs, _ratio in spot:
        if count_restricted(k, ell, sumset_cap=cap) != count:
            problems.append(("spot", k, ell, cap))
    detail = (
        f"{len(rows)} table rows, {asserted} asserted cells; "
        f"worst log-ratio per-sum {worst['per-sum']:.2f}, per-size {worst['per-size']:.2f}; "
        f"problems: {problems[:4]}"
    )
    return not problems, detail


def chi2_quantile(p: float, df: int) -> float:
    """The p-quantile of the chi-square distribution with df degrees of freedom.

    Bisection, to float resolution, on its CDF: the regularized lower
    incomplete gamma P(df/2, x/2), summed by its series
    P(s, h) = h^s e^-h / Gamma(s + 1) * sum_j h^j / ((s + 1) ... (s + j)).
    """
    s = df / 2

    def cdf(x: float) -> float:
        h = x / 2
        term = total = 1.0
        j = 0
        while term > total * 1e-17:
            j += 1
            term *= h / (s + j)
            total += term
        return total * math.exp(s * math.log(h) - h - math.lgamma(s + 1))

    lo, hi = 0.0, df + 1.0
    while cdf(hi) < p:
        lo, hi = hi, 2 * hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return hi


@criterion("11", "sampler uniformity", seconds=60)
def check_sampler_uniformity(scale: str = "full") -> tuple[bool, str]:
    """11. Chi-square of 10^4 samples vs the exact support, under 0.999 quantile."""
    seeds, draws, needed = (10, 10_000, 9) if scale == "full" else (3, 3_000, 2)
    support = [s.to_set() for s in enumerate_sum_free(12, 3)]
    k = len(support)
    threshold = chi2_quantile(0.999, k - 1)
    ok = 0
    stats = []
    for seed in range(seeds):
        counts = Counter()
        for s in draw_sum_free(12, 3, draws, seed=seed):
            counts[s] += 1
        expected = draws / k
        stat = sum((counts.get(s, 0) - expected) ** 2 / expected for s in support)
        stats.append(round(stat, 1))
        ok += stat < threshold
    detail = f"support {k}, threshold {threshold:.1f}, stats {stats}, {ok}/{seeds} under"
    return ok >= needed, detail


@criterion("12", "inequality sweeps", seconds=60)
def check_inequality_sweeps(scale: str = "full") -> tuple[bool, str]:
    """12. Binomial-shift inequalities on random tuples; tail sum within 2x Gamma."""
    cases = 10_000 if scale == "full" else 1_000
    rng = random.Random(12)
    failures = 0
    for _ in range(cases):
        a = rng.randint(3, 1000)
        b = rng.randint(2, a - 1)
        c = rng.randint(1, b - 1)
        d = rng.randint(0, b)
        if any(not chk.passed for chk in check_binom_inequalities(a, b, c, d)):
            failures += 1
    tightest = 0.0
    gamma_fail = 0
    for a in range(1, 11):
        for tenth_b in range(1, 51):
            chk = check_gamma_sum(a, tenth_b / 10)
            tightest = max(tightest, chk.constant)
            gamma_fail += not chk.passed
    detail = (
        f"{cases} binomial tuples ({failures} failures); "
        f"gamma grid tightest constant {tightest:.4f} (cap {GAMMA_CAP}, {gamma_fail} failures)"
    )
    return failures == 0 and gamma_fail == 0, detail


def run_all(scale: str = "full") -> list[CheckResult]:
    """Run every declared criterion in order, printing one pass/fail line each."""
    results = []
    for check in ALL_CHECKS:
        results.append(check(scale))
        print(results[-1])
    return results
