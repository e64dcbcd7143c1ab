#!/usr/bin/env python3
"""What does a typical sum-free set look like below n/2?

For I inside {1, ..., n}, the low part S(I) = {x in I : x <= n/2} is where
all the structure lives: elements above n/2 never sum into range.  Three
statistics describe it: ell = |S(I)|, the total deficiency
k = sum (n/2 - a) over the low elements, and the all-odd flag.  Typical
sum-free sets keep ell near n/m in scale and their low elements hug n/2,
unless they are simply subsets of the odd numbers.
"""

from collections import Counter

from sumfree import sample_uniform, statistics_of, stratified_counts, structure_trend

print(__doc__)

print("Hand examples (n = 10):")
for s in ({6, 7, 8, 9, 10}, {1, 3, 5, 7, 9}, {4, 9, 10}):
    st = statistics_of(s, 10)
    print(f"  {sorted(s)!s:<22} ell={st.ell} k={st.k} all-odd={st.odd_flag}")

print()
n, m = 24, 6
table = stratified_counts(n, m)
print(f"Exact joint distribution of (ell, k) over sum-free {m}-subsets of [{n}]")
print(f"(total {table.total}); the all-odd column is the odd-numbers class:")
ell_marginal = table.marginal_ell()
print(f"  ell marginal: {ell_marginal}")
top = sorted(table.joint.items(), key=lambda kv: -kv[1])[:10]
print(f"  {'ell':>4} {'k':>6} {'count':>7} {'all-odd':>8}")
for (ell, k), c in top:
    print(f"  {ell:>4} {str(k):>6} {c:>7} {table.odd_joint.get((ell, k), 0):>8}")

print()
print("A uniform sampler reproduces the same histogram (exact, by unranking")
print("on the count memo, so every draw is exactly uniform):")
rep = sample_uniform(n, m, 20_000, seed=1)
sampled_ell = Counter()
for (ell, _k, _odd), c in rep.histogram.items():
    sampled_ell[ell] += c
for ell in sorted(ell_marginal):
    exact_frac = ell_marginal[ell] / table.total
    samp_frac = sampled_ell.get(ell, 0) / 20_000
    print(f"  ell={ell}: exact {exact_frac:.4f} vs sampled {samp_frac:.4f}")

print()
print("Exact scaled medians across n (ell * m/n and k * m^3/n^3 should stay O(1)):")
rows = structure_trend([12, 16, 20, 24, 28, 32], "div:4")
print(f"  {'n':>3} {'m':>3} {'ell_med':>8} {'k_med':>7} {'ell*m/n':>8} {'k*m^3/n^3':>10}")
for r in rows:
    print(
        f"  {r.n:>3} {r.m:>3} {str(r.ell_median):>8} "
        f"{str(r.k_median):>7} {r.ell_scaled:>8.3f} {r.k_scaled:>10.4f}"
    )
