#!/usr/bin/env python3
"""How many sum-free subsets does {1, ..., n} have?

A set is sum-free when no x + y = z holds inside it (x = y included: {1,2}
fails because 1 + 1 = 2).  The odd numbers and the top half {n/2+1, ..., n}
are the classic large examples, each with ceil(n/2) elements, so there are
at least 2^ceil(n/2) sum-free subsets.  This demo counts them exactly,
checks the search against the brute-force oracle, and watches the ratio
count / 2^(n/2) flatten out near 13.5 on even n.
"""

from math import comb, isqrt

from sumfree import count_oracle, count_sum_free, empirical_constant

print(__doc__)

print("Exact totals, cross-checked against the all-subsets oracle:")
for n in range(2, 21, 2):
    search = count_sum_free(n)
    oracle = count_oracle(n)
    mark = "ok" if search.by_size == oracle.by_size else "MISMATCH"
    print(f"  n={n:2d}  total={search.total:>7d}  sizes={search.by_size}  [{mark}]")

print()
print("Growth against the trivial 2^(n/2) witness count (even n):")
print(f"  {'n':>3} {'total':>12} {'total/2^(n/2)':>14}")
for n in range(10, 41, 2):
    total = count_sum_free(n).total
    print(f"  {n:>3} {total:>12} {total / 2 ** (n // 2):>14.3f}")

print()
print("Counting by size: the profile is dominated by near-half sizes of the")
print("two big witness families.  For each m, the count is at least")
print("C(ceil(n/2), m) because the top half alone contributes that many.")
n = 24
res = count_sum_free(n)
print(f"  n={n}:")
for m in sorted(res.by_size):
    lower = comb((n + 1) // 2, m)
    print(f"   m={m:2d}  count={res.by_size[m]:>8d}  top-half witnesses={lower:>6d}")

print()
print("Inverting the count into a constant: C*(n, m) is the exponent rate")
print("(m/n) log2(count / C(ceil(n/2), m)); it stays nicely bounded for")
print("m >= sqrt(n), where the binomial term carries almost everything.")
for n in (16, 24, 32):
    res = count_sum_free(n)
    worst = max(
        (empirical_constant(n, m, c), m)
        for m, c in res.by_size.items()
        if m * m >= n and c > 0
    )
    print(f"  n={n:2d}: max C* = {worst[0]:.3f} at m={worst[1]} (m ranges {isqrt(n)}..{n // 2})")
