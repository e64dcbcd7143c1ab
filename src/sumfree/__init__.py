"""Exact enumeration and bound verification for sum-free integer sets.

The package models subsets of {1, ..., n} as bitmaps and provides:

- the sum-free predicate under both summand conventions, the Schur-triple
  hypergraph, low-part statistics and the extremal family (core);
- sumset algebra, spans, doubling, translate sets and arithmetic
  progression covers in the small-doubling regime (sumsets);
- exact partition counts p(k) and p*(k, ell), plus enumeration-backed
  counts of sets with prescribed size, sum, and sumset cap (partitions);
- exact counting, streaming enumeration and stratified counts of
  sum-free m-subsets, with a brute-force oracle (enumeration);
- log-domain bound formulas, binomial and tail-sum inequalities, moment
  quantities and forbidden-pair graphs (bounds);
- uniform sampling, exact by unranking on the count memo, and structure
  trend tables (sampling).

The `sumfree` command line exposes all of it; `sumfree verify` runs the
acceptance checks.
"""

from .core import (
    ALLOW_EQUAL_DEFAULT,
    Statistics,
    StabilityProfile,
    extremal_family,
    is_sum_free,
    odd_numbers,
    schur_edges,
    stability_profile,
    statistics_of,
)
from .enumeration import (
    CountResult,
    StratifiedCounts,
    WindowCount,
    count_in_window,
    count_oracle,
    count_sum_free,
    enumerate_sum_free,
    stratified_counts,
)
from .errors import BudgetError
from .intset import IntSet
from .bounds import (
    InequalityCheck,
    JansonQuantities,
    LogValue,
    PairGraph,
    build_pair_graph,
    check_binom_inequalities,
    check_gamma_sum,
    empirical_constant,
    janson_quantities,
    log_binom,
    theorem_rhs,
)
from .partitions import (
    count_restricted,
    count_small_sumset_sets,
    iter_distinct_sets,
    p,
    p_star,
    sumset_size_profile,
)
from .sampling import (
    SampleReport,
    TrendRow,
    draw_sum_free,
    sample_uniform,
    structure_trend,
)
from .sumsets import APCover, b_set, doubling, freiman_cover, span, sumset

__version__ = "0.1.0"

__all__ = [
    "ALLOW_EQUAL_DEFAULT",
    "APCover",
    "BudgetError",
    "CountResult",
    "InequalityCheck",
    "IntSet",
    "JansonQuantities",
    "LogValue",
    "PairGraph",
    "SampleReport",
    "StabilityProfile",
    "Statistics",
    "StratifiedCounts",
    "TrendRow",
    "WindowCount",
    "b_set",
    "build_pair_graph",
    "check_binom_inequalities",
    "check_gamma_sum",
    "count_in_window",
    "count_oracle",
    "count_restricted",
    "count_small_sumset_sets",
    "count_sum_free",
    "doubling",
    "draw_sum_free",
    "empirical_constant",
    "enumerate_sum_free",
    "extremal_family",
    "freiman_cover",
    "is_sum_free",
    "iter_distinct_sets",
    "janson_quantities",
    "log_binom",
    "odd_numbers",
    "p",
    "p_star",
    "sample_uniform",
    "schur_edges",
    "span",
    "stability_profile",
    "statistics_of",
    "stratified_counts",
    "structure_trend",
    "sumset",
    "sumset_size_profile",
    "theorem_rhs",
]
