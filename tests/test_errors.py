"""One refusal rule: every budget refusal names its unit, the work and the budget; the depth rule names the limit."""

import sys

import pytest

from sumfree import (
    BudgetError,
    count_in_window,
    count_restricted,
    count_small_sumset_sets,
    count_sum_free,
    enumerate_sum_free,
    p,
    p_star,
    sample_uniform,
    stratified_counts,
    verify,
)


def nothing(partial):
    return partial is None


# (query at a budget, budget, unit, rule for partial): a partial holds only results computed before the refusal
BUDGET_REFUSALS = [
    pytest.param(lambda b: count_sum_free(20, node_budget=b), 10, "tree nodes", nothing, id="count-up-front"),
    # the up-front lower bound of {1, ..., 20} is at most 2^10 nodes, so at 2^10 the walk refuses
    pytest.param(lambda b: count_sum_free(20, node_budget=b), 2**10, "tree nodes", nothing, id="count-walk"),
    pytest.param(lambda b: count_in_window(20, 2, 5, node_budget=b), 5, "tree nodes", nothing, id="window"),
    # the strata's (ell, k) tallies so far: 2 of the 3 sum-free 8-subsets of {1, ..., 16}
    pytest.param(lambda b: stratified_counts(16, 8, node_budget=b), 1658, "tree nodes",
                 lambda joint: sum(joint.values()) == 2 and set(joint) < set(stratified_counts(16, 8).joint),
                 id="strata"),
    pytest.param(lambda b: list(enumerate_sum_free(40, node_budget=b)), 10, "tree nodes", nothing, id="enumerate"),
    pytest.param(lambda b: sample_uniform(12, 3, 250, seed=0, node_budget=b), 999, "tree nodes", nothing,
                 id="sampler-draws"),
    pytest.param(lambda b: p(100, budget=b), 10, "additions", nothing, id="p-additions"),
    pytest.param(lambda b: p_star(200, 10, budget=b), 100, "table cells", nothing, id="p-star-cells"),
    pytest.param(lambda b: count_restricted(90, 8, sumset_cap=20, budget=b), 800, "candidate sets", nothing,
                 id="restricted-candidates"),
    pytest.param(lambda b: verify.restricted_ratio_table(30, 12, budget=b), 1, "table cells", nothing,
                 id="ratio-table-cells"),
    # the widest row takes 210 cells, within 1000; the candidates of all rows are 2034
    pytest.param(lambda b: verify.restricted_ratio_table(30, 12, budget=b), 1000, "candidate sets", nothing,
                 id="ratio-table-candidates"),
    # the sets found so far, of the 245 that a large budget counts
    pytest.param(lambda b: count_small_sumset_sets(20, 6, 13, budget=b), 10_000, "search steps",
                 lambda found: 0 < found < count_small_sumset_sets(20, 6, 13, budget=10**5), id="smallsumset"),
]


@pytest.mark.parametrize("query, budget, unit, holds", BUDGET_REFUSALS)
def test_every_budget_refusal_names_its_unit_work_and_budget(query, budget, unit, holds):
    # the messages came in eight shapes, some without the budget or the work, and partial repeated the estimate
    with pytest.raises(BudgetError) as info:
        query(budget)
    err = info.value
    assert str(err) == f"needs at least {err.estimate} {unit}, past the budget ({budget})"
    assert err.estimate > budget
    assert holds(err.partial), err.partial


DEPTH_REFUSALS = [
    pytest.param(lambda: count_sum_free(3000, node_budget=10**1000), 3000, id="count"),
    pytest.param(lambda: count_small_sumset_sets(3000, 2000, 10**8), 2000, id="smallsumset"),
    pytest.param(lambda: count_restricted(500500, 1000, sumset_cap=10**6, budget=10**9), 1000, id="distinct-parts"),
]


@pytest.mark.parametrize("query, depth", DEPTH_REFUSALS)
def test_every_depth_refusal_names_the_recursion_limit(query, depth):
    # no budget lifts the depth rule, so its refusal carries no estimate of work and no partial result
    with pytest.raises(BudgetError) as info:
        query()
    err = info.value
    assert str(err) == f"search depth {depth} exceeds the interpreter's recursion limit ({sys.getrecursionlimit()})"
    assert (err.estimate, err.partial) == (None, None)
