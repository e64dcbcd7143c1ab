"""The one refusal rule of the exact computations: a budget's, and the recursive searches' depth."""

import sys

STACK_HEADROOM = 100  # interpreter frames left to the callers of a search


class BudgetError(RuntimeError):
    """An exact computation was refused or aborted because it exceeds a budget.

    Built by over_budget or refuse_deeper only.  `estimate` is the work the
    computation needs, in its budget's unit, or a lower bound on it (the
    work spent when a search stops past its budget); None for a search
    deeper than the recursion limit.  `partial` holds only results
    computed before the refusal, and is None when there are none.
    """

    def __init__(self, message, estimate=None, partial=None):
        super().__init__(message)
        self.estimate = estimate
        self.partial = partial


def over_budget(spent: int, budget: int, unit: str, partial=None) -> BudgetError:
    """The refusal of a computation that needs at least `spent` units of `unit` against `budget` of them.

    The message is the only place a budget refusal is worded; `spent` is
    also its estimate.  The caller checks `spent > budget` and raises it.
    """
    return BudgetError(f"needs at least {spent} {unit}, past the budget ({budget})", spent, partial)


def refuse_deeper(depth: int) -> None:
    """Refuse (BudgetError) a search that recurses `depth` frames past the recursion limit.

    The search may take the interpreter's recursion limit less
    STACK_HEADROOM frames; no budget lifts that.
    """
    limit = sys.getrecursionlimit()
    if depth > limit - STACK_HEADROOM:
        raise BudgetError(f"search depth {depth} exceeds the interpreter's recursion limit ({limit})")
