"""Shared exception types, and the one depth rule of the recursive searches."""

import sys

STACK_HEADROOM = 100  # interpreter frames left to the callers of a search


class BudgetError(RuntimeError):
    """An exact computation was refused or aborted because it exceeds a budget.

    `estimate` is the work the computation needs, in its budget's unit, or
    a lower bound on it (the work spent when a search stops past its
    budget); None when the refusal is not about work, as for a search
    deeper than the recursion limit.  `partial` may carry a partial result
    for progress reporting.
    """

    def __init__(self, message, estimate=None, partial=None):
        super().__init__(message)
        self.estimate = estimate
        self.partial = partial


def refuse_deeper(depth: int, partial=None) -> None:
    """Refuse (BudgetError, with `partial`) a search that recurses `depth` frames past the recursion limit.

    The search may take the interpreter's recursion limit less
    STACK_HEADROOM frames; no budget lifts that.
    """
    limit = sys.getrecursionlimit()
    if depth > limit - STACK_HEADROOM:
        raise BudgetError(f"search depth {depth} exceeds the interpreter's recursion limit ({limit})", partial=partial)
