"""Acceptance gate: every criterion in `verify.ALL_CHECKS`, within its time bound.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
each; `sumfree verify` runs the same checks with the same bounds.
"""

import pytest

from sumfree import verify


@pytest.mark.parametrize("check", verify.ALL_CHECKS, ids=lambda check: check.__name__.removeprefix("check_"))
def test_criterion(check):
    res = check()
    print(res)
    assert res.passed, res.detail
