"""The ``nessent selftest`` checks, each run as its own pytest case, so that
a property the selftest checks needs no second copy in the other test files."""

import pytest

from nessent.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[fn.__name__ for fn in CHECKS])
def test_selftest_check(check):
    check()
