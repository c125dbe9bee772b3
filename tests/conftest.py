"""Fixtures shared by the test modules."""

from dataclasses import replace
from functools import partial

import pytest

import nessent.experiments as ex
from nessent.correlation import ENTRY_SPEC, CorrelationBuilder


@pytest.fixture
def starve(monkeypatch):
    """``starve(max_panels)`` gives every runner's builder that panel
    budget, its table target as it is: the budget is no config key."""

    def apply(max_panels: int) -> None:
        spec = replace(ENTRY_SPEC, max_panels=max_panels)
        monkeypatch.setattr(ex, "CorrelationBuilder", partial(CorrelationBuilder, spec=spec))

    return apply
