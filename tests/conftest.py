from __future__ import annotations

import pytest
from hypothesis import settings

from halfsign.flagship import DEFAULT_PREC, flagship_form, ramanujan_delta

# `pytest --hypothesis-profile=thorough` runs every property 1000 times
settings.register_profile("thorough", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def flagship():
    """The verified flagship form at full precision (built once per session)."""
    return flagship_form(DEFAULT_PREC)


@pytest.fixture(scope="session")
def delta():
    """eta(z)^24 up to q^100; coefficient n is tau(n)."""
    return ramanujan_delta(100)
