from __future__ import annotations

import pytest

from halfsign.flagship import DEFAULT_PREC, flagship_form, ramanujan_delta


@pytest.fixture(scope="session")
def flagship():
    """The verified flagship form at full precision (built once per session)."""
    return flagship_form(DEFAULT_PREC)


@pytest.fixture(scope="session")
def delta():
    """eta(z)^24 up to q^100; coefficient n is tau(n)."""
    return ramanujan_delta(100)
