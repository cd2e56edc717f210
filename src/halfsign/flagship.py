"""The flagship concrete eigenform and its self-verification harness.

No concrete form is trusted blindly: the default recipe
eta(2z)^12 * theta(z) at level 4, k = 6, trivial character is expanded
and must pass the eigen-consistency suite (zero residuals at p = 3, 5, 7
over squarefree t <= 30 with a(t) != 0, recurrence depth 4) before use.
If it ever fails, a vendored coefficient fixture is loaded and put
through the identical suite; only then is it served.

ramanujan_delta provides the weight-12 comparison series eta(z)^24, whose
normalized Hecke eigenvalues are the classical tau values.
"""

from __future__ import annotations

import functools
from pathlib import Path

from .errors import HalfsignError, PrecisionExceeded, ZeroBase
from .forms import HalfIntegralForm, RealCharacter, load_form
from .hecke import base_indices, eigen_consistency, extract_trace
from .qseries import EtaRecipe, TruncatedSeries, eta_power, expand_recipe

__all__ = [
    "FLAGSHIP_RECIPE",
    "FLAGSHIP_LEVEL",
    "FLAGSHIP_K",
    "DEFAULT_PREC",
    "build_flagship",
    "verify_eigenform",
    "load_fixture",
    "flagship_form",
    "ramanujan_delta",
    "FIXTURE_NAME",
    "VERIFY_PRIMES",
    "VERIFY_T_MAX",
    "VERIFY_M_MAX",
]

FLAGSHIP_RECIPE = EtaRecipe(factors=((2, 12),), theta_power=1)
FLAGSHIP_LEVEL = 4
FLAGSHIP_K = 6
DEFAULT_PREC = 10_000
FIXTURE_NAME = "flagship_fixture.json"

VERIFY_PRIMES = (3, 5, 7)
VERIFY_T_MAX = 30
VERIFY_M_MAX = 4


def build_flagship(prec: int = DEFAULT_PREC) -> HalfIntegralForm:
    """Expand the flagship recipe at the given precision (no verification)."""
    series = expand_recipe(FLAGSHIP_RECIPE, prec)
    chi = RealCharacter.trivial(FLAGSHIP_LEVEL)
    return HalfIntegralForm(FLAGSHIP_LEVEL, FLAGSHIP_K, chi, series)


def verify_eigenform(form: HalfIntegralForm) -> bool:
    """Eigen-consistency gate: zero residuals at every prime in VERIFY_PRIMES
    over squarefree t <= VERIFY_T_MAX with a(t) != 0, recurrence depth
    VERIFY_M_MAX."""
    try:
        t_set = base_indices(form, VERIFY_T_MAX)
        for p in VERIFY_PRIMES:
            trace = extract_trace(form, t_set[0], p)
            if not eigen_consistency(form, p, trace, t_set, VERIFY_M_MAX).consistent:
                return False
    except (PrecisionExceeded, ZeroBase):
        return False
    return True


def load_fixture() -> HalfIntegralForm:
    """The vendored flagship coefficient file (fallback data)."""
    return load_form(Path(__file__).with_name("data").joinpath(FIXTURE_NAME))


def _truncated(form: HalfIntegralForm, prec: int) -> HalfIntegralForm:
    if form.prec <= prec:
        return form
    return HalfIntegralForm(form.level, form.k, form.chi, form.series.truncate(prec))


@functools.lru_cache(maxsize=4)
def flagship_form(prec: int = DEFAULT_PREC) -> HalfIntegralForm:
    """The verified flagship form, recipe first, fixture as fallback.

    The gate reads a(p^2) at every verify prime, so a candidate is expanded
    and gated at precision max(prec, 49) and then truncated to prec.
    Raises HalfsignError if both the freshly expanded recipe and the
    vendored fixture fail the eigen-consistency gate.
    """
    gate_prec = max(prec, max(VERIFY_PRIMES) ** 2)
    candidate = build_flagship(gate_prec)
    if not verify_eigenform(candidate):
        candidate = _truncated(load_fixture(), gate_prec)
        if not verify_eigenform(candidate):
            raise HalfsignError(
                "neither the flagship recipe nor the vendored fixture passes eigen-consistency"
            )
    return _truncated(candidate, prec)


@functools.lru_cache(maxsize=4)
def ramanujan_delta(prec: int = 100) -> TruncatedSeries:
    """eta(z)^24: the normalized weight-12 eigenform; coefficient n is tau(n)."""
    return eta_power(1, 24, prec)
