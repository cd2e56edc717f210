"""Twist characters and lift coefficients connecting a(t n^2) to an
integral-weight eigenform.

For a squarefree index t the relevant quadratic twist is the Kronecker
symbol chi1(m) = ((-1)^k N^2 t | m), and the composite twist is
chi_{t,N} = chi * chi1.  The lift coefficients are defined by the divisor
convolution

    A_t(n) = sum_{d | n} chi_{t,N}(d) d^(k-1) a(t (n/d)^2),

which at a prime n = p reduces to A_t(p) = a(t p^2) + chi_{t,N}(p) p^(k-1) a(t).
The sum is written once, in _lift_coefficient: lift_coefficients reads it
for every n and crosscheck_lift at each prime it compares.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Rational, kronecker, primes_up_to
from .errors import InvalidInput, MissingCoefficient, PrecisionExceeded, ZeroBase, _Record
from .forms import HalfIntegralForm, _check_base_index, coefficient
from .qseries import TruncatedSeries

__all__ = [
    "chi1",
    "lift_coefficients",
    "crosscheck_lift",
    "CrosscheckReport",
]


def chi1(m: int, t: int, k: int, N: int) -> int:
    """Kronecker symbol ((-1)^k N^2 t | m); values in {-1, 0, 1}."""
    if m < 1:
        raise InvalidInput("m must be a positive integer")
    top = (N * N * t) if k % 2 == 0 else (-N * N * t)
    return kronecker(top, m)


def lift_coefficients(form: HalfIntegralForm, t: int, n_max: int) -> dict[int, Rational]:
    """Divisor-convolution lift coefficients {n: A_t(n)} for n = 1..n_max."""
    _check_base_index(t)
    if n_max < 1:
        raise InvalidInput("n_max must be positive")
    if t * n_max * n_max > form.prec:
        raise PrecisionExceeded(
            f"A_t({n_max}) needs a({t * n_max * n_max}) beyond precision {form.prec}"
        )
    return {n: _lift_coefficient(form, t, n) for n in range(1, n_max + 1)}


def _lift_coefficient(form: HalfIntegralForm, t: int, n: int) -> Rational:
    """A_t(n) = sum_{d | n} chi_{t,N}(d) d^(k-1) a(t (n/d)^2); t n^2 <= prec."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        w = form.chi(d) * chi1(d, t, form.k, form.level)  # chi_{t,N}(d)
        if w:
            total += w * d ** (form.k - 1) * coefficient(form, t, n // d)
    return total


class CrosscheckReport(_Record):
    """Outcome of crosscheck_lift at base index t: the primes p coprime to the
    level that were compared, those among them where A_t(p)/a(t) != B(p), and
    those skipped because t p^2 is beyond the form's precision, each ascending."""

    t: int
    compared: tuple[int, ...]
    mismatches: tuple[int, ...]
    skipped: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def crosscheck_lift(
    form: HalfIntegralForm,
    t: int,
    integral_form_coeffs: TruncatedSeries,
    p_max: int,
) -> CrosscheckReport:
    """Verify eigenvalue transfer to a normalized integral-weight eigenform.

    For every prime p <= p_max with p coprime to the level, asserts
    A_t(p)/a(t) = B(p), with A_t(p) the divisor sum of lift_coefficients
    and B the series integral_form_coeffs.  This is the whole check:
    A_t(p)/a(t) = a(t p^2)/a(t) + chi_{t,N}(p) p^(k-1) also equals
    extract_trace(form, t, p) * chi(p) for every form, since chi(p)^2 = 1
    for p coprime to the level, so comparing with the trace could never
    fail.  Primes whose indices exceed the form's precision are reported as
    skipped; when no prime is left to compare, the check has not run and
    PrecisionExceeded, naming why, is raised instead of an empty pass.
    """
    a_t = coefficient(form, t, 1)
    if a_t == 0:
        raise ZeroBase(f"a({t}) = 0; cannot normalize the lift")
    compared: list[int] = []
    mismatches: list[int] = []
    skipped: list[int] = []
    for p in primes_up_to(p_max):
        if form.level % p == 0:
            continue
        if t * p * p > form.prec:
            skipped.append(p)
            continue
        if p > integral_form_coeffs.prec:
            raise MissingCoefficient(f"comparison series stops before coefficient {p}")
        lift_p = Fraction(_lift_coefficient(form, t, p), a_t)
        compared.append(p)
        if lift_p != integral_form_coeffs.coeffs[p]:
            mismatches.append(p)
    if not compared:
        cause = f"fits within precision {form.prec}" if skipped else "exists"
        raise PrecisionExceeded(f"no prime p <= {p_max} coprime to the level {form.level} {cause}")
    return CrosscheckReport(t, tuple(compared), tuple(mismatches), tuple(skipped))
