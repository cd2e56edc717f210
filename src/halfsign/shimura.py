"""Twist characters and lift coefficients connecting a(t n^2) to an
integral-weight eigenform.

For a squarefree index t the relevant quadratic twist is the Kronecker
symbol chi1(m) = ((-1)^k N^2 t | m), and the composite twist is
chi_{t,N} = chi * chi1.  The lift coefficients are defined by the divisor
convolution

    A_t(n) = sum_{d | n} chi_{t,N}(d) d^(k-1) a(t (n/d)^2),

which at a prime n = p reduces to A_t(p) = a(t p^2) + chi_{t,N}(p) p^(k-1) a(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import Rational, exact, is_squarefree, kronecker
from .errors import MissingCoefficient, NotSquarefree, PrecisionExceeded, ZeroBase
from .forms import HalfIntegralForm, coefficient
from .qseries import TruncatedSeries

__all__ = [
    "chi1",
    "TwistCharacters",
    "LiftSeries",
    "lift_coefficients",
    "crosscheck_lift",
    "CrosscheckReport",
]


def chi1(m: int, t: int, k: int, N: int) -> int:
    """Kronecker symbol ((-1)^k N^2 t | m); values in {-1, 0, 1}."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    top = (N * N * t) if k % 2 == 0 else (-N * N * t)
    return kronecker(top, m)


@dataclass(frozen=True)
class TwistCharacters:
    """chi1 and chi_{t,N} = chi * chi1 for a fixed squarefree twist index."""

    t: int
    k: int
    N: int
    chi: object  # RealCharacter

    def __post_init__(self) -> None:
        if not is_squarefree(self.t):
            raise NotSquarefree(f"t = {self.t} is not squarefree")

    def chi1(self, m: int) -> int:
        return chi1(m, self.t, self.k, self.N)

    def chi_tN(self, m: int) -> int:
        return self.chi(m) * self.chi1(m)


@dataclass(frozen=True)
class LiftSeries:
    """Lift coefficients A_t(n), keyed by n = 1..n_max."""

    t: int
    values: dict[int, Rational]

    def __post_init__(self) -> None:
        if 1 not in self.values:
            raise ValueError("lift series must start at n = 1")


def lift_coefficients(form: HalfIntegralForm, t: int, n_max: int) -> LiftSeries:
    """Divisor-convolution lift coefficients A_t(n) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if t * n_max * n_max > form.prec:
        raise PrecisionExceeded(
            f"A_t({n_max}) needs a({t * n_max * n_max}) beyond precision {form.prec}"
        )
    twist = TwistCharacters(t=t, k=form.k, N=form.level, chi=form.chi)
    values: dict[int, Rational] = {}
    for n in range(1, n_max + 1):
        total = 0
        for d in range(1, n + 1):
            if n % d:
                continue
            w = twist.chi_tN(d)
            if w:
                total += w * d ** (form.k - 1) * coefficient(form, t, n // d)
        values[n] = total
    return LiftSeries(t=t, values=values)


@dataclass(frozen=True)
class CrosscheckReport:
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
    integral_form_coeffs: Sequence[Rational] | TruncatedSeries,
    p_max: int,
) -> CrosscheckReport:
    """Verify eigenvalue transfer to a normalized integral-weight eigenform.

    For every prime p <= p_max with p coprime to the level, asserts
    A_t(p)/a(t) = B(p) where B are the supplied integral coefficients.
    This is the whole check: A_t(p)/a(t) = a(t p^2)/a(t) + chi_{t,N}(p) p^(k-1)
    also equals extract_trace(form, t, p) * chi(p) for every form, since
    chi(p)^2 = 1 for p coprime to the level, so comparing with the trace
    could never fail.  Primes whose indices exceed the form's precision are
    reported as skipped; when that leaves no prime to compare, the check
    has not run and PrecisionExceeded is raised instead of an empty pass.
    """
    from .arith import primes_up_to

    if isinstance(integral_form_coeffs, TruncatedSeries):
        integral = list(integral_form_coeffs.coeffs)
    else:
        integral = [exact(c) for c in integral_form_coeffs]
    a_t = coefficient(form, t, 1)
    if a_t == 0:
        raise ZeroBase(f"a({t}) = 0; cannot normalize the lift")
    twist = TwistCharacters(t=t, k=form.k, N=form.level, chi=form.chi)
    compared: list[int] = []
    mismatches: list[int] = []
    skipped: list[int] = []
    for p in primes_up_to(p_max):
        if form.level % p == 0:
            continue
        if t * p * p > form.prec:
            skipped.append(p)
            continue
        if p >= len(integral):
            raise MissingCoefficient(
                f"comparison series stops before coefficient {p}"
            )
        # A_t(p) / a(t), the divisor sum at a prime
        lift_p = Fraction(coefficient(form, t, p), a_t) + twist.chi_tN(p) * p ** (form.k - 1)
        compared.append(p)
        if lift_p != integral[p]:
            mismatches.append(p)
    if not compared:
        raise PrecisionExceeded(
            f"no prime p <= {p_max} coprime to the level fits within precision {form.prec}"
        )
    return CrosscheckReport(
        t=t,
        compared=tuple(compared),
        mismatches=tuple(mismatches),
        skipped=tuple(skipped),
    )
