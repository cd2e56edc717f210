"""Hecke eigenvalue extraction and validation from half-integral coefficients.

Everything here reads one twisted row per (t, p): for squarefree t and a
prime p coprime to the level,

    b_m = a(t p^(2m)) / chi(p^m) = chi(p)^m a(t p^(2m)),   m = 0..H,

where the horizon H is the largest m with t p^(2m) <= prec (the row is
empty when t > prec).  twisted_row is where this module and the CLI read
b_m and compute H.  Along the row the twisted trace tau_p = lambda_p /
chi(p) satisfies

    tau_p b_0 = b_1 + chi1(p) p^(k-1) b_0,                         (base)
    tau_p b_m = b_{m+1} + p^(2k-1) b_{m-1}   for m >= 1,           (step)

so extract_trace reads tau_p off b_0 and b_1, and eigen_consistency checks
the recurrence along the row up to depth min(m_max, H - 1).  Satake data is
carried as the exact pair (trace, norm = p^(2k-1)); the roots alpha, beta of
X^2 - trace*X + norm are never materialized as radicals or floats; their
kind is read from _deligne's comparison of trace^2 with 4 norm, a decision
signscan._phases makes itself from gap = 4 norm v^2 - u^2, trace = u/v.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import Rational, check_prime, check_weight, exact, is_squarefree
from .errors import InvalidInput, NotCoprime, PrecisionExceeded, ZeroBase, _Record
from .forms import HalfIntegralForm, _check_base_index, coefficient
from .shimura import chi1

__all__ = [
    "HeckeLocalData",
    "base_indices",
    "twisted_row",
    "extract_trace",
    "eigen_consistency",
    "ConsistencyReport",
    "satake_data",
    "deligne_check",
    "multiplicativity_check",
]


class HeckeLocalData(_Record):
    """Exact local data at p: trace tau_p (int or Fraction) and norm p^(2k-1) (int)."""

    p: int
    trace: Rational
    norm: int

    @property
    def root_kind(self) -> str:
        """The roots of X^2 - trace*X + norm, by the sign of trace^2 - 4 norm."""
        kinds = {"strict": "complex_pair", "extremal": "real_double", "violated": "real_distinct"}
        return kinds[_deligne(self.trace, self.norm)]


def satake_data(trace: Rational, p: int, k: int) -> HeckeLocalData:
    """Local data for the quadratic X^2 - trace*X + p^(2k-1)."""
    check_weight(k)
    check_prime(p, "p")
    return HeckeLocalData(p=p, trace=exact(trace), norm=p ** (2 * k - 1))


def deligne_check(trace: Rational, p: int, k: int) -> str:
    """Compare trace^2 against 4 p^(2k-1) exactly.

    Returns "strict" when trace^2 < 4 p^(2k-1), "extremal" on equality
    (the trace is then +-2 p^(k-1/2), forcing sqrt(p) into the eigenvalue
    field), and "violated" beyond the bound.
    """
    check_weight(k)
    check_prime(p, "p")
    return _deligne(exact(trace), p ** (2 * k - 1))


def _deligne(trace: Rational, norm: int) -> str:
    """strict, extremal or violated as trace^2 is below, at or above 4 norm."""
    square = trace * trace
    if square < 4 * norm:
        return "strict"
    if square == 4 * norm:
        return "extremal"
    return "violated"


def base_indices(form: HalfIntegralForm, t_max: int) -> list[int]:
    """Squarefree t <= min(t_max, prec) with a(t) != 0, ascending."""
    bound = min(t_max, form.prec)
    t_set = [t for t in range(1, bound + 1) if is_squarefree(t) and coefficient(form, t, 1) != 0]
    if not t_set:
        raise ZeroBase(f"no squarefree t <= {bound} has a(t) != 0")
    return t_set


def _check_prime_to_level(form: HalfIntegralForm, p: int) -> None:
    check_prime(p, "p")
    if form.level % p == 0:
        raise NotCoprime(f"p = {p} divides the level {form.level}")


def twisted_row(form: HalfIntegralForm, t: int, p: int) -> list[Rational]:
    """b_0..b_H with b_m = chi(p)^m a(t p^(2m)) and H the largest m with
    t p^(2m) <= prec; empty when t > prec.

    p must be a prime not dividing the level, so chi(p) is +-1 and dividing
    by chi(p^m) equals multiplying; t must be squarefree.
    """
    _check_prime_to_level(form, p)
    _check_base_index(t)
    coeffs, chi_p = form.series.coeffs, form.chi(p)
    row, n, sign = [], t, 1
    while n < len(coeffs):
        row.append(sign * coeffs[n])
        n, sign = n * p * p, sign * chi_p
    return row


def extract_trace(form: HalfIntegralForm, t0: int, p: int) -> Rational:
    """Twisted trace tau_p = b_1/b_0 + chi1(p) p^(k-1) on the row of t0."""
    row = twisted_row(form, t0, p)
    if len(row) < 2:
        raise PrecisionExceeded(f"a({t0 * p * p}) is beyond precision {form.prec}")
    if row[0] == 0:
        raise ZeroBase(f"a({t0}) = 0; pick a base index with nonzero coefficient")
    c1 = chi1(p, t0, form.k, form.level)
    return exact(Fraction(row[1], row[0]) + c1 * p ** (form.k - 1))


class ConsistencyReport(_Record):
    """Residuals of the eigen recurrence, indexed by (t, m); m = 0 is the base relation."""

    p: int
    residuals: dict[tuple[int, int], Rational]
    skipped: tuple[tuple[int, int], ...]

    @property
    def consistent(self) -> bool:
        return all(r == 0 for r in self.residuals.values())

    def failures(self) -> list[tuple[int, int]]:
        return sorted(key for key, r in self.residuals.items() if r != 0)


def eigen_consistency(
    form: HalfIntegralForm,
    p: int,
    trace: Rational,
    t_set: list[int],
    m_max: int,
) -> ConsistencyReport:
    """Residuals R(t, m) of the coefficient recurrence for the given trace.

    R(t, 0) = trace*b_0 - b_1 - chi1(p) p^(k-1) b_0     (only when b_0 = a(t) != 0)
    R(t, m) = trace*b_m - b_{m+1} - p^(2k-1) b_{m-1}    for 1 <= m <= m_max

    on the twisted row b = twisted_row(form, t, p).  The first (t, m) whose
    b_{m+1} lies beyond the row's horizon is skipped and reported as such,
    as is (t, 0) for t > prec; the form is consistent at p iff every computed
    residual is exactly zero.
    """
    _check_prime_to_level(form, p)
    if m_max < 0:
        raise InvalidInput("m_max must be nonnegative")
    trace = exact(trace)
    k, N = form.k, form.level
    norm = p ** (2 * k - 1)
    residuals: dict[tuple[int, int], Rational] = {}
    skipped: list[tuple[int, int]] = []
    for t in t_set:
        row = twisted_row(form, t, p)
        if not row:
            skipped.append((t, 0))
            continue
        for m in range(m_max + 1):
            if m == 0 and row[0] == 0:
                continue
            if m + 1 >= len(row):
                skipped.append((t, m))
                break
            if m == 0:
                residual = trace * row[0] - row[1] - chi1(p, t, k, N) * p ** (k - 1) * row[0]
            else:
                residual = trace * row[m] - row[m + 1] - norm * row[m - 1]
            residuals[(t, m)] = residual
    if not residuals:
        raise PrecisionExceeded(
            f"no recurrence index for p = {p} fits within precision {form.prec}"
        )
    return ConsistencyReport(p=p, residuals=residuals, skipped=tuple(skipped))


def multiplicativity_check(form: HalfIntegralForm, t: int, m: int, n: int) -> Rational:
    """Residual a(t m^2) a(t n^2) - a(t) a(t m^2 n^2); zero for eigenforms."""
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) > 1")
    return (coefficient(form, t, m) * coefficient(form, t, n)
            - coefficient(form, t, 1) * coefficient(form, t, m * n))
