"""Exact truncated q-expansions and eta/theta product construction.

A TruncatedSeries knows its coefficients for exponents 0..prec inclusive,
each an int or a Fraction (arith.exact).  Multiplication truncates to the
smaller precision and reading past the precision is an error, never a
silent zero.

Eta powers are built from the pentagonal-number expansion of the Euler
product prod(1 - q^(d*n)) raised by binary exponentiation.  Every product
goes through a packed big-integer convolution (Kronecker substitution),
which keeps precision 10^4 expansions fast in pure Python; a rational
operand is first scaled to integers by the lcm of its denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import Rational, exact
from .errors import NonIntegralOffset, PrecisionExceeded

__all__ = [
    "TruncatedSeries",
    "EtaRecipe",
    "series_mul",
    "series_pow",
    "eta_power",
    "theta_series",
    "expand_recipe",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known exactly for exponents 0..prec inclusive; from_coeffs
    and series_mul give canonical coefficients (int iff integral, else Fraction)."""

    prec: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.prec < 1:
            raise ValueError("prec must be a positive integer")
        if len(self.coeffs) != self.prec + 1:
            raise ValueError(
                f"need {self.prec + 1} coefficients for prec {self.prec}, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, values: Iterable[Rational], prec: int | None = None) -> "TruncatedSeries":
        coeffs = tuple(exact(v) for v in values)
        if prec is None:
            prec = len(coeffs) - 1
        if len(coeffs) < prec + 1:
            coeffs = coeffs + (0,) * (prec + 1 - len(coeffs))
        else:
            coeffs = coeffs[: prec + 1]
        return cls(prec, coeffs)

    @classmethod
    def one(cls, prec: int) -> "TruncatedSeries":
        return cls(prec, (1,) + (0,) * prec)

    def coefficient(self, n: int) -> Rational:
        """Coefficient of q^n; n past the precision is an error."""
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        if n > self.prec:
            raise PrecisionExceeded(f"coefficient q^{n} unknown beyond precision {self.prec}")
        return self.coeffs[n]

    def truncate(self, prec: int) -> "TruncatedSeries":
        if prec > self.prec:
            raise PrecisionExceeded(f"cannot extend precision {self.prec} to {prec}")
        return TruncatedSeries(prec, self.coeffs[: prec + 1])

    def shift(self, offset: int) -> "TruncatedSeries":
        """Multiply by q^offset, keeping the same truncation order."""
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        if offset == 0:
            return self
        zeros = (0,) * min(offset, self.prec + 1)
        return TruncatedSeries(self.prec, (zeros + self.coeffs)[: self.prec + 1])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)


@dataclass(frozen=True)
class EtaRecipe:
    """Product prod eta(d*z)^r over factors, times theta(z)^theta_power.

    The sum of d*r over all factors must be divisible by 24 so the leading
    exponent is integral.  Only positive eta exponents are supported; a
    quotient would need Laurent bookkeeping this package does not do.
    """

    factors: tuple[tuple[int, int], ...]
    theta_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple((int(d), int(r)) for d, r in self.factors))
        for d, r in self.factors:
            if d < 1:
                raise ValueError(f"eta scale must be positive, got {d}")
            if r < 1:
                raise ValueError(f"eta exponent must be positive, got {r}")
        if self.theta_power < 0:
            raise ValueError("theta power must be nonnegative")
        total = sum(d * r for d, r in self.factors)
        if total % 24 != 0:
            raise NonIntegralOffset(
                f"sum of d*r over factors is {total}, not divisible by 24"
            )


# ---------------------------------------------------------------------------
# multiplication


def _int_convolution(xs: Sequence[int], ys: Sequence[int], n_out: int) -> list[int]:
    """Truncated convolution of integer sequences via big-int packing.

    Coefficients are split by sign, each part packed little-endian into a
    single integer with a limb width large enough that no carries cross
    limb boundaries, and the heavy lifting is two native big-int products.
    """
    xs = list(xs[: n_out + 1])
    ys = list(ys[: n_out + 1])
    mx = max((abs(v) for v in xs), default=0)
    my = max((abs(v) for v in ys), default=0)
    if mx == 0 or my == 0:
        return [0] * (n_out + 1)
    bound = 2 * mx * my * min(len(xs), len(ys)) + 1
    width = (bound.bit_length() + 7) // 8 + 1

    def pack(vals: Sequence[int], positive: bool) -> int:
        buf = bytearray(width * len(vals))
        for i, v in enumerate(vals):
            if positive and v > 0:
                buf[i * width : i * width + width] = v.to_bytes(width, "little")
            elif not positive and v < 0:
                buf[i * width : i * width + width] = (-v).to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    xp, xn = pack(xs, True), pack(xs, False)
    yp, yn = pack(ys, True), pack(ys, False)
    plus = xp * yp + xn * yn
    minus = xp * yn + xn * yp

    count = len(xs) + len(ys) - 1

    def unpack(big: int) -> list[int]:
        raw = big.to_bytes(width * count, "little")
        return [
            int.from_bytes(raw[i * width : (i + 1) * width], "little")
            for i in range(min(count, n_out + 1))
        ]

    pos, neg = unpack(plus), unpack(minus)
    out = [p - n for p, n in zip(pos, neg)]
    out.extend([0] * (n_out + 1 - len(out)))
    return out


def _scaled_numerators(coeffs: Sequence[Rational]) -> tuple[int, list[int]]:
    """(d, [d*c for c in coeffs]) with d the lcm of the denominators."""
    den = math.lcm(*{c.denominator for c in coeffs})
    if den == 1:  # the common integer case skips a multiply per coefficient
        return 1, [c.numerator for c in coeffs]
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product truncated at min(a.prec, b.prec)."""
    prec = min(a.prec, b.prec)
    da, xs = _scaled_numerators(a.coeffs[: prec + 1])
    db, ys = _scaled_numerators(b.coeffs[: prec + 1])
    ints = _int_convolution(xs, ys, prec)
    den = da * db
    if den == 1:
        return TruncatedSeries(prec, tuple(ints))
    return TruncatedSeries(prec, tuple(exact(Fraction(v, den)) for v in ints))


def series_pow(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e by binary exponentiation (e >= 0)."""
    if e < 0:
        raise ValueError("negative series powers are not supported")
    result = TruncatedSeries.one(a.prec)
    base = a
    while e:
        if e & 1:
            result = series_mul(result, base)
        base = series_mul(base, base) if e > 1 else base
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# eta and theta expansions


def _euler_product(d: int, prec: int) -> TruncatedSeries:
    """prod_{n>=1} (1 - q^(d*n)) via the pentagonal number theorem.

    The expansion is sum_j (-1)^j q^(d*j*(3j-1)/2) over all integers j,
    so only O(sqrt(prec/d)) coefficients are nonzero.
    """
    coeffs = [0] * (prec + 1)
    coeffs[0] = 1
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if d * g1 > prec:
            break
        sign = -1 if j % 2 else 1
        coeffs[d * g1] = sign
        if d * g2 <= prec:
            coeffs[d * g2] = sign
        j += 1
    return TruncatedSeries(prec, tuple(coeffs))


def eta_power(d: int, r: int, prec: int) -> TruncatedSeries:
    """q-expansion of eta(d*z)^r up to q^prec.

    eta(d*z)^r = q^(d*r/24) * prod_{n>=1} (1 - q^(d*n))^r; the offset
    d*r/24 must be an integer.
    """
    if d < 1 or r < 1:
        raise ValueError("d and r must be positive integers")
    if prec < 1:
        raise ValueError("prec must be a positive integer")
    if (d * r) % 24 != 0:
        raise NonIntegralOffset(f"d*r = {d * r} is not divisible by 24")
    offset = d * r // 24
    power = series_pow(_euler_product(d, prec), r)
    return power.shift(offset)


def theta_series(prec: int) -> TruncatedSeries:
    """1 + 2*sum_{n>=1} q^(n^2), truncated at prec."""
    if prec < 1:
        raise ValueError("prec must be a positive integer")
    coeffs = [0] * (prec + 1)
    coeffs[0] = 1
    for n in range(1, math.isqrt(prec) + 1):
        coeffs[n * n] = 2
    return TruncatedSeries(prec, tuple(coeffs))


def expand_recipe(recipe: EtaRecipe, prec: int) -> TruncatedSeries:
    """Product of all eta factors and theta_series^theta_power at prec."""
    result = TruncatedSeries.one(prec)
    for d, r in recipe.factors:
        result = series_mul(result, eta_power(d, r, prec))
    if recipe.theta_power:
        result = series_mul(result, series_pow(theta_series(prec), recipe.theta_power))
    return result
