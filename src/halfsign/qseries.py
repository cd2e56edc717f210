"""Exact truncated q-expansions and eta/theta product construction.

A TruncatedSeries knows its coefficients for exponents 0..prec inclusive,
each an int or a Fraction (arith.exact).  Multiplication truncates to the
smaller precision and reading past the precision is an error, never a
silent zero.

An eta power eta(d*z)^r is E(q^d)^r shifted by d*r/24, where
E(q) = prod(1 - q^n), expanded at precision about prec/d.  When 3 | r the
power starts from Jacobi's identity E^3 = sum_j (-1)^j (2j+1) q^(j(j+1)/2)
and raises it to r/3, two products fewer than raising E itself, which the
pentagonal number theorem gives; powers are taken by binary exponentiation.
A rational operand is first scaled to integers by the lcm of its
denominators, and every product then takes one of four exact carriers.
Two sparse operands, such as E^3 squared or theta times Jacobi's series,
are multiplied term pair by term pair.  Every other product is one
Kronecker substitution: each operand packed into one signed big number,
and the coefficients read back limb by limb, with limbs just wide enough
for the l1-norm bound on the coefficients.  A product with one sparse
factor (theta, Jacobi's or the pentagonal series) sums shifted copies of
the other operand, one per nonzero term.  Other large products are carried
by `decimal`, whose libmpdec multiplies by number-theoretic transform, and
small ones by native ints.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Iterable, Sequence

from .arith import Rational, clear_denominators, exact, unscale
from .errors import NonIntegralOffset, PrecisionExceeded, _Record

__all__ = [
    "TruncatedSeries",
    "EtaRecipe",
    "series_mul",
    "series_pow",
    "eta_power",
    "theta_series",
    "expand_recipe",
]


class TruncatedSeries(_Record):
    """Power series known exactly for exponents 0..prec inclusive; from_coeffs
    and series_mul give canonical coefficients (int iff integral, else Fraction)."""

    prec: int
    coeffs: tuple[Rational, ...]

    def __new__(cls, prec: int, coeffs: tuple[Rational, ...]):
        if prec < 1:
            raise ValueError("prec must be a positive integer")
        if len(coeffs) != prec + 1:
            raise ValueError(f"need {prec + 1} coefficients for prec {prec}, got {len(coeffs)}")
        return tuple.__new__(cls, (prec, coeffs))

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

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)


class EtaRecipe(_Record):
    """Product prod eta(d*z)^r over factors, times theta(z)^theta_power.

    Each factor's d*r must be divisible by 24, so that every eta power, and
    hence the product, has an integral leading exponent.  Only positive eta
    exponents are supported; a quotient would need Laurent bookkeeping this
    package does not do.
    """

    factors: tuple[tuple[int, int], ...]
    theta_power: int

    def __new__(cls, factors: Iterable[tuple[int, int]], theta_power: int = 0):
        factors = tuple((d, r) for d, r in factors)
        for x in (*itertools.chain(*factors), theta_power):
            if type(x) is not int:  # a float is not truncated, nor a bool read as 0 or 1
                raise ValueError(f"eta recipe entries must be integers, got {x!r}")
        for d, r in factors:
            if d < 1:
                raise ValueError(f"eta scale must be positive, got {d}")
            if r < 1:
                raise ValueError(f"eta exponent must be positive, got {r}")
            if d * r % 24 != 0:
                raise NonIntegralOffset(f"eta factor {d}:{r} has d*r = {d * r}, not divisible by 24")
        if theta_power < 0:
            raise ValueError("theta power must be nonnegative")
        return tuple.__new__(cls, (factors, theta_power))


# ---------------------------------------------------------------------------
# multiplication


# The term carrier does one Python multiply-add per pair of nonzero terms,
# where every other carrier costs passes over all n limbs.  It takes a
# product of tx by ty nonzero terms in n coefficients when the pairs per
# coefficient, tx ty / n, are at most this.
# Jacobi's, the pentagonal and the theta series have about 1.4, 1.6 and 1
# sqrt(n) terms, so a product of two of them has 1 to 2.7 pairs per
# coefficient at any prec, and a sparse times a dense series about sqrt(n).
# Its time over that of the carrier the product takes otherwise, Jacobi's
# series times random terms of 8 or 64 bits, median of 3-301 runs, CPython
# 3.11.7, Intel Xeon:
#               8-bit terms                      64-bit terms
#     n    pairs/coeff 2    4    8   12   16         2    4    8   12   16
#      100        0.25 0.41 0.75 1.10 0.75        0.18 0.32 0.64 0.59 1.04
#     2000        0.22 0.37 0.70 0.99 1.26        0.15 0.27 0.49 0.79 0.98
#     10^4        0.15 0.25 0.45 0.80 1.19        0.08 0.16 0.34 0.42 0.48
#     10^5        0.14 0.23 0.48 0.63 1.00        0.07 0.20 0.24 0.41 0.42
# The sparse products of suite-small's expands at prec 2000, before (packed
# by the carriers below) and after, in ms: E^3 squared in eta(z)^24,
# eta(2z)^12, eta(3z)^8 and eta(4z)^6 (1.98-2.69 pairs per coefficient)
# 2.56 -> 0.66, 1.22 -> 0.32, 0.54 -> 0.22 and 0.51 -> 0.16; theta times
# eta(24z), eta(8z)^3 and eta(12z)^2 (0.34-2.18) 1.77 -> 0.23, 2.07 -> 0.29
# and 2.13 -> 0.58; theta times eta(6z)^4, eta(4z)^6 and eta(3z)^8
# (5.3-7.4) 2.28 -> 1.27, 2.42 -> 1.59 and 2.41 -> 1.77.
_TERM_PAIRS_PER_COEFF = 8

# A dense product has two exact carriers.  libmpdec multiplies large
# decimals by a number-theoretic transform, while CPython multiplies ints in
# about n^1.58 time.  Packed operand size is limb bits times len(xs) + len(ys).
# Timed on every distinct product of the single-factor recipes, with and
# without theta, at prec 2000 and 10^4 (l1-norm limbs, best of 7 per carrier,
# CPython 3.11, Xeon), their summed time is flat within 1% for any threshold
# from 150k to 400k bits and grows above it.  Ints win nearly every product
# under about 190k bits, decimals nearly every one over 500k, and the two
# trade wins in between, so the threshold stays at 250k.
_DECIMAL_MIN_BITS = 250_000

# The sparse carrier costs a pass over n limbs per nonzero term of the
# sparser operand and a multiply per distinct value, so it takes an operand
# whose terms + 2 (distinct values) is at most _SPARSE_MAX_WEIGHT.  Its time
# over the decimal carrier's, eta(z)^24 times s terms at floor(prec (i/s)^2),
# all 2 (=) or (-1)^i (2i + 1) (!=), median of 7, CPython 3.11.7, Xeon:
#           s =  60  100  150  200  250  300  350  400  450
#     10^4  =  0.28 0.39 0.47 0.56 0.61 0.63 0.75 0.86 1.00
#           != 0.46 0.70 0.93 1.18 1.43 1.63 1.78 2.12 2.32
#     10^5  =                      0.51 0.63 0.65 0.74 0.80
#           !=                     1.42 1.54 1.73 1.93 2.25
# Both stop winning near weight 450; at prec 2000 and s <= 200 each ratio
# is within 0.11 of 10^4's.  Theta at 10^6 (1001 terms) stays on decimals.
_SPARSE_MAX_WEIGHT = 450

# Below that weight the sparser operand must also be sparse, with at most one
# nonzero term in _SPARSE_MIN_SPACING: a dense operand of 100 terms, such as
# E^6 inside eta(z)^24 at prec 100, multiplies 2-3 times faster packed.  The
# sparse carrier's time over the native-int carrier's, a random operand of
# len terms times one with a nonzero term in every g-th place, median of 7
# runs, CPython 3.11.7, Intel Xeon:
#              8-bit terms                      64-bit terms
#     len g = 32   16    8    4    2    1      32   16    8    4    2    1
#      50   0.76 1.02 1.36 0.84 1.37 1.65    0.69 0.73 0.78 0.97 1.30 1.91
#     100   0.84 0.93 1.12 0.96 1.32 1.92    0.56 0.64 0.71 0.88 1.52 2.65
#     250   0.98 1.06 1.05 1.36 2.00 2.77    0.77 0.67 0.85 1.28 1.84 3.59
#     1000  0.84 1.01 1.40 1.85    -    -    0.44 0.67 1.05 1.30    -    -
#     2000  0.86 1.11 1.60    -    -    -    0.49 0.81 1.56    -    -    -
# Theta, E and E^3 have about sqrt(prec), 1.6 sqrt(prec) and 1.4 sqrt(prec)
# nonzero terms, so they take the sparse carrier from prec 256, 660 and 500
# on, up to about 198k, 77k and 11k.
_SPARSE_MIN_SPACING = 16

# The C `decimal`.  Without it `decimal` falls back to pure Python, which is
# far slower than native ints; `_pydecimal` also sets __libmpdec_version__,
# so the import is the test.
try:
    import _decimal as _libmpdec
except ImportError:  # pragma: no cover - depends on how the interpreter was built
    _libmpdec = None


def _limb_bits(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Limb width b with 2^b > 2|c_k| for every product coefficient c_k and
    2^b > 2|x_i|, 2|y_j| for every operand coefficient.

    |c_k| <= sum_i |x_i| |y_(k-i)| <= min(max|x| * |y|_1, max|y| * |x|_1),
    which is well below max|x| * max|y| * len when an operand is sparse,
    such as theta or Jacobi's series; one more bit covers the sign.  The
    bound is at least max|x| and max|y| unless an operand is all zeros.
    """
    ax = list(map(abs, xs))
    mx, lx = max(ax), sum(ax)
    if ys is xs:
        my, bound = mx, mx * lx
    else:
        ay = list(map(abs, ys))
        my = max(ay)
        bound = min(mx * sum(ay), my * lx)
    return max(bound, mx, my).bit_length() + 1


def _pack(vals: Sequence[int], width: int) -> int:
    """sum v_i B^i with B = 2^(8 width) > 2|v_i|, each limb written as the
    nonnegative v_i + B/2.  Joining 1024 limbs at a time keeps the join's
    list small: grown by realloc, it leaves freed but resident heap behind."""
    half = 1 << (8 * width - 1)
    chunks = (
        b"".join((v + half).to_bytes(width, "little") for v in vals[k : k + 1024])
        for k in range(0, len(vals), 1024)
    )
    offsets = int.from_bytes(half.to_bytes(width, "little") * len(vals), "little")
    return int.from_bytes(b"".join(chunks), "little") - offsets


def _unpack(value: int, width: int, n: int) -> list[int]:
    """c_0..c_(n-1) from any value = sum c_k B^k mod B^n, B = 2^(8 width) >
    2|c_k|: with B/2 added to each limb, the low n limbs of its two's
    complement are nonnegative and read off independently, each less B/2."""
    half = 1 << (8 * width - 1)
    value += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = value.to_bytes(max(width * n, value.bit_length() // 8 + 1), "little", signed=True)
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)]


def _int_product(xs: Sequence[int], ys: Sequence[int], bits: int, n: int) -> list[int]:
    """c_0..c_(n-1) of the product of xs and ys, packed in native ints with
    limbs of whole bytes (bits from _limb_bits)."""
    width = (bits + 7) // 8
    x = _pack(xs, width)
    return _unpack(x * x if ys is xs else x * _pack(ys, width), width, n)


def _term_product(xs: Sequence[int], ys: Sequence[int], n: int) -> list[int]:
    """c_0..c_(n-1) of the product of xs and ys, one multiply-add per pair of
    nonzero terms x_i y_j with i + j < n; nothing is packed."""
    out = [0] * n
    y_index = list(itertools.compress(range(n), ys))
    y_terms = [(j, ys[j]) for j in y_index]
    for i in itertools.compress(range(n), xs):
        x = xs[i]
        for j, y in y_terms[: bisect.bisect_left(y_index, n - i)]:
            out[i + j] += x * y
    return out


def _sparse_product(xs: Sequence[int], ys: Sequence[int], bits: int, n: int) -> list[int]:
    """c_0..c_(n-1) of the product of xs and ys, as in _int_product, for ys
    with few nonzero terms.  xs is packed once into X; for each distinct
    y_j != 0 the shifts X B^j of its terms are summed and multiplied by y_j
    once.  The total, X Y, is masked once to its low n limbs."""
    width = (bits + 7) // 8
    step = 8 * width
    x = _pack(xs[:n], width)
    acc = 0
    terms = sorted((c, step * j) for j, c in enumerate(ys[:n]) if c)
    for c, group in itertools.groupby(terms, key=operator.itemgetter(0)):
        acc += c * sum(x << s for _, s in group)
    return _unpack(acc & ((1 << (step * n)) - 1), width, n)


def _decimal_product(xs: Sequence[int], ys: Sequence[int], bits: int, n: int) -> list[int]:
    """c_0..c_(n-1) of the product of xs and ys, packed in exact decimals
    with limbs of whole digits (bits from _limb_bits).  Each operand is
    written once, as the digits of the nonnegative v + 10^digits/2 per
    limb, and the offsets are subtracted in one decimal operation."""
    mpd = _libmpdec
    digits = len(str(1 << bits))  # 10^digits > 2^bits
    half = "5" + "0" * (digits - 1)
    half_value = int(half)
    context = mpd.Context(
        prec=mpd.MAX_PREC, Emax=mpd.MAX_EMAX, Emin=mpd.MIN_EMIN,
        traps=[mpd.Inexact, mpd.Overflow, mpd.InvalidOperation],
    )

    def pack(vals: Sequence[int]):
        text = "".join(str(v + half_value).zfill(digits) for v in reversed(vals))
        return context.subtract(mpd.Decimal(text), mpd.Decimal(half * len(vals)))

    x = pack(xs)
    product = context.multiply(x, x if ys is xs else pack(ys))
    limbs = len(xs) + len(ys) - 1
    text = str(context.add(product, mpd.Decimal(half * limbs))).zfill(digits * limbs)
    last = len(text) - digits  # limb 0 is the last `digits` characters
    return [
        int(text[i : i + digits]) - half_value for i in range(last, last - n * digits, -digits)
    ]


def _int_convolution(xs: Sequence[int], ys: Sequence[int], n_out: int) -> list[int]:
    """Truncated convolution c_0..c_n_out of integer sequences, exactly.

    There are four exact carriers.  When the two operands' counts of
    nonzero terms multiply to at most _TERM_PAIRS_PER_COEFF times the n
    coefficients wanted, each pair of nonzero terms is multiplied directly
    (_term_product).  Every other product is a Kronecker substitution with
    one signed product: each operand becomes one integer X = sum x_i B^i,
    with a limb base B larger than twice every |c_k|, so X*Y holds c_k in
    limb k (see _unpack).  When the sparser operand has at most one nonzero
    term in every _SPARSE_MIN_SPACING places and a weight of at most
    _SPARSE_MAX_WEIGHT, shifted copies of the other are summed
    (_sparse_product); else the packed size picks native ints or, from
    _DECIMAL_MIN_BITS on, exact decimals.  A squared operand (xs is ys) is
    packed once.
    """
    square = xs is ys
    xs = xs[: n_out + 1]
    ys = xs if square else ys[: n_out + 1]
    n = min(len(xs) + len(ys) - 1, n_out + 1)
    x_terms = len(xs) - xs.count(0)
    terms = x_terms if square else len(ys) - ys.count(0)
    if x_terms * terms <= _TERM_PAIRS_PER_COEFF * n:
        return _term_product(xs, ys, n) + [0] * (n_out + 1 - n)
    bits = _limb_bits(xs, ys)
    if terms > x_terms:
        xs, ys, terms = ys, xs, x_terms  # ys is the sparser operand
    if terms * _SPARSE_MIN_SPACING <= len(ys) and terms + 2 * len(set(ys)) <= _SPARSE_MAX_WEIGHT:
        out = _sparse_product(xs, ys, bits, n)
    elif _libmpdec is not None and bits * (len(xs) + len(ys)) >= _DECIMAL_MIN_BITS:
        out = _decimal_product(xs, ys, bits, n)
    else:
        out = _int_product(xs, ys, bits, n)
    return out + [0] * (n_out + 1 - n)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product truncated at min(a.prec, b.prec)."""
    prec = min(a.prec, b.prec)
    da, xs = clear_denominators(a.coeffs[: prec + 1])
    db, ys = (da, xs) if b is a else clear_denominators(b.coeffs[: prec + 1])
    return TruncatedSeries(prec, tuple(unscale(_int_convolution(xs, ys, prec), da * db, 1)))


def series_pow(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e by binary exponentiation (e >= 0), from the leading bit of e."""
    if e < 0:
        raise ValueError("negative series powers are not supported")
    if e == 0:
        return TruncatedSeries.one(a.prec)
    result = a
    for bit in bin(e)[3:]:
        result = series_mul(result, result)
        if bit == "1":
            result = series_mul(result, a)
    return result


# ---------------------------------------------------------------------------
# eta and theta expansions


def _euler_product(prec: int) -> TruncatedSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal number theorem.

    The expansion is sum_j (-1)^j q^(j*(3j-1)/2) over all integers j,
    so only O(sqrt(prec)) coefficients are nonzero.
    """
    coeffs = [0] * (prec + 1)
    coeffs[0] = 1
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > prec:
            break
        sign = -1 if j % 2 else 1
        coeffs[g1] = sign
        if g2 <= prec:
            coeffs[g2] = sign
        j += 1
    return TruncatedSeries(prec, tuple(coeffs))


def _euler_cube(prec: int) -> TruncatedSeries:
    """prod_{n>=1} (1 - q^n)^3 via Jacobi's identity.

    The expansion is sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2), so only
    O(sqrt(prec)) coefficients are nonzero.
    """
    coeffs = [0] * (prec + 1)
    for j in range((math.isqrt(8 * prec + 1) + 1) // 2):  # j(j+1)/2 <= prec
        coeffs[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
    return TruncatedSeries(prec, tuple(coeffs))


def eta_power(d: int, r: int, prec: int) -> TruncatedSeries:
    """q-expansion of eta(d*z)^r up to q^prec.

    eta(d*z)^r = q^(d*r/24) * prod_{n>=1} (1 - q^(d*n))^r; the offset
    d*r/24 must be an integer.  The product is E(q^d)^r with
    E(q) = prod (1 - q^n), so E^r is expanded only to the exponents that
    land at or below prec and spread out to multiples of d.  E^r is
    (E^3)^(r/3) from Jacobi's series when 3 | r, else E^r from the
    pentagonal series.
    """
    if d < 1 or r < 1:
        raise ValueError("d and r must be positive integers")
    if prec < 1:
        raise ValueError("prec must be a positive integer")
    if (d * r) % 24 != 0:
        raise NonIntegralOffset(f"d*r = {d * r} is not divisible by 24")
    offset = d * r // 24
    coeffs = [0] * (prec + 1)
    if offset <= prec:
        m = (prec - offset) // d
        base, e = (_euler_cube, r // 3) if r % 3 == 0 else (_euler_product, r)
        coeffs[offset::d] = series_pow(base(m), e).coeffs if m else (1,)
    return TruncatedSeries(prec, tuple(coeffs))


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
    parts = [eta_power(d, r, prec) for d, r in recipe.factors]
    if recipe.theta_power:
        parts.append(series_pow(theta_series(prec), recipe.theta_power))
    return functools.reduce(series_mul, parts) if parts else TruncatedSeries.one(prec)
