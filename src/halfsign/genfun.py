"""Exact polynomial and rational-generating-function engine.

Houses the closed form of the twisted coefficient series

    H(X) = lead * (1 - chi1_p p^(k-1) X) / (1 - trace X + p^(2k-1) X^2),

its even/odd split S0, S1 over the common degree-4 denominator, power
series expansion, the Lucas-normalized companion polynomial of the local
Satake data, and exact real-root counting via Sturm sequences.

Power series expansion clears denominators first: the recurrence runs on
integers scaled by powers of the lcm L of the coefficient denominators
(see _scaled_terms).  closed_form_checks compares these scaled integers
with the expected terms by cross-multiplication; only expand builds
Fractions, one per coefficient.

All identity checking is done by cross-multiplication into polynomial
identities; nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import Rational, exact
from .errors import NotExpandable, ZeroPolynomial
from .hecke import HeckeLocalData

__all__ = [
    "Polynomial",
    "RationalGF",
    "h_n_closed",
    "s_split_closed",
    "closed_form_checks",
    "expand",
    "remark_polynomial",
    "real_root_count",
    "sturm_chain",
]


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over the rationals, coefficients in ascending degree.

    Coefficients are canonical exact numbers (arith.exact: int when
    integral, else Fraction).  Trailing zeros are stripped; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(exact(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def of(cls, *coeffs: Rational) -> "Polynomial":
        return cls(coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational]) -> "Polynomial":
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rational:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rational) -> Rational:
        x = exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            )
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    def scale(self, c: Rational) -> "Polynomial":
        return Polynomial(tuple(c * v for v in self.coeffs))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            c = Fraction(rem[i], lead)
            quot[i - d] = c
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= c * b
        return Polynomial(tuple(quot)), Polynomial(tuple(rem))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))


def _integer_primitive(poly: Polynomial) -> list[int]:
    """Scale a rational polynomial to a primitive integer coefficient list."""
    lcm = 1
    for c in poly.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in poly.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    return [v // content for v in ints] if content else ints


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, computed by a content-normalized
    (primitive) pseudo-remainder sequence on integer polynomials.

    Result is primitive with positive leading coefficient; gcd(0, 0) = 0.
    """
    if a.is_zero:
        u = b
    elif b.is_zero:
        u = a
    else:
        fa = _integer_primitive(a)
        fb = _integer_primitive(b)
        if len(fa) < len(fb):
            fa, fb = fb, fa
        while fb:
            # pseudo-remainder: lc(fb)^(deg gap + 1) * fa mod fb, then
            # divide out the content
            lead = fb[-1]
            rem = list(fa)
            d = len(fb) - 1
            for i in range(len(rem) - 1, d - 1, -1):
                if rem[i] == 0:
                    continue
                c = rem[i]
                rem = [v * lead for v in rem]
                for j, bv in enumerate(fb):
                    rem[i - d + j] -= c * bv
            while rem and rem[-1] == 0:
                rem.pop()
            content = 0
            for v in rem:
                content = math.gcd(content, abs(v))
            if content:
                rem = [v // content for v in rem]
            fa, fb = fb, rem
        u = Polynomial(tuple(fa))
    if u.is_zero:
        return u
    ints = _integer_primitive(u)
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return Polynomial(tuple(ints))


@dataclass(frozen=True)
class RationalGF:
    """Reduced rational function num/den with den(0) normalized to 1.

    The denominator must not vanish at 0 (the function is expandable as a
    power series there); construction reduces by the polynomial gcd and
    rescales so den(0) = 1, making the representation canonical.
    """

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero or den.coeffs[0] == 0:
            raise NotExpandable("denominator vanishes at X = 0")
        if num.is_zero:
            num, den = Polynomial(()), Polynomial.of(1)
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            c = den.coeffs[0]
            num = num.scale(Fraction(1, c))
            den = den.scale(Fraction(1, c))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, num: Iterable[Rational], den: Iterable[Rational]) -> "RationalGF":
        return cls(Polynomial.from_coeffs(num), Polynomial.from_coeffs(den))

    def __add__(self, other: "RationalGF") -> "RationalGF":
        if self.den == other.den:
            return RationalGF(self.num + other.num, self.den)
        return RationalGF(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def cross_equal(self, other: "RationalGF") -> bool:
        """Equality as rational functions, by cross-multiplied polynomial identity."""
        return self.num * other.den == other.num * self.den


def _scaled_terms(gf: RationalGF, M: int) -> tuple[list[int], int]:
    """Scaled integer terms e_0..e_M of num/den and the scale L, with
    c_m = e_m / L^(m+1) the power-series coefficients.

    The recurrence den(0) c_m = num_m - sum_j den_j c_{m-j} (den(0) = 1
    after normalization) runs on integers: with L the lcm of the
    coefficient denominators, N_m = L num_m and D_j = L den_j, the scaled
    terms e_m = L^(m+1) c_m obey

        e_m = L^m N_m - sum_(1 <= j <= deg den) D_j L^(j-1) e_(m-j).

    With L = 1 this is the plain integer recurrence on c_m itself.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    L = 1
    for c in gf.num.coeffs + gf.den.coeffs:
        L = math.lcm(L, c.denominator)
    num = [c.numerator * (L // c.denominator) * L**m for m, c in enumerate(gf.num.coeffs)]
    # D_j L^(j-1) for j = 1..deg den, paired below with e_(m-1), e_(m-2), ...
    den = [
        c.numerator * (L // c.denominator) * L**j
        for j, c in enumerate(gf.den.coeffs[1:])
    ]
    out: list[int] = []
    for m in range(M + 1):
        e = num[m] if m < len(num) else 0
        for d, prev in zip(den, reversed(out)):
            e -= d * prev
        out.append(e)
    return out, L


def expand(gf: RationalGF, M: int) -> list[Rational]:
    """First M+1 power-series coefficients of num/den, exactly.

    Each c_m = e_m / L^(m+1) of _scaled_terms becomes a canonical number
    (int when integral, else a reduced Fraction) here, once; with L = 1
    the e_m are returned as they are.
    """
    out, L = _scaled_terms(gf, M)
    if L == 1:
        return out
    scaled: list[Rational] = []
    scale = 1
    for e in out:
        scale *= L
        scaled.append(exact(Fraction(e, scale)))
    return scaled


def _expands_to(gf: RationalGF, target: Sequence[Rational]) -> bool:
    """Whether the first len(target) coefficients of num/den are target.

    An integral num/den expands to plain ints, compared with target as one
    list.  Otherwise each scaled term of _scaled_terms is compared as
    e_m den(t_m) == num(t_m) L^(m+1), with a running power of L: no
    Fraction is built and no gcd taken.
    """
    M = len(target) - 1
    if all(c.denominator == 1 for c in gf.num.coeffs + gf.den.coeffs):
        # expand returns the e_m themselves here; going through it keeps
        # genfun.expand on the verify path that perfbench's tracer times
        return expand(gf, M) == list(target)
    out, L = _scaled_terms(gf, M)
    power = 1
    for e, t in zip(out, target):
        power *= L
        if e * t.denominator != t.numerator * power:
            return False
    return True


def h_n_closed(lead: Rational, trace: Rational, chi1_p: int, p: int, k: int) -> RationalGF:
    """Closed form lead * (1 - chi1_p p^(k-1) X) / (1 - trace X + p^(2k-1) X^2).

    Its expansion coefficients are the twisted values a(t p^(2m) n^2)/chi(p^m n)
    when lead = a(t n^2)/chi(n) and trace is the twisted Hecke trace at p.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if chi1_p not in (-1, 0, 1):
        raise ValueError("chi1_p must be one of -1, 0, 1")
    num = Polynomial.of(lead, -lead * chi1_p * p ** (k - 1))
    den = Polynomial.of(1, -trace, p ** (2 * k - 1))
    return RationalGF(num, den)


def s_split_closed(
    a_t: Rational,
    a_tp2_twisted: Rational,
    trace: Rational,
    chi1_p: int,
    p: int,
    k: int,
) -> tuple[RationalGF, RationalGF]:
    """Even/odd split (S0, S1) of the twisted series over the degree-4 denominator.

        S1 = X (a_tp2_twisted - a_t chi1_p p^(3k-2) X^2) / D
        S0 = a_t (1 + (p^(2k-1) - trace chi1_p p^(k-1)) X^2) / D
        D  = (1 - trace X + p^(2k-1) X^2)(1 + trace X + p^(2k-1) X^2)

    where a_tp2_twisted = a(t p^2)/chi(p).  S0 collects the even-index
    terms of the twisted series and S1 the odd-index terms.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if chi1_p not in (-1, 0, 1):
        raise ValueError("chi1_p must be one of -1, 0, 1")
    norm = p ** (2 * k - 1)
    den = Polynomial.of(1, -trace, norm) * Polynomial.of(1, trace, norm)
    s0_num = Polynomial.of(a_t, 0, a_t * (norm - trace * chi1_p * p ** (k - 1)))
    s1_num = Polynomial.of(0, a_tp2_twisted, 0, -a_t * chi1_p * p ** (3 * k - 2))
    return RationalGF(s0_num, den), RationalGF(s1_num, den)


def closed_form_checks(
    seq: Sequence[Rational],
    b1: Rational,
    trace: Rational,
    chi1_p: int,
    p: int,
    k: int,
) -> tuple[bool, bool, bool]:
    """The closed-form identity suite for a twisted sequence seq = b_0..b_M.

    Returns (closed_ok, split_ok, parity_ok): H = h_n_closed(b_0, ...)
    expands to seq; S0 + S1 = H for the split built from b_0 and b1; and
    S0, S1 expand to the even- and odd-index terms of seq, zero elsewhere.
    """
    h1 = h_n_closed(seq[0], trace, chi1_p, p, k)
    s0, s1 = s_split_closed(seq[0], b1, trace, chi1_p, p, k)
    even = [b if m % 2 == 0 else 0 for m, b in enumerate(seq)]
    odd = [b if m % 2 == 1 else 0 for m, b in enumerate(seq)]
    parity_ok = _expands_to(s0, even) and _expands_to(s1, odd)
    return _expands_to(h1, seq), (s0 + s1).cross_equal(h1), parity_ok


def lucas_sequence(trace: Rational, norm: Rational, count: int) -> list[Rational]:
    """u_0..u_count with u_0 = 0, u_1 = 1, u_{j+1} = trace u_j - norm u_{j-1}.

    u_j = (alpha^j - beta^j)/(alpha - beta) for the roots alpha, beta of
    X^2 - trace X + norm.
    """
    values = [0, 1]
    while len(values) <= count:
        values.append(trace * values[-1] - norm * values[-2])
    return values[: count + 1]


def remark_polynomial(local: HeckeLocalData, m_p: int) -> Polynomial:
    """Rationalized companion Q(X) = norm u_{m_p - 1} X^m_p - u_{m_p} X^(m_p - 1) + 1.

    The polynomial (beta alpha^m - alpha beta^m) X^m + (beta^m - alpha^m) X^(m-1)
    + (alpha - beta) built from the Satake roots factors as (alpha - beta) Q(X),
    so its real zeros coincide with the real zeros of Q.  For m_p = 1 the
    polynomial vanishes identically.
    """
    if m_p < 1:
        raise ValueError("m_p must be at least 1")
    u = lucas_sequence(local.trace, local.norm, m_p)
    coeffs = [0] * (m_p + 1)
    coeffs[0] = 1
    coeffs[m_p - 1] -= u[m_p]
    coeffs[m_p] += local.norm * u[m_p - 1]
    return Polynomial(tuple(coeffs))


def sturm_chain(poly: Polynomial) -> list[Polynomial]:
    """Sturm sequence of a nonzero polynomial: poly, poly', then negated
    remainders down to a multiple of gcd(poly, poly').  Squarefree input is
    not required: the drop in sign variations between two points that are
    not roots still counts the distinct roots between them."""
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        _, rem = chain[-2].divmod(chain[-1])
        if rem.is_zero:
            break
        chain.append(-rem)
    return [c for c in chain if not c.is_zero]


def _sign_variations(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def real_root_count(poly: Polynomial) -> int:
    """Number of distinct real roots, by Sturm's theorem on (-inf, +inf).

    Multiple roots are counted once; no squarefree reduction is needed,
    since the Sturm chain of any nonzero polynomial counts distinct roots.
    """
    if poly.is_zero:
        raise ZeroPolynomial("real_root_count of the zero polynomial")
    if poly.degree == 0:
        return 0
    chain = sturm_chain(poly)

    def sign_at_inf(c: Polynomial, positive: bool) -> int:
        s = 1 if c.leading > 0 else -1
        if not positive and c.degree % 2 == 1:
            s = -s
        return s

    high = _sign_variations([sign_at_inf(c, True) for c in chain])
    low = _sign_variations([sign_at_inf(c, False) for c in chain])
    return low - high
