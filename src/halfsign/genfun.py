"""Exact polynomial and rational-generating-function engine.

Houses the closed form of the twisted coefficient series

    H(X) = lead * (1 - chi1_p p^(k-1) X) / (1 - trace X + p^(2k-1) X^2),

its even/odd split S0, S1 over the common degree-4 denominator, power
series expansion, the Lucas-normalized companion polynomial of the local
Satake data (its Lucas terms from arith.lucas_row), and exact real-root
counting via Sturm sequences.

The polynomial gcd and the Sturm sequence read one remainder sequence
(_remainder_sequence): primitive integer pseudo-remainders, each scaled by a
positive factor and negated.  Sturm's theorem needs both the signs and the
negation; the gcd is its last entry, up to sign.

Power series expansion clears denominators first: the recurrence runs on
integers scaled by powers of the lcm L of the coefficient denominators
(see expand), and arith.unscale builds Fractions only at the end, one per
coefficient.

The closed-form suite expands nothing on rational input.  It reads the
twisted sequence as the integer row of its recurrence, b_m = B_m / (s v^m)
(signscan._scaled_twisted), and checks that num/den expands to it as the
truncated-product residual

    sum_(j <= min(m, deg D)) D_j v^j B_(m-j) = s v^m N_m    for every m <= M,

with N, D the num and den times the lcm of their denominators; N has at
most 4 terms, so the right side is 0 from m = 4 on.  Since den(0) = 1, den
is a unit among power series, so den * b = num mod X^(M+1) holds exactly
when b_0..b_M are the first coefficients of num/den.  closed_form_checks
takes the sequence itself and hands the suite B_m = Q b_m, s = Q, v = 1,
with Q the lcm of its denominators.

All identity checking is done by cross-multiplication into polynomial
identities; nothing in this module touches floating point.  Every
denominator is cleared by arith.clear_denominators.  The module is a leaf:
it imports only arith and errors from the package, and takes the Satake data
as the plain pair (trace, norm).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import Rational, check_twist_inputs, clear_denominators, exact, lucas_row, unscale
from .errors import NotExpandable, ZeroPolynomial, _Record

__all__ = [
    "Polynomial",
    "RationalGF",
    "poly_gcd",
    "h_n_closed",
    "s_split_closed",
    "closed_form_checks",
    "expand",
    "remark_polynomial",
    "real_root_count",
    "sturm_chain",
]


class Polynomial(_Record):
    """Dense polynomial over the rationals, coefficients in ascending degree.

    The constructor takes any iterable of coefficients and stores them as a
    tuple of canonical exact numbers (arith.exact: int when integral, else
    Fraction).  Trailing zeros are stripped; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    coeffs: tuple[Rational, ...]

    def __new__(cls, coeffs: Iterable[Rational]):
        coeffs = tuple(exact(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return tuple.__new__(cls, (coeffs,))

    @classmethod
    def of(cls, *coeffs: Rational) -> "Polynomial":
        return cls(coeffs)

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
    _, ints = clear_denominators(poly.coeffs)
    content = math.gcd(*ints) or 1
    return [v // content for v in ints]


def _remainder_sequence(f: list[int], g: list[int]) -> list[list[int]]:
    """f, g, then -rem(f, g), -rem(g, -rem(f, g)), ... down to the last
    nonzero remainder, each scaled to a primitive integer list by a positive
    factor.

    f and g are integer coefficient lists in ascending degree; the empty list
    is the zero polynomial, and a g of higher degree than f makes the first
    remainder -f.  Each remainder is a pseudo-remainder: before every
    elimination step the partial remainder is multiplied by |lc(g)|, never
    by a negative number.  The last entry is a multiple of gcd(f, g), and
    with g = f' the list is the Sturm sequence of f up to positive factors,
    which keep every sign.
    """
    seq = [f]
    while g:
        seq.append(g)
        if g[-1] < 0:  # rem(f, -g) = rem(f, g)
            g = [-v for v in g]
        lead, d = g[-1], len(g) - 1
        rem = list(f)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                rem = [v * lead for v in rem]
                for j, b in enumerate(g):
                    rem[i - d + j] -= c * b
        while rem and rem[-1] == 0:
            rem.pop()
        content = math.gcd(*rem)
        f, g = seq[-1], [-v // content for v in rem]
    return seq


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor: the last entry of the primitive remainder
    sequence of a and b, made positive.

    Result is primitive with positive leading coefficient; gcd(0, 0) = 0.
    """
    g = _remainder_sequence(_integer_primitive(a), _integer_primitive(b))[-1]
    if g and g[-1] < 0:
        g = [-v for v in g]
    return Polynomial(g)


class RationalGF(_Record):
    """Reduced rational function num/den with den(0) normalized to 1.

    The denominator must not vanish at 0 (the function is expandable as a
    power series there); construction reduces by the polynomial gcd and
    rescales so den(0) = 1, making the representation canonical.
    """

    num: Polynomial
    den: Polynomial

    def __new__(cls, num: Polynomial, den: Polynomial):
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
            if c != 1:
                num = num.scale(Fraction(1, c))
                den = den.scale(Fraction(1, c))
        return tuple.__new__(cls, (num, den))

    @classmethod
    def of(cls, num: Iterable[Rational], den: Iterable[Rational]) -> "RationalGF":
        return cls(Polynomial(num), Polynomial(den))

    def __add__(self, other: "RationalGF") -> "RationalGF":
        if self.den == other.den:
            return RationalGF(self.num + other.num, self.den)
        return RationalGF(
            self.num * other.den + other.num * self.den, self.den * other.den
        )


def _cleared(gf: RationalGF) -> tuple[list[int], list[int]]:
    """num and den of gf times the lcm L of all their coefficient
    denominators; den(0) = 1 makes the cleared den[0] equal to L."""
    _, ints = clear_denominators(gf.num.coeffs + gf.den.coeffs)
    return ints[: len(gf.num.coeffs)], ints[len(gf.num.coeffs) :]


def expand(gf: RationalGF, M: int) -> list[Rational]:
    """First M+1 power-series coefficients of num/den, exactly.

    The recurrence den(0) c_m = num_m - sum_j den_j c_{m-j} (den(0) = 1
    after normalization) runs on integers: with (N, D) = _cleared(gf) and
    L = D_0 the clearing factor, the scaled terms e_m = L^(m+1) c_m obey

        e_m = L^m N_m - sum_(1 <= j <= deg den) D_j L^(j-1) e_(m-j).

    With L = 1 this is the plain integer recurrence on c_m; arith.unscale
    divides the e_m back into c_m = e_m / L^(m+1).
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    num, den = _cleared(gf)
    L = den[0]
    num = [c * L**m for m, c in enumerate(num)]
    # D_j L^(j-1) for j = 1..deg den, paired below with e_(m-1), e_(m-2), ...
    den = [c * L**j for j, c in enumerate(den[1:])]
    out: list[int] = []
    for m in range(M + 1):
        e = num[m] if m < len(num) else 0
        for d, prev in zip(den, reversed(out)):
            e -= d * prev
        out.append(e)
    return unscale(out, L, L)


def _expands_to(gf: RationalGF, B: Sequence[int], s: int, v: int) -> bool:
    """Whether the first len(B) coefficients of num/den are B[m] / (s v^m).

    With s = v = 1 and an integral num/den, expand returns plain ints,
    compared with B as one list.  Otherwise, with (N, D) = _cleared(gf), it
    checks the residual sum_(j <= min(m, deg D)) D_j v^j B[m-j] = s v^m N_m
    for every m: den(0) = 1 makes this equivalent to the expansion, and no
    Fraction is built.
    """
    M = len(B) - 1
    num, den = _cleared(gf)
    if s == 1 and v == 1 and den[0] == 1:
        # a clearing factor of 1 means num/den is integral; expand
        # returns the terms as they are, and going through it keeps
        # genfun.expand on the verify path that perfbench's tracer times
        return expand(gf, M) == list(B)
    residual = [s * v**m * c for m, c in enumerate(num[: M + 1])]
    residual += [0] * (M + 1 - len(residual))
    for j, d in enumerate(den):
        if d:
            d *= v**j
            residual[j:] = [r - d * b for r, b in zip(residual[j:], B)]
    return not any(residual)


def h_n_closed(lead: Rational, trace: Rational, chi1_p: int, p: int, k: int) -> RationalGF:
    """Closed form lead * (1 - chi1_p p^(k-1) X) / (1 - trace X + p^(2k-1) X^2).

    Its expansion coefficients are the twisted values a(t p^(2m) n^2)/chi(p^m n)
    when lead = a(t n^2)/chi(n) and trace is the twisted Hecke trace at p.
    """
    check_twist_inputs(k, chi1_p)
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
    check_twist_inputs(k, chi1_p)
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

    seq is scaled to integers once, T_m = Q b_m with Q the lcm of its
    denominators, and checked as the row (T, Q, 1) by _scaled_closed_form_checks.
    """
    if not seq:
        raise ValueError("seq must hold at least one term")
    Q, scaled = clear_denominators(seq)
    return _scaled_closed_form_checks(scaled, Q, 1, b1, trace, chi1_p, p, k)


def _scaled_closed_form_checks(
    B: Sequence[int],
    s: int,
    v: int,
    b1: Rational,
    trace: Rational,
    chi1_p: int,
    p: int,
    k: int,
) -> tuple[bool, bool, bool]:
    """closed_form_checks for the sequence b_m = B[m] / (s v^m), m = 0..M;
    B is nonempty.

    Each expansion is the residual identity of _expands_to against B or its
    even or odd part, and the split identity is cross-multiplied on the
    cleared integer polynomials of _cleared.
    """
    b0 = exact(Fraction(B[0], s))
    h1 = h_n_closed(b0, trace, chi1_p, p, k)
    s0, s1 = s_split_closed(b0, b1, trace, chi1_p, p, k)
    even = [b if m % 2 == 0 else 0 for m, b in enumerate(B)]
    odd = [b if m % 2 == 1 else 0 for m, b in enumerate(B)]
    parity_ok = _expands_to(s0, even, s, v) and _expands_to(s1, odd, s, v)
    # S0 + S1 = H, cross-multiplied over the three cleared denominators
    cleared = (map(Polynomial, _cleared(gf)) for gf in (s0, s1, h1))
    (n0, d0), (n1, d1), (nh, dh) = cleared
    split_ok = (n0 * d1 + n1 * d0) * dh == nh * d0 * d1
    return _expands_to(h1, B, s, v), split_ok, parity_ok


def remark_polynomial(trace: Rational, norm: int, m_p: int) -> Polynomial:
    """Rationalized companion Q(X) = norm u_{m_p - 1} X^m_p - u_{m_p} X^(m_p - 1) + 1,
    with u_0 = 0, u_1 = 1, u_{j+1} = trace u_j - norm u_{j-1}, read off
    arith.lucas_row as v^j u_j for trace = u/v.

    The polynomial (beta alpha^m - alpha beta^m) X^m + (beta^m - alpha^m) X^(m-1)
    + (alpha - beta) built from the Satake roots alpha, beta of
    X^2 - trace X + norm factors as (alpha - beta) Q(X), so its real zeros
    coincide with the real zeros of Q.  For m_p = 1 the polynomial vanishes
    identically.
    """
    if m_p < 1:
        raise ValueError("m_p must be at least 1")
    trace = exact(trace)
    u, v = trace.numerator, trace.denominator
    row = lucas_row(0, v, u, v, norm, m_p)
    u_prev, u_last = unscale(row[m_p - 1 :], v ** (m_p - 1), v)
    coeffs = [0] * (m_p + 1)
    coeffs[0] = 1
    coeffs[m_p - 1] -= u_last
    coeffs[m_p] += norm * u_prev
    return Polynomial(tuple(coeffs))


def sturm_chain(poly: Polynomial) -> list[Polynomial]:
    """Sturm sequence of a nonzero polynomial: poly, poly', then positive
    multiples of the negated remainders, primitive integer polynomials, down
    to a multiple of gcd(poly, poly').  Squarefree input is not required: the
    drop in sign variations between two points that are not roots still
    counts the distinct roots between them."""
    derivative = poly.derivative()
    rest = _remainder_sequence(_integer_primitive(poly), _integer_primitive(derivative))[2:]
    return [c for c in (poly, derivative) if not c.is_zero] + [Polynomial(r) for r in rest]


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
