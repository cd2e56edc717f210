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

A RationalGF holds its reduced integer rows, with content 1 and den(0) > 0.
expand runs the recurrence on integers scaled by powers of L = den(0), and
arith.unscale builds Fractions only at the end, one per coefficient.

The closed-form suite expands nothing on rational input.  It reads the
twisted sequence as the integer row of its recurrence, b_m = B_m / (s v^m)
(signscan._scaled_twisted), and checks that num/den expands to it as the
truncated-product residual

    sum_(j <= min(m, deg D)) D_j v^j B_(m-j) = s v^m N_m    for every m <= M,

with N, D the integer rows of num and den.  Since den(0) != 0, den is a
unit among power series, so den * b = num mod X^(M+1) holds exactly when
b_0..b_M are the first coefficients of num/den.  Past the head
m < max(len N, len D) the right side is 0: the identity is the order-deg D
recurrence of the row.  S0 and S1 are read on the half rows
B[0::2] and B[1::2].  closed_form_checks takes the sequence itself and hands
the suite B_m = Q b_m, s = Q, v = 1, with Q the lcm of its denominators.

Nothing in this module touches floating point, and every denominator is
cleared by arith.clear_denominators.  The module is a leaf: it imports only
arith and errors from the package, and takes the Satake data as the plain
pair (trace, norm).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat, zip_longest
from operator import add, mul, ne
from typing import Iterable, Sequence

from .arith import (Rational, check_last_index, check_twist_inputs, clear_denominators, exact,
                    lucas_row, unscale)
from .errors import InvalidInput, NotExpandable, ZeroPolynomial, _Record

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
        coeffs = tuple(map(exact, coeffs))
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
        return Polynomial(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_convolve(self.coeffs, other.coeffs))

    def scale(self, c: Rational) -> "Polynomial":
        return Polynomial(tuple(c * v for v in self.coeffs))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division over the rationals; ZeroPolynomial for a zero divisor."""
        d, lead = other.degree, other.leading
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
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


def _convolve(a: Sequence[Rational], b: Sequence[Rational]) -> list[Rational]:
    """Ascending coefficients of the product a * b of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
    """Reduced rational function num/den, held as its integer rows.

    The denominator must not vanish at 0 (the function is expandable as a
    power series there).  Construction divides out the polynomial gcd, then
    scales both rows to integers with content 1 and den(0) > 0, making the
    representation canonical: num and den share no factor of positive degree.
    """

    num: Polynomial
    den: Polynomial

    def __new__(cls, num: Polynomial, den: Polynomial):
        if den.is_zero or den.coeffs[0] == 0:
            raise NotExpandable("denominator vanishes at X = 0")
        if num.is_zero:
            return tuple.__new__(cls, (num, Polynomial.of(1)))
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        _, ints = clear_denominators(num.coeffs + den.coeffs)
        n = len(num.coeffs)
        content = math.gcd(*ints) if ints[n] > 0 else -math.gcd(*ints)
        return tuple.__new__(cls, (Polynomial(c // content for c in ints[:n]),
                                   Polynomial(c // content for c in ints[n:])))

    @classmethod
    def of(cls, num: Iterable[Rational], den: Iterable[Rational]) -> "RationalGF":
        return cls(Polynomial(num), Polynomial(den))


def expand(gf: RationalGF, M: int) -> list[Rational]:
    """First M+1 power-series coefficients of num/den, exactly.

    The recurrence den(0) c_m = num_m - sum_j den_j c_{m-j} runs on the
    integer rows N = gf.num, D = gf.den: with L = D_0 >= 1, the scaled terms
    e_m = L^(m+1) c_m obey

        e_m = L^m N_m - sum_(1 <= j <= deg den) D_j L^(j-1) e_(m-j).

    With L = 1 this is the plain integer recurrence on c_m; arith.unscale
    divides the e_m back into c_m = e_m / L^(m+1).
    """
    check_last_index(M)
    L = gf.den.coeffs[0]
    num = [c * L**m for m, c in enumerate(gf.num.coeffs)]
    # D_j L^(j-1) for j = 1..deg den, paired below with e_(m-1), e_(m-2), ...
    den = [c * L**j for j, c in enumerate(gf.den.coeffs[1:])]
    out: list[int] = []
    for m in range(M + 1):
        e = num[m] if m < len(num) else 0
        for d, prev in zip(den, reversed(out)):
            e -= d * prev
        out.append(e)
    return unscale(out, L, L)


def _expands_to(num: Sequence[int], den: Sequence[int], B: Sequence[int], s: int, v: int) -> bool:
    """Whether N/D, integer rows with D_0 != 0, expands to B[m] / (s v^m): the
    module docstring's residual in full in the head, and in the tail over the
    content g of the D_j v^j, in one lazy pass over shifted slices of B."""
    dv = [d * v**j for j, d in enumerate(den)]
    head = min(max(len(num), len(den)), len(B))
    for m in range(head):
        if sum(map(mul, dv, B[m::-1])) != s * v**m * (num[m] if m < len(num) else 0):
            return False
    g = math.gcd(*dv)
    terms = B[head:] if dv[0] == g else map(mul, repeat(dv[0] // g), B[head:])
    for j in range(1, len(dv)):
        terms = map(add, terms, map(mul, repeat(dv[j] // g), B[head - j : len(B) - j]))
    return not any(terms)


def h_n_closed(lead: Rational, trace: Rational, chi1_p: int, p: int, k: int) -> RationalGF:
    """Closed form lead * (1 - chi1_p p^(k-1) X) / (1 - trace X + p^(2k-1) X^2).

    Its expansion coefficients are the twisted values a(t p^(2m) n^2)/chi(p^m n)
    when lead = a(t n^2)/chi(n) and trace is the twisted Hecke trace at p.
    """
    check_twist_inputs(k, chi1_p, p)
    # r v (1 - c X) / (s (v - u X + N v X^2)) for lead = r/s and trace = u/v
    (r, s), (u, v) = (exact(x).as_integer_ratio() for x in (lead, trace))
    num = Polynomial.of(r * v, -r * v * chi1_p * p ** (k - 1))
    den = Polynomial.of(s * v, -s * u, s * v * p ** (2 * k - 1))
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
        S0 = a_t (1 + (N - trace chi1_p p^(k-1)) X^2) / D
        D  = (1 - trace X + N X^2)(1 + trace X + N X^2) = 1 + (2N - trace^2) X^2 + N^2 X^4

    with N = p^(2k-1) and a_tp2_twisted = a(t p^2)/chi(p): S0 collects the
    even-index terms of the twisted series and S1 the odd-index terms.  The
    gcd RationalGF cancels is even or odd, and even as D(0) != 0, so the
    reduced forms stay n0(X^2)/d0(X^2) and X n1(X^2)/d1(X^2).
    """
    check_twist_inputs(k, chi1_p, p)
    # S0 times s v^2 and S1 times s z v^2, for a_t = r/s, a_tp2_twisted = w/z, trace = u/v
    (r, s), (w, z), (u, v) = (exact(x).as_integer_ratio() for x in (a_t, a_tp2_twisted, trace))
    norm = p ** (2 * k - 1)
    den = (v * v, 0, 2 * norm * v * v - u * u, 0, norm * norm * v * v)
    s0_num = (r * v * v, 0, r * v * (norm * v - u * chi1_p * p ** (k - 1)))
    s1_num = (0, w * s * v * v, 0, -r * z * v * v * chi1_p * p ** (3 * k - 2))
    s0 = RationalGF.of(s0_num, (s * d for d in den))
    return s0, RationalGF.of(s1_num, (s * z * d for d in den))


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
        raise InvalidInput("seq must hold at least one term")
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

    _expands_to checks H against B, n0/d0 against B[0::2] at scale (s, v^2)
    and n1/d1 against B[1::2] at scale (s v, v^2); S0 + S1 = H is
    cross-multiplied on the integer rows, (n0 d1 + n1 d0) dh = nh d0 d1.
    """
    b0 = exact(Fraction(B[0], s))
    h1 = h_n_closed(b0, trace, chi1_p, p, k)
    s0, s1 = s_split_closed(b0, b1, trace, chi1_p, p, k)
    (nh, dh), (n0, d0), (n1, d1) = ((gf.num.coeffs, gf.den.coeffs) for gf in (h1, s0, s1))
    if s == v == dh[0] == 1:
        # integral H: expand keeps genfun.expand on the verify path perfbench times
        closed_ok = expand(h1, len(B) - 1) == list(B)
    else:
        closed_ok = _expands_to(nh, dh, B, s, v)
    parity_ok = _expands_to(n0[0::2], d0[0::2], B[0::2], s, v * v) and _expands_to(
        n1[1::2], d1[0::2], B[1::2], s * v, v * v
    )
    parts = [a + b for a, b in zip_longest(_convolve(n0, d1), _convolve(n1, d0), fillvalue=0)]
    total = _convolve(_convolve(nh, d0), d1)
    split_ok = all(a == b for a, b in zip_longest(_convolve(parts, dh), total, fillvalue=0))
    return closed_ok, split_ok, parity_ok


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
        raise InvalidInput("m_p must be at least 1")
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
    if poly.is_zero:
        raise ZeroPolynomial("the zero polynomial has no Sturm chain")
    derivative = poly.derivative()
    rest = _remainder_sequence(_integer_primitive(poly), _integer_primitive(derivative))[2:]
    return [c for c in (poly, derivative) if not c.is_zero] + [Polynomial(r) for r in rest]


def _sign_variations(positive: Sequence[bool]) -> int:
    """Sign changes along nonzero signs, each given as whether it is positive."""
    return sum(map(ne, positive, positive[1:]))


def real_root_count(poly: Polynomial) -> int:
    """Number of distinct real roots, by Sturm's theorem on (-inf, +inf).

    Multiple roots are counted once; no squarefree reduction is needed,
    since the Sturm chain of any nonzero polynomial counts distinct roots.
    No entry of the chain is zero: its sign at +inf is that of its leading
    coefficient, and at -inf that sign flipped for an odd degree.
    """
    chain = sturm_chain(poly)
    high = [c.coeffs[-1] > 0 for c in chain]
    low = [positive != (c.degree % 2 == 1) for positive, c in zip(high, chain)]
    return _sign_variations(low) - _sign_variations(high)
