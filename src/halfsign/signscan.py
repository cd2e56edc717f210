"""Twisted coefficient sequences, subsequence selection, sign-change counts.

The twisted sequence b_nu = a(t p^(2 nu))/chi(p^nu) obeys the order-two
linear recurrence b_{nu+1} = trace * b_nu - p^(2k-1) * b_{nu-1}; only its
first two terms come from the q-expansion.  Its terms grow to about
nu (k - 1/2) log2(p) bits.  With a_t = r/s and trace = u/v, the recurrence
runs on integers only, in arith.lucas_row: _scaled_twisted returns the row
B_nu = s v^nu b_nu with s and v, all the closed-form suite of genfun needs,
and twisted_sequence divides it back with arith.unscale.

A scan needs only the signs at the indices its mode keeps, d, d+n, ...:
subsequence(range(M + 1), mode) gives them (n = 1 in full mode, 2 for odd
and even, the order of p mod q for a progression).  Under strict Deligne,
trace = 2 sqrt(N) cos(theta) with 0 < theta < pi and N = p^(2k-1), and

    b_nu = b_0 N^(nu/2) R sin(nu theta + psi) / sin(theta),
    R cos(psi) = b_1/(b_0 sqrt(N)) - cos(theta),  R sin(psi) = sin(theta)

with R > 0 and 0 < psi < pi (for the flagship's b_1, R cos(psi) =
cos(theta) - chi1(p) p^(-1/2)), so sgn b_nu = sgn b_0 (-1)^floor((psi + nu theta)/pi).
scan reads Theta and Psi, within eps = 2 of 2^G theta/pi and 2^G psi/pi,
off two integer arctans per prime; y_nu = Psi + nu Theta, one addition per
kept term, is then within E = eps (M + 1) of 2^G (psi + nu theta)/pi.  When
every y_nu mod 2^G lies strictly inside (E, 2^G - E), which one pair of
floor sums over all kept terms decides in O(G) steps, the prime is
certified and its signs are the parities of floor(y_nu / 2^G).  With the
step reduced into (-2^G, 2^G], that floor moves at most one per kept term,
always the same way, so count_sign_changes counts the changes by two floors
in O(log M) steps.  At G = 48 + 2 bitlen(E) the n windows of width 2E + 1
that fail cover a share n (2E + 1)/2^G < 2^-48 of the circle, at any M.
Otherwise (b_0 = 0, a zero term, an extremal or violated trace, or an
angle that close to a multiple of pi) its signs are read off the exact
integer row B_nu of _scaled_twisted, which has the signs of b_nu, so every
sign a scan reports is the exact one and no Fraction is built.

Sign changes are zero-transparent: a change is a pair of indices i < j
with b_i * b_j < 0 and every entry strictly between them zero.  A count
keeps only how many changes there are and the j of the first one, never
the pairs, so a report's size does not grow with nu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import isqrt
from typing import Sequence

from . import characters as characters_mod
from . import hecke as hecke_mod
from .arith import (Rational, check_last_index, check_twist_inputs, exact, lucas_row,
                    primes_up_to, unscale)
from .characters import ProgressionSpec, _check_progression
from .errors import InvalidInput, NotInSubgroup, SamePrime, ZeroBase, _Record
from .forms import HalfIntegralForm, coefficient
from .shimura import chi1

__all__ = [
    "twisted_sequence",
    "subsequence",
    "count_sign_changes",
    "SignChangeCount",
    "SignChangeReport",
    "ScanReports",
    "scan",
]


def _scaled_twisted(
    a_t: Rational, trace: Rational, chi1_p: int, p: int, k: int, M: int
) -> tuple[list[int], int, int]:
    """(B, s, v) with b_nu = B_nu / (s v^nu) for nu = 0..M, all integers.

    With a_t = r/s and trace = u/v in lowest terms, B_0 = r,
    B_1 = (u - chi1_p p^(k-1) v) r and B is arith.lucas_row of (u, v) and
    p^(2k-1).  The inputs are not validated; twisted_sequence does that.
    """
    a_t = exact(a_t)
    trace = exact(trace)
    r, s = a_t.numerator, a_t.denominator
    u, v = trace.numerator, trace.denominator
    b1 = (u - chi1_p * p ** (k - 1) * v) * r
    return lucas_row(r, b1, u, v, p ** (2 * k - 1), M), s, v


def twisted_sequence(
    a_t: Rational,
    trace: Rational,
    chi1_p: int,
    p: int,
    k: int,
    M: int,
) -> list[Rational]:
    """b_0..b_M with b_0 = a_t, b_1 = (trace - chi1_p p^(k-1)) a_t and the
    order-two recurrence above; all ints when a_t and trace are integral.

    The terms are the integer row of _scaled_twisted divided back by
    arith.unscale, b_nu = B_nu / (s v^nu).
    """
    check_last_index(M)
    check_twist_inputs(k, chi1_p, p)
    return unscale(*_scaled_twisted(a_t, trace, chi1_p, p, k, M))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_(0 <= j < n) floor((a j + b)/m) for integers n >= 0, m >= 1, a, b >= 0.

    Euclid's O(log m) reduction (the floor_sum of the AtCoder Library):
    take out the whole parts of a/m and b/m, then count the same lattice
    points below the line by rows instead of columns, with a and m swapped.
    """
    total = 0
    while True:
        total += a // m * (n * (n - 1) // 2) + b // m * n
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def _arctan(a: int, b: int, W: int) -> int:
    """2^W arctan(sqrt(a/b)) within 8W, for integers 0 <= a <= b, b >= 1, W >= 16.

    x_0 = isqrt(4^W a // b) is within 1 of 2^W sqrt(a/b) <= 2^W.  Four
    halvings x -> x/(1 + sqrt(1 + x^2)) = tan(arctan(x)/2), each within 1 in
    fixed point, have slope at most 1/2, so 16 arctan(x_4) is within
    1 + 2 + 4 + 8 + 16 = 31 of the target, and x_4 < 2^W/20.  The floored
    powers P_(j+1) = P_j x_4^2 / 2^W of the alternating series x - x^3/3 + ...
    then stay within 2 of 2^W x^(2j+1) and reach 0 by j = W/8 + 1, so the
    series is within 2 W/8 + 1 and the result within 31 + 4W + 16 <= 8W.
    """
    x = isqrt((a << 2 * W) // b)
    one = 1 << W
    for _ in range(4):
        x = (x << W) // (one + isqrt((one << W) + x * x))
    x2, total, j = x * x >> W, 0, 1
    while x:
        total += x // j if j & 2 == 0 else -(x // j)
        x, j = x * x2 >> W, j + 2
    return total << 4


@lru_cache
def _pi(W: int) -> int:
    """2^W pi within 160W (W >= 16), by Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    return 16 * _arctan(1, 25, W) - 4 * _arctan(1, 57121, W)


def _half_turns(y2: int, x: int, G: int) -> int:
    """2^G atan2(sqrt(y2), x) / pi within eps = 2, for integers y2 > 0, x, G >= 16.

    atan2 is 0, pi/2 or pi plus or minus phi = arctan(t), 0 <= t <= 1, and
    the multiples of pi are exact in these units.  With W = G + g bits,
    Phi = _arctan is within 8W of 2^W phi and Pi = _pi(W) >= 3 2^W within
    160W of 2^W pi, so with phi <= pi/4, 2^G Phi/Pi is within
    2^G (8W + 160W/4)/Pi <= 16W/2^g of 2^G phi/pi.  g = 5 + bitlen(G)
    makes that at most 1, and the floor adds less than 1 more.
    """
    W = G + 5 + G.bit_length()
    if y2 <= x * x:
        t = (_arctan(y2, x * x, W) << G) // _pi(W)
        return t if x > 0 else (1 << G) - t
    t = (_arctan(x * x, y2, W) << G) // _pi(W)
    return (1 << G - 1) - t if x >= 0 else (1 << G - 1) + t


def _phases(
    b0: Rational, b1: Rational, trace: Rational, norm: int, G: int
) -> tuple[int, int] | None:
    """(Theta, Psi), each within eps = 2 of 2^G theta/pi and 2^G psi/pi for
    the sequence with b_(nu+1) = trace b_nu - norm b_(nu-1), or None unless
    trace^2 < 4 norm (strict Deligne) and b_0 != 0.

    With trace = u/v and b_1/b_0 = r_n/r_d (r_d > 0), multiplying
    cos(theta) and sin(theta) by 2 v sqrt(norm) gives u and sqrt(4 norm v^2 - u^2),
    and R cos(psi), R sin(psi) by 2 v sqrt(norm) r_d gives 2 v r_n - u r_d
    and r_d sqrt(4 norm v^2 - u^2).
    """
    u, v = trace.numerator, trace.denominator
    gap = 4 * norm * v * v - u * u
    if gap <= 0 or b0 == 0:
        return None
    r = Fraction(b1, b0)
    x = 2 * v * r.numerator - u * r.denominator
    return _half_turns(gap, u, G), _half_turns(r.denominator**2 * gap, x, G)


class _PhaseSigns(_Record):
    """The n signs sign (-1)^floor((y + mu step)/2^G), mu < n, of a certified
    prime, with -2^G < step <= 2^G; list() of it gives them one by one."""

    y: int
    step: int
    n: int
    G: int
    sign: int

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        one, keep, flip = 1 << self.G, self.sign, -self.sign
        return (flip if z & one else keep
                for z in accumulate(repeat(self.step, self.n - 1), initial=self.y))


def _twisted_signs(
    a_t: Rational, trace: Rational, chi1_p: int, p: int, k: int, kept: Sequence[int]
) -> _PhaseSigns | list[int]:
    """The signs (-1, 0 or 1) of b_nu = twisted_sequence(a_t, trace, chi1_p,
    p, k, ...)[nu] at the increasing, evenly spaced indices kept.

    twisted_sequence runs to index 1 (and validates the inputs), and _phases
    gives Theta and Psi at G = 48 + 2 bitlen(E) bits, E = eps (M + 1), M = kept[-1],
    so the n windows of width 2E + 1 cover under 2^-48 of 2^G.  y_nu runs
    from nu = kept[0] in steps of n Theta, shifted down by E + 1; reducing
    the start and step mod 2^(G+1) keeps bit G and the low bits.  So y_nu
    mod 2^G lies in (E, 2^G - E) exactly when adding 2E + 1 leaves
    floor(y_nu / 2^G) unchanged, and as no floor can drop, one pair of
    _floor_sum calls over all kept terms checks that.  Then floor(y_nu / 2^G)
    has the parity of floor((psi + nu theta)/pi), and the signs are a
    _PhaseSigns, step moved into (-2^G, 2^G] by a multiple of 2^(G+1).
    Otherwise the exact recurrence runs to M, as the row B_nu = s v^nu b_nu
    of _scaled_twisted (s, v > 0), and they are a list.
    """
    b0, b1 = twisted_sequence(a_t, trace, chi1_p, p, k, 1)
    if not kept:
        return []
    E = 2 * (kept[-1] + 1)
    G = 48 + 2 * E.bit_length()
    phases = _phases(b0, b1, trace, p ** (2 * k - 1), G)
    if phases is not None:
        theta, psi = phases
        one, wrap = 1 << G, 2 << G
        step = theta * (kept[1] - kept[0] if len(kept) > 1 else 1) % wrap
        y = (psi + kept[0] * theta - E - 1) % wrap
        n = len(kept)
        if _floor_sum(n, one, step, y + 2 * E + 1) == _floor_sum(n, one, step, y):
            return _PhaseSigns(y, step - wrap if step > one else step, n, G, 1 if b0 > 0 else -1)
    row, _, _ = _scaled_twisted(a_t, trace, chi1_p, p, k, kept[-1])
    return [(row[i] > 0) - (row[i] < 0) for i in kept]


_NAMED_MODES = {"full": slice(None), "odd": slice(1, None, 2), "even": slice(0, None, 2)}


def _named_mode(mode: object) -> slice:
    if isinstance(mode, str) and mode in _NAMED_MODES:
        return _NAMED_MODES[mode]
    raise InvalidInput(f"unknown mode {mode!r}")


def subsequence(seq: Sequence[Rational], mode: str | ProgressionSpec) -> Sequence[Rational]:
    """Index filter: full, odd (1,3,5,...), even (0,2,4,...), or a progression.

    The result is a slice of seq: a new list for a list, a range for a range.
    """
    if isinstance(mode, ProgressionSpec):
        return characters_mod.progression_extract(seq, mode)
    return seq[_named_mode(mode)]


class SignChangeCount(_Record):
    """Sign-change statistics of a single real sequence."""

    length: int
    change_count: int
    first_change_index: int | None
    zero_count: int


def count_sign_changes(seq: Sequence[Rational]) -> SignChangeCount:
    """Count zero-transparent sign changes.

    A change is an index pair i < j of two opposite-sign entries with only
    zeros between them.  Only the number of changes and first_change_index,
    the j at which the first change completes, are kept, not the pairs.
    A _PhaseSigns has no zeros and its floor(y_j / 2^G) moves at most one per
    entry, one way, so two floors count its changes and one division finds
    the first j past the floor of y_0.
    """
    if isinstance(seq, _PhaseSigns):
        y, step, n, G = seq.y, seq.step, seq.n, seq.G
        changes = abs((y + (n - 1) * step >> G) - (y >> G))
        room = (-y - 1 if step > 0 else y) % (1 << G)
        return SignChangeCount(n, changes, room // abs(step) + 1 if changes else None, 0)
    change_count = zero_count = last_sign = 0
    first_change_index: int | None = None
    for idx, value in enumerate(seq):
        if value == 0:
            zero_count += 1
            continue
        sign = 1 if value > 0 else -1
        if sign == -last_sign:
            change_count += 1
            if first_change_index is None:
                first_change_index = idx
        last_sign = sign
    return SignChangeCount(len(seq), change_count, first_change_index, zero_count)


class SignChangeReport(SignChangeCount):
    """Per-prime scan result for one subsequence mode: the counts of the
    filtered signs, with the prime, the twist index, the mode label and the
    Deligne status."""

    p: int
    t: int
    mode: str
    deligne: str


class ScanReports(list):
    """A scan's SignChangeReports, sorted by p; `skipped` names the primes whose
    a(t p^2) lies beyond the form's precision, `exact` those read off the exact row."""

    def __init__(self, reports: list[SignChangeReport], skipped: list[int], exact: list[int]):
        super().__init__(reports)
        self.skipped = tuple(skipped)
        self.exact = tuple(exact)


def scan(
    form: HalfIntegralForm,
    t: int,
    mode: str | tuple[int, int],
    p_max: int,
    M: int,
) -> ScanReports:
    """Sign-change reports for every admissible prime p <= p_max.

    For each prime coprime to the level: extract the twisted trace from
    the q-expansion, decide the signs of b_nu at the indices nu <= M that
    the mode keeps (certified phase signs, with the exact recurrence
    as the fallback; see the module docstring), and count sign changes.
    mode is "full", "odd", "even", or a pair (q, h) with q prime and
    1 < h < q for the progression p^nu = h (mod q); both, and M >= 0, are
    checked before any prime is tried.  For a pair, primes for which h is
    not a power of p mod q (or p = q) do not satisfy the progression
    hypotheses and are left out, and a prime whose progression starts past index M
    is reported with an empty subsequence.  Admissible primes whose trace
    needs a(t p^2) beyond the form's precision are listed in `skipped`
    instead of ending the scan, those read off the exact row in `exact`.
    """
    a_t = coefficient(form, t, 1)
    if a_t == 0:
        raise ZeroBase(f"a({t}) = 0; the twisted sequence is identically zero")
    progression = isinstance(mode, tuple) and len(mode) == 2
    if progression:
        q, h = mode
        _check_progression(q, h)
    else:
        _named_mode(mode)
    check_last_index(M)
    reports: list[SignChangeReport] = []
    skipped: list[int] = []
    exact_primes: list[int] = []
    for p in primes_up_to(p_max):
        if form.level % p == 0:
            continue
        selector: str | ProgressionSpec = mode
        if progression:
            try:
                selector = ProgressionSpec.create(q=q, h=h, p=p)
            except (NotInSubgroup, SamePrime):
                continue
        if t * p * p > form.prec:
            skipped.append(p)
            continue
        trace = hecke_mod.extract_trace(form, t, p)
        c1 = chi1(p, t, form.k, form.level)
        kept = subsequence(range(M + 1), selector)
        signs = _twisted_signs(a_t, trace, c1, p, form.k, kept)
        if signs and not isinstance(signs, _PhaseSigns):
            exact_primes.append(p)
        stats = count_sign_changes(signs)
        label = selector.label if progression else mode
        deligne = hecke_mod.deligne_check(trace, p, form.k)
        reports.append(SignChangeReport(*stats, p, t, label, deligne))
    return ScanReports(reports, skipped, exact_primes)
