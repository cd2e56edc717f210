"""Twisted coefficient sequences, subsequence selection, sign-change counts.

The twisted sequence b_nu = a(t p^(2 nu))/chi(p^nu) obeys the order-two
linear recurrence b_{nu+1} = trace * b_nu - p^(2k-1) * b_{nu-1}; only its
first two terms come from the q-expansion.  Its terms grow to about
nu (k - 1/2) log2(p) bits.  With a_t = r/s and trace = u/v, the recurrence
runs on integers only: _scaled_twisted returns the row B_nu = s v^nu b_nu
with s and v, which is all the closed-form suite of genfun needs, and
twisted_sequence divides it out into one canonical number per term.

A scan needs only the signs at the indices its mode keeps, d, d+n, ...,
d+(L-1)n: subsequence(range(M + 1), mode) gives them (n = 1 in full mode,
2 for odd and even, the order of p mod q for a progression).  With
alpha, beta the roots of X^2 - trace X + N, N = p^(2k-1), every n-th term
obeys b_(nu+n) = V_n b_nu - N^n b_(nu-n), V_n = alpha^n + beta^n, so the
kept terms are again an order-two sequence, with local data (V_n, N^n)
and start values b_d, b_(d+n).  Under strict Deligne,
trace = 2 sqrt(N) cos(theta) with 0 < theta < pi, V_n = 2 N^(n/2) cos(n theta),
and c_j = b_(d+jn) / (b_d N^(jn/2)) obeys c_(j+1) = 2 cos(n theta) c_j - c_(j-1).
scan runs that recurrence once per prime, in F-bit fixed-point integers,
over the L kept terms only, in blocks of which it keeps only the signs and
two running sums, and then checks once that every |C_j| exceeds an exact
bound E on the error; sgn b_(d+jn) = sgn(b_d) sgn(C_j).  When the
walk cannot certify (b_d = 0, a zero term, sin(n theta) = 0 or n theta too
close to 0 or pi), or the trace is extremal or violated, the prime's signs
are read off the exact integer row B_nu of _scaled_twisted at the kept
indices instead, which has the signs of b_nu, so every sign a scan reports
is the exact one and no Fraction is built.

Sign changes are zero-transparent: a change is a pair of indices i < j
with b_i * b_j < 0 and every entry strictly between them zero.  A count
keeps only how many changes there are and the j of the first one, never
the pairs, so a report's size does not grow with nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from . import characters as characters_mod
from . import hecke as hecke_mod
from .arith import Rational, exact, is_prime, primes_up_to
from .characters import ProgressionSpec
from .errors import NotInSubgroup, OutOfRange, ZeroBase
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
    B_1 = (u - chi1_p p^(k-1) v) r and B_(nu+1) = u B_nu - p^(2k-1) v^2 B_(nu-1).
    The inputs are not validated; twisted_sequence does that.
    """
    a_t = exact(a_t)
    trace = exact(trace)
    r, s = a_t.numerator, a_t.denominator
    u, v = trace.numerator, trace.denominator
    step = p ** (2 * k - 1) * v * v
    row = [r]
    if M >= 1:
        row.append((u - chi1_p * p ** (k - 1) * v) * r)
    for _ in range(1, M):
        row.append(u * row[-1] - step * row[-2])
    return row, s, v


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

    The terms are the integer row of _scaled_twisted, each b_nu = B_nu / (s v^nu)
    built once; when s = v = 1 the B_nu are the b_nu themselves.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if k < 2:
        raise ValueError("k must be at least 2")
    if chi1_p not in (-1, 0, 1):
        raise ValueError("chi1_p must be one of -1, 0, 1")
    row, s, v = _scaled_twisted(a_t, trace, chi1_p, p, k, M)
    if s == 1 and v == 1:
        return row
    out: list[Rational] = []
    scale = s
    for b in row:
        out.append(exact(Fraction(b, scale)))
        scale *= v
    return out


def _sine_bound(trace: Rational, norm: int) -> int | None:
    """An integer S >= 1/sin(theta), where trace = 2 sqrt(norm) cos(theta);
    None unless trace^2 < 4 norm (strict Deligne)."""
    u, v = trace.numerator, trace.denominator
    four_nv2 = 4 * norm * v * v
    gap = four_nv2 - u * u
    if gap <= 0:
        return None
    return isqrt(-(-four_nv2 // gap)) + 1


def _lucas_v(trace: Rational, norm: int, n: int) -> Rational:
    """V_n = alpha^n + beta^n for the roots of X^2 - trace X + norm (n >= 1).

    V_0 = 2, V_1 = trace and V_(j+1) = trace V_j - norm V_(j-1), run on the
    integers v^j V_j with trace = u/v, as _scaled_twisted runs b_nu.
    """
    u, v = trace.numerator, trace.denominator
    step = norm * v * v
    prev, cur = 2, u
    for _ in range(1, n):
        prev, cur = cur, u * cur - step * prev
    return Fraction(cur, v**n)


# The walk hands its fixed-point terms over in blocks of this many, so a
# scan holds one block of F-bit ints at a time, not all M of them.
_WALK_BLOCK = 1 << 16


def _normalised_walk(
    b0: Rational, b1: Rational, trace: Rational, norm: int, F: int, M: int
) -> Iterator[list[int]]:
    """[C_1, ..., C_M] (M >= 1) in consecutive blocks of at most _WALK_BLOCK
    terms, where C_nu is 2^F c_nu in fixed point and
    c_nu = b_nu / (b_0 sqrt(norm)^nu) for the sequence b with
    b_(nu+1) = trace b_nu - norm b_(nu-1).

    c_(nu+1) = x c_nu - c_(nu-1) with x = trace/sqrt(norm) = 2 cos(theta).
    C_1 and X are within 1 of 2^F c_1 and 2^F x, and each step floors
    X C_nu / 2^F, so the error e_nu = C_nu - 2^F c_nu obeys
    e_(nu+1) = x e_nu - e_(nu-1) + delta_nu with |delta_nu| < 1 + |C_nu|/2^F
    and e_0 = 0.  Its solution sums e_1 and the delta_j against Chebyshev
    U_n(cos theta) = sin((n+1) theta)/sin(theta), each at most S in size, so
    |e_nu| < E_nu = S (1 + sum_(1 <= j < nu) (1 + |C_j|/2^F)) for any
    S >= 1/sin(theta) (_sine_bound).  b_0 must be nonzero.
    """
    r = Fraction(b1, b0)
    u, v = trace.numerator, trace.denominator
    c1 = isqrt((r.numerator * r.numerator << 2 * F) // (r.denominator * r.denominator * norm))
    x = isqrt((u * u << 2 * F) // (v * v * norm))
    C, X = (c1 if r > 0 else -c1), (x if u > 0 else -x)
    prev = 1 << F
    for start in range(0, M, _WALK_BLOCK):
        block = []
        append = block.append
        for _ in range(min(M - start, _WALK_BLOCK)):
            append(C)
            prev, C = C, ((X * C) >> F) - prev
        yield block


def _certified_signs(
    b0: Rational, b1: Rational, trace: Rational, norm: int, M: int
) -> list[int] | None:
    """sgn b_0..sgn b_M (M >= 1) for b_(nu+1) = trace b_nu - norm b_(nu-1),
    from the normalised walk, or None when b_0 = 0, the trace is not strict
    or the walk does not certify every term.

    scan calls this on its kept terms b_d, b_(d+n), ... with the n-step
    data (trace, norm) = (V_n, N^n), under which theta becomes n theta;
    trace^2 < 4 norm then holds exactly when sin(n theta) != 0, and the
    error proof of _normalised_walk applies as it stands.  The walk makes
    no check per term.  E_nu grows with nu, so E_nu <= E_M for every
    nu <= M, and the one integer comparison
    min |C_nu| 2^F > 2^F E_M = S (M 2^F + sum_(1 <= j < M) |C_j|)
    certifies every term: |C_nu| > E_M >= |e_nu| gives C_nu the sign of
    c_nu.  It is stricter than |C_nu| > E_nu term by term, which can only
    send a prime to the exact row.  F = 48 + bitlen(M S (S+2)) puts E_M
    below 2^(F-48) while the |c_nu| stay below S + 1, so any term with
    |c_nu| above about 2^-48 is certified.  Each block of the walk leaves
    only its signs, its least |C_nu| and its sum of |C_nu| behind, so the
    memory held is the signs and one block.
    """
    S = _sine_bound(trace, norm)
    if S is None or b0 == 0:
        return None
    F = 48 + (M * S * (S + 2)).bit_length()
    sign = 1 if b0 > 0 else -1
    signs, lows, total = [sign], [], 0
    for block in _normalised_walk(b0, b1, trace, norm, F, M):
        lows.append(min(map(abs, block)))
        total += sum(map(abs, block))
        signs += [sign if C > 0 else -sign for C in block]
        last = block[-1]
        del block  # before the walk builds the next one
    if min(lows) << F <= S * ((M << F) + total - abs(last)):
        return None
    return signs


def _twisted_signs(
    a_t: Rational, trace: Rational, chi1_p: int, p: int, k: int, kept: Sequence[int]
) -> list[int]:
    """The signs (-1, 0 or 1) of b_nu = twisted_sequence(a_t, trace, chi1_p,
    p, k, ...)[nu] at the increasing, evenly spaced indices kept.

    twisted_sequence runs to kept[1] (and validates the inputs), for
    b_d and b_(d+n) with d = kept[0] and n = kept[1] - d; the certified walk
    on the n-step data (V_n, N^n) decides the rest.  Only when it cannot (a
    zero term, an angle n theta too close to 0 or pi, an extremal or
    violated trace) does the exact recurrence run to kept[-1], as the
    integer row B_nu = s v^nu b_nu of _scaled_twisted: s and v are
    positive, so B_nu has the sign of b_nu.
    """
    seed = twisted_sequence(a_t, trace, chi1_p, p, k, max(kept[:2], default=0))
    if len(kept) > 2:
        d, n = kept[0], kept[1] - kept[0]
        norm = p ** (2 * k - 1)
        V_n = _lucas_v(trace, norm, n)
        signs = _certified_signs(seed[d], seed[d + n], V_n, norm**n, len(kept) - 1)
        if signs is not None:
            return signs
        seed, _, _ = _scaled_twisted(a_t, trace, chi1_p, p, k, kept[-1])
    return [(seed[i] > 0) - (seed[i] < 0) for i in kept]


def subsequence(seq: Sequence[Rational], mode: str | ProgressionSpec) -> Sequence[Rational]:
    """Index filter: full, odd (1,3,5,...), even (0,2,4,...), or a progression.

    The result is a slice of seq: a new list for a list, a range for a range.
    """
    if isinstance(mode, ProgressionSpec):
        return characters_mod.progression_extract(seq, mode)
    if mode == "full":
        return seq[:]
    if mode == "odd":
        return seq[1::2]
    if mode == "even":
        return seq[0::2]
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SignChangeCount:
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
    """
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


@dataclass(frozen=True)
class SignChangeReport(SignChangeCount):
    """Per-prime scan result for one subsequence mode: the counts of the
    filtered signs, with the prime, the twist index, the mode label and the
    Deligne status."""

    p: int
    t: int
    mode: str
    deligne: str


class ScanReports(list):
    """A scan's SignChangeReports, sorted by p, and in `skipped` the primes it
    passed over because a(t p^2) lies beyond the form's precision."""

    def __init__(self, reports: list[SignChangeReport], skipped: list[int]):
        super().__init__(reports)
        self.skipped = tuple(skipped)


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
    the mode keeps (certified fixed-point signs, with the exact recurrence
    as the fallback; see the module docstring), and count sign changes.
    mode is "full", "odd", "even", or a pair (q, h) with q prime and
    1 < h < q for the progression p^nu = h (mod q); both, and M >= 0, are
    checked before any prime is tried.  For a pair, primes for which h is
    not a power of p mod q (or p = q) do not satisfy the progression
    hypotheses and are left out, and a prime whose progression starts past index M
    is reported with an empty subsequence.  Admissible primes whose trace
    needs a(t p^2) beyond the form's precision are listed in `skipped`
    instead of ending the scan.  Reports come back sorted by p.
    """
    a_t = coefficient(form, t, 1)
    if a_t == 0:
        raise ZeroBase(f"a({t}) = 0; the twisted sequence is identically zero")
    progression = isinstance(mode, tuple)
    if progression:
        q, h = mode
        if not is_prime(q):
            raise ValueError(f"q = {q} is not prime")
        if not 1 < h < q:
            raise OutOfRange(f"need 1 < h < q, got h = {h}, q = {q}")
    elif mode not in ("full", "odd", "even"):
        raise ValueError(f"unknown mode {mode!r}")
    if M < 0:
        raise ValueError("M must be nonnegative")
    reports: list[SignChangeReport] = []
    skipped: list[int] = []
    for p in primes_up_to(p_max):
        if form.level % p == 0:
            continue
        selector: str | ProgressionSpec = mode
        if progression:
            if p == q:
                continue
            try:
                selector = ProgressionSpec.create(q=q, h=h, p=p)
            except NotInSubgroup:
                continue
        if t * p * p > form.prec:
            skipped.append(p)
            continue
        trace = hecke_mod.extract_trace(form, t, p)
        c1 = chi1(p, t, form.k, form.level)
        kept = subsequence(range(M + 1), selector)
        stats = count_sign_changes(_twisted_signs(a_t, trace, c1, p, form.k, kept))
        label = selector.label if progression else mode
        deligne = hecke_mod.deligne_check(trace, p, form.k)
        reports.append(SignChangeReport(**vars(stats), p=p, t=t, mode=label, deligne=deligne))
    return ScanReports(reports, skipped)
