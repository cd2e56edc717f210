"""Independent brute-force oracles for freezing expected test values.

Everything here is written with the dumbest correct algorithm available,
on purpose: plain O(n^2) convolutions, factor-by-factor product expansion
(no pentagonal-number shortcut, no packed integer tricks), big numbers
packed and read back one limb at a time, Euler's criterion for quadratic
residues, grid sign counting for real roots, coefficients read one index
at a time, and a complex floating-point character sum for progressions.
The library under test must agree with these, never the other way round.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from halfsign.errors import ParseError
from halfsign.forms import coefficient, parse_rational
from halfsign.qseries import TruncatedSeries


def naive_mul(a: list[Fraction], b: list[Fraction], prec: int) -> list[Fraction]:
    """Schoolbook Cauchy product of coefficient lists, truncated at prec."""
    out = [Fraction(0)] * (prec + 1)
    for i, ai in enumerate(a):
        if i > prec or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > prec:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def naive_pack(vals: list[int], width: int) -> int:
    """sum v_i B^i with B = 2^(8 width) > 2|v_i|, one to_bytes per limb:
    each limb written as the nonnegative v_i + B/2, the offsets taken off
    the joined total."""
    half = 1 << (8 * width - 1)
    raw = b"".join((v + half).to_bytes(width, "little") for v in vals)
    offsets = int.from_bytes(half.to_bytes(width, "little") * len(vals), "little")
    return int.from_bytes(raw, "little") - offsets


def naive_unpack(value: int, width: int, n: int) -> list[int]:
    """c_0..c_(n-1) from any value = sum c_k B^k mod B^n, B = 2^(8 width),
    one from_bytes per limb: with B/2 added to each limb, the low n limbs
    of the two's complement are read off independently, each less B/2."""
    half = 1 << (8 * width - 1)
    value += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = value.to_bytes(max(width * n, value.bit_length() // 8 + 1), "little", signed=True)
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)]


def naive_eta_product(d: int, r: int, prec: int) -> list[Fraction]:
    """q-expansion of eta(d*z)^r = q^(d*r/24) * prod_{n>=1} (1 - q^(d*n))^r.

    Expands one (1 - q^(d*n)) factor at a time, r times each.  Requires
    d*r divisible by 24 so the leading exponent is an integer.
    """
    assert d >= 1 and r >= 1 and (d * r) % 24 == 0
    out = [Fraction(0)] * (prec + 1)
    offset = d * r // 24
    if offset <= prec:
        out[offset] = Fraction(1)
    n = 1
    while d * n <= prec:
        factor = [Fraction(0)] * (d * n + 1)
        factor[0] = Fraction(1)
        factor[d * n] = Fraction(-1)
        for _ in range(r):
            out = naive_mul(out, factor, prec)
        n += 1
    return out


def naive_theta(prec: int) -> list[Fraction]:
    """1 + 2*sum_{n>=1} q^(n^2), truncated at prec."""
    out = [Fraction(0)] * (prec + 1)
    out[0] = Fraction(1)
    n = 1
    while n * n <= prec:
        out[n * n] = Fraction(2)
        n += 1
    return out


def naive_twisted_sequence(
    a_t: Fraction, trace: Fraction, chi1_p: int, p: int, k: int, M: int
) -> list[Fraction]:
    """b_0..b_M of b_(nu+1) = trace b_nu - p^(2k-1) b_(nu-1), every term a Fraction,
    from b_0 = a_t and b_1 = (trace - chi1_p p^(k-1)) a_t."""
    a_t, trace = Fraction(a_t), Fraction(trace)
    seq = [a_t, (trace - chi1_p * Fraction(p) ** (k - 1)) * a_t]
    while len(seq) <= M:
        seq.append(trace * seq[-1] - Fraction(p) ** (2 * k - 1) * seq[-2])
    return seq[: M + 1]


def naive_scaled_twisted(a_t, trace, chi1_p: int, p: int, k: int, M: int):
    """(B, s, v) with b_nu = B_nu / (s v^nu), the integer recurrence written out:
    a_t = r/s and trace = u/v, B_0 = r, B_1 = (u - chi1_p p^(k-1) v) r and
    B_(nu+1) = u B_nu - p^(2k-1) v^2 B_(nu-1)."""
    a_t, trace = Fraction(a_t), Fraction(trace)
    r, s = a_t.numerator, a_t.denominator
    u, v = trace.numerator, trace.denominator
    step = p ** (2 * k - 1) * v * v
    row = [r]
    if M >= 1:
        row.append((u - chi1_p * p ** (k - 1) * v) * r)
    for _ in range(1, M):
        row.append(u * row[-1] - step * row[-2])
    return row, s, v


def naive_lucas_sequence(trace, norm, count: int) -> list:
    """u_0..u_count with u_0 = 0, u_1 = 1, u_{j+1} = trace u_j - norm u_{j-1}.

    u_j = (alpha^j - beta^j)/(alpha - beta) for the roots alpha, beta of
    X^2 - trace X + norm.
    """
    values = [0, 1]
    while len(values) <= count:
        values.append(trace * values[-1] - norm * values[-2])
    return values[: count + 1]


def naive_expand(num: list[Fraction], den: list[Fraction], M: int) -> list[Fraction]:
    """c_0..c_M of num/den as a power series, every term a Fraction, from
    den_0 c_m = num_m - sum_(j >= 1) den_j c_(m-j); den_0 must be nonzero."""
    num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
    out: list[Fraction] = []
    for m in range(M + 1):
        c = num[m] if m < len(num) else Fraction(0)
        for j in range(1, min(m, len(den) - 1) + 1):
            c -= den[j] * out[m - j]
        out.append(c / den[0])
    return out


def naive_closed_form_checks(seq: list, b1, trace, chi1_p: int, p: int, k: int):
    """(closed_ok, split_ok, parity_ok) of the closed-form identity suite,
    with every expansion run term by term in Fractions (naive_expand) and
    compared with its target as a list, and S0 + S1 = H cross-multiplied
    over the rational polynomials as they stand."""
    from halfsign.genfun import h_n_closed, s_split_closed

    h1 = h_n_closed(seq[0], trace, chi1_p, p, k)
    s0, s1 = s_split_closed(seq[0], b1, trace, chi1_p, p, k)
    M = len(seq) - 1

    def expands_to(gf, target: list) -> bool:
        return naive_expand(list(gf.num.coeffs), list(gf.den.coeffs), M) == target

    even = [b if m % 2 == 0 else 0 for m, b in enumerate(seq)]
    odd = [b if m % 2 == 1 else 0 for m, b in enumerate(seq)]
    parity_ok = expands_to(s0, even) and expands_to(s1, odd)
    split_ok = (s0.num * s1.den + s1.num * s0.den) * h1.den == h1.num * s0.den * s1.den
    return expands_to(h1, list(seq)), split_ok, parity_ok


def naive_progression(seq: list, q: int, h: int, p: int) -> list:
    """The entries seq[m] whose index satisfies p^m = h (mod q), by testing
    every index against the definition."""
    return [x for m, x in enumerate(seq) if pow(p, m, q) == h]


def naive_sign_changes(seq: list) -> list[tuple[int, int]]:
    """The zero-transparent sign changes of seq by the definition: every pair
    i < j with seq[i] seq[j] < 0 and only zeros strictly between, by j."""
    return [
        (i, j)
        for j in range(len(seq))
        for i in range(j)
        if seq[i] * seq[j] < 0 and all(x == 0 for x in seq[i + 1 : j])
    ]


def naive_is_multiplicative(modulus: int, table: dict[int, int]) -> bool:
    """Whether table[a b mod N] = table[a] table[b] for every pair of units."""
    return all(
        table[a * b % modulus] == table[a] * table[b] for a in table for b in table
    )


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    v = pow(a % p, (p - 1) // 2, p)
    if v == 0:
        return 0
    return 1 if v == 1 else -1


def kronecker_bottom_two(a: int) -> int:
    """(a|2) by the defining table: 0 for even a, +1 for a = +-1 (mod 8), -1 otherwise."""
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def grid_sign_changes(coeffs: list[Fraction], lo: Fraction, hi: Fraction, steps: int) -> int:
    """Sign changes of a polynomial sampled on a rational grid.

    A lower bound for the number of distinct real roots in (lo, hi):
    each strict sign flip between consecutive nonzero samples pins a root.
    """

    def ev(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    count = 0
    last = 0
    for i in range(steps + 1):
        x = lo + (hi - lo) * Fraction(i, steps)
        v = ev(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if last != 0 and s != last:
                count += 1
            last = s
    return count


def character_sum_extract(seq: list, spec) -> list[float]:
    """Floating-point cross-check of progression_extract: the orthogonality
    filter via the mod-q characters, prefactor 1/n.

    Discrete logs are taken to the smallest primitive root g mod q, found
    by trying g = 2, 3, ... until its powers cover every unit.  The n
    distinct restrictions to the subgroup <p> of the mod-q characters are
    enumerated by solving j * log(p) = c * (q-1)/n (mod q-1) for
    c = 0..n-1; averaging epsilon_j(p^m) conj(epsilon_j(h)) over them
    weights index m by approximately [m = d (mod n)].  Indices whose weight
    is near 1 are kept, as floats.
    """
    order = spec.q - 1
    for g in range(2, spec.q):
        log, x = {}, 1
        for e in range(order):
            log[x] = e
            x = x * g % spec.q
        if len(log) == order:
            break
    n = spec.n
    log_p = log[spec.p % spec.q]
    log_h = log[spec.h % spec.q]
    step = order // n  # gcd(log_p, order), since p has order n
    lp = log_p // step
    lp_inv = pow(lp, -1, n)
    js = [(c * lp_inv) % n for c in range(n)]
    out: list[float] = []
    for m in range(len(seq)):
        weight = 0j
        for j in js:
            e = (j * (m * log_p - log_h)) % order
            weight += cmath.exp(2j * cmath.pi * e / order)
        weight /= n
        if abs(weight) > 0.5:
            out.append(float(seq[m]) * weight.real)
    return out


def naive_twisted_row(form, t: int, p: int) -> list:
    """[chi(p)^m a(t p^(2m))] for m = 0, 1, ... while t p^(2m) <= prec,
    each term read on its own through forms.coefficient."""
    row = []
    while t * p ** (2 * len(row)) <= form.prec:
        m = len(row)
        row.append(form.chi(p) ** m * coefficient(form, t, p**m))
    return row


def naive_lift(form, t: int, n_max: int) -> dict:
    """{n: A_t(n)} for n = 1..n_max, the divisor sum
    sum_(d | n) chi(d) chi1(d) d^(k-1) a(t (n/d)^2) term by term: chi(d) is
    read off the character table (1 on the units for the trivial one), and
    chi1(d) = ((-1)^k N^2 t | d) is sympy's Kronecker symbol."""
    from sympy.functions.combinatorial.numbers import kronecker_symbol

    k, N, table = form.k, form.level, form.chi.table

    def chi(d: int) -> int:
        if math.gcd(d, N) != 1:
            return 0
        return 1 if table is None else table[d % N]

    return {
        n: sum(
            chi(d) * int(kronecker_symbol((-1) ** k * N * N * t, d)) * d ** (k - 1)
            * coefficient(form, t, n // d)
            for d in range(1, n + 1)
            if n % d == 0
        )
        for n in range(1, n_max + 1)
    }


def naive_eigen_consistency(form, p: int, trace, t_set: list[int], m_max: int):
    """(residuals, skipped) of the eigen recurrence by the per-(t, m) loop:
    every b_m = chi(p)^m a(t p^(2m)) is read on its own, every (t, m) tests
    t p^(2m+2) <= prec, and chi1(p) is the Legendre symbol
    ((-1)^k N^2 t | p) by Euler's criterion (p is odd, since 4 | N)."""
    k, N = form.k, form.level
    norm = p ** (2 * k - 1)
    residuals: dict = {}
    skipped: list = []

    def b(t: int, m: int):
        return form.chi(p) ** m * coefficient(form, t, p**m)

    for t in t_set:
        if t > form.prec:
            skipped.append((t, 0))
            continue
        a_t = coefficient(form, t, 1)
        for m in range(m_max + 1):
            if m == 0 and a_t == 0:
                continue
            if t * p ** (2 * m + 2) > form.prec:
                skipped.append((t, m))
                break
            if m == 0:
                c1 = legendre_euler((-1) ** k * N * N * t, p)
                residual = trace * a_t - b(t, 1) - c1 * p ** (k - 1) * a_t
            else:
                residual = trace * b(t, m) - b(t, m + 1) - norm * b(t, m - 1)
            residuals[(t, m)] = residual
    return residuals, tuple(skipped)


def naive_read_coefficients(entries: list) -> TruncatedSeries:
    """The series of a coefficient file with these "coeffs" entries and prec
    len(entries) - 1, read one entry at a time by parse_rational; a prec
    below 1 is a ParseError before any entry is read."""
    if len(entries) < 2:
        raise ParseError(f"prec must be at least 1, got {len(entries) - 1}")
    return TruncatedSeries(len(entries) - 1, tuple(parse_rational(c) for c in entries))
