import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfsign.arith import lucas_row, primes_up_to
from halfsign.cli import random_instance
from halfsign.errors import NotExpandable, ZeroPolynomial
from halfsign.genfun import (
    Polynomial,
    RationalGF,
    _expands_to,
    _scaled_closed_form_checks,
    closed_form_checks,
    expand,
    h_n_closed,
    poly_gcd,
    real_root_count,
    remark_polynomial,
    s_split_closed,
    sturm_chain,
)
from halfsign.hecke import satake_data
from halfsign.signscan import _scaled_twisted, twisted_sequence
from naive_oracle import (
    grid_sign_changes,
    naive_closed_form_checks,
    naive_expand,
    naive_lucas_sequence,
    naive_scaled_twisted,
)


def P(*coeffs):
    return Polynomial.of(*coeffs)


def test_polynomial_normalization_and_division():
    assert P(1, 2, 0, 0).degree == 1
    assert P().is_zero
    q, r = P(-2, 0, 1).divmod(P(-1, 1))  # (X^2-2) / (X-1)
    assert q == P(1, 1) and r == P(-1)
    assert q * P(-1, 1) + r == P(-2, 0, 1)


def test_poly_gcd_basic():
    a = P(-1, 0, 1)  # (X-1)(X+1)
    b = P(1, 2, 1)  # (X+1)^2
    assert poly_gcd(a, b) == P(1, 1)
    assert poly_gcd(a, P(1)) == P(1)
    assert poly_gcd(P(), P()).is_zero
    # content-normalized: result is primitive regardless of input scaling
    assert poly_gcd(a.scale(Fraction(3, 7)), b.scale(50)) == P(1, 1)


def test_rational_gf_reduction_and_expand():
    gf = RationalGF.of([1, -2], [1, -6, 8])  # (1-2X)/((1-2X)(1-4X))
    assert gf.num == P(1)
    assert gf.den == P(1, -4)
    assert expand(gf, 3) == [1, 4, 16, 64]
    assert expand(RationalGF.of([1], [1, -1]), 3) == [1, 1, 1, 1]


def test_rational_gf_not_expandable():
    with pytest.raises(NotExpandable):
        RationalGF.of([1], [0, 1])  # den = X


def test_h_n_closed_values():
    gf = h_n_closed(5, 0, 0, 2, 2)
    assert expand(gf, 0) == [5]  # X = 0 evaluation gives the lead
    gf2 = h_n_closed(1, 0, 0, 2, 2)
    assert gf2.num == P(1) and gf2.den == P(1, 0, 8)


def test_h_n_closed_matches_recurrence_random():
    rng = random.Random(2024)
    for _ in range(100):
        inst = random_instance(rng)
        gf = h_n_closed(inst["a_t"], inst["trace"], inst["chi1_p"], inst["p"], inst["k"])
        seq = twisted_sequence(
            inst["a_t"], inst["trace"], inst["chi1_p"], inst["p"], inst["k"], 100
        )
        assert expand(gf, 100) == seq


def test_expand_recurrence_invariant():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng)
        p, k, trace, c1 = inst["p"], inst["k"], inst["trace"], inst["chi1_p"]
        gf = h_n_closed(inst["a_t"], trace, c1, p, k)
        c = expand(gf, 40)
        norm = p ** (2 * k - 1)
        assert trace * c[0] == c[1] + c1 * p ** (k - 1) * c[0]
        for m in range(1, 40):
            assert trace * c[m] == c[m + 1] + norm * c[m - 1]


def test_s_split_values_and_identity():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng)
        p, k, trace, c1, a_t = (
            inst["p"],
            inst["k"],
            inst["trace"],
            inst["chi1_p"],
            inst["a_t"],
        )
        b1 = (trace - c1 * p ** (k - 1)) * a_t
        s0, s1 = s_split_closed(a_t, b1, trace, c1, p, k)
        assert expand(s0, 0) == [a_t]
        assert expand(s1, 1)[0] == 0
        h1 = h_n_closed(a_t, trace, c1, p, k)
        assert _cross_multiplied_sum(s0, s1) == h1
        seq = twisted_sequence(a_t, trace, c1, p, k, 50)
        s0x, s1x = expand(s0, 50), expand(s1, 50)
        for m in range(51):
            assert s0x[m] == (seq[m] if m % 2 == 0 else 0)
            assert s1x[m] == (seq[m] if m % 2 == 1 else 0)


def test_split_denominator_is_product_of_h1_dens():
    rng = random.Random(8)
    for _ in range(30):
        inst = random_instance(rng)
        p, k, trace = inst["p"], inst["k"], inst["trace"]
        norm = Fraction(p ** (2 * k - 1))
        product = P(1, -trace, norm) * P(1, trace, norm)
        # the degree-4 polynomial the split formulas place under both parts,
        # before any gcd reduction the constructor may perform
        b1 = (trace - inst["chi1_p"] * p ** (k - 1)) * inst["a_t"]
        s0, s1 = s_split_closed(inst["a_t"], b1, trace, inst["chi1_p"], p, k)
        for part in (s0, s1):
            quotient, remainder = product.divmod(part.den)
            assert remainder.is_zero  # stored den divides the unreduced one
        h1 = h_n_closed(inst["a_t"], trace, inst["chi1_p"], p, k)
        d0 = h1.den.coeffs[0]  # the integer row, a positive multiple of the formula's
        assert d0 > 0 and h1.den.scale(Fraction(1, d0)) == P(1, -trace, norm)


# (a_t, trace, chi1_p, p, k, delta): one integral and one rational twisted
# sequence, with the amount a perturbed term is moved by
_TWISTED_CASES = [(3, 5, 1, 3, 3, 1), (Fraction(-7, 4), Fraction(11, 6), -1, 5, 2, Fraction(1, 3))]
_TWISTED_IDS = ["integral", "rational"]


def _twisted(a_t, trace, chi1_p, p, k):
    seq = twisted_sequence(a_t, trace, chi1_p, p, k, 12)
    return seq, (trace - chi1_p * p ** (k - 1)) * a_t


@pytest.mark.parametrize("case", _TWISTED_CASES, ids=_TWISTED_IDS)
def test_closed_form_checks_accept_a_twisted_sequence(case):
    *params, _ = case
    seq, b1 = _twisted(*params)
    assert closed_form_checks(seq, b1, *params[1:]) == (True, True, True)


@pytest.mark.parametrize("index", [1, 2, 12])
@pytest.mark.parametrize("case", _TWISTED_CASES, ids=_TWISTED_IDS)
def test_closed_form_checks_reject_a_perturbed_term(case, index):
    *params, delta = case
    seq, b1 = _twisted(*params)
    seq[index] += delta
    assert closed_form_checks(seq, b1, *params[1:]) == (False, True, False)


@pytest.mark.parametrize("case", _TWISTED_CASES, ids=_TWISTED_IDS)
def test_closed_form_checks_reject_a_wrong_b1(case):
    *params, delta = case
    seq, b1 = _twisted(*params)
    assert closed_form_checks(seq, b1 + delta, *params[1:]) == (True, False, False)


def test_closed_form_checks_reject_an_empty_sequence():
    with pytest.raises(ValueError, match="seq must hold at least one term"):
        closed_form_checks([], 1, 2, 1, 3, 2)


@st.composite
def twisted_params(draw):
    """(a_t, trace, chi1_p, p, k, M) drawn as cli.random_instance draws them
    (Deligne-bounded trace), integral or rational, with M from 0 to 120."""
    k = draw(st.integers(2, 8))
    p = draw(st.sampled_from(primes_up_to(50)))
    chi1_p = draw(st.sampled_from((-1, 0, 1)))
    integral = draw(st.booleans())
    den = 1 if integral else draw(st.integers(1, 16))
    bound = math.isqrt(4 * p ** (2 * k - 1) * den * den)
    trace = Fraction(draw(st.integers(-bound, bound)), den)
    a_t = Fraction(draw(st.integers(-99, 99)), 1 if integral else draw(st.integers(1, 20)))
    return a_t, trace, chi1_p, p, k, draw(st.integers(0, 120))


@st.composite
def closed_form_cases(draw):
    """(seq, b1, trace, chi1_p, p, k) from twisted_params, left alone or with
    one term or b1 moved."""
    a_t, trace, chi1_p, p, k, M = draw(twisted_params())
    seq = twisted_sequence(a_t, trace, chi1_p, p, k, M)
    b1 = (trace - chi1_p * p ** (k - 1)) * a_t
    change = draw(st.sampled_from(("none", "term", "b1")))
    if change == "term":
        seq[draw(st.integers(0, M))] += draw(_any_coeff.filter(bool))
    elif change == "b1":
        b1 += draw(_any_coeff.filter(bool))
    return seq, b1, trace, chi1_p, p, k


@settings(deadline=None)
@given(closed_form_cases())
@example(([3], -12, 5, 1, 3, 3))  # M = 0, integral
@example(([Fraction(1, 2), Fraction(13, 6)], Fraction(13, 6), Fraction(7, 3), -1, 2, 2))
@example(([0, 0, 0, 1], 0, 4, 0, 5, 2))  # a_t = 0, last term moved
def test_closed_form_checks_match_the_fraction_oracle(case):
    assert closed_form_checks(*case) == naive_closed_form_checks(*case)


@settings(deadline=None)
@given(twisted_params(), st.sampled_from(("none", "term", "b1")), st.data())
@example((Fraction(3), Fraction(5), 1, 3, 3, 0), "none", None)  # M = 0, s = v = 1
@example((Fraction(-7, 4), Fraction(11, 6), -1, 5, 2, 4), "none", None)
def test_scaled_suite_on_the_recurrence_row_matches_the_fraction_oracle(params, change, data):
    # the suite on (B, s, v) against the oracle on b_m = B_m / (s v^m)
    a_t, trace, chi1_p, p, k, M = params
    row, s, v = _scaled_twisted(a_t, trace, chi1_p, p, k, M)
    b1 = (trace - chi1_p * p ** (k - 1)) * a_t
    if change == "term":
        row[data.draw(st.integers(0, M))] += data.draw(st.integers(-50, 50).filter(bool))
    elif change == "b1":
        b1 += data.draw(_any_coeff.filter(bool))
    seq = [Fraction(b, s * v**m) for m, b in enumerate(row)]
    got = _scaled_closed_form_checks(row, s, v, b1, trace, chi1_p, p, k)
    assert got == naive_closed_form_checks(seq, b1, trace, chi1_p, p, k)
    if change == "none":
        assert got == (True, True, True)


def test_expand_errors():
    gf = RationalGF.of([1], [1, -1])
    with pytest.raises(ValueError):
        expand(gf, -1)


def _canonical(values):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in values
    )


_int_coeff = st.integers(-50, 50)
_any_coeff = st.one_of(_int_coeff, st.fractions(min_value=-50, max_value=50, max_denominator=12))


@st.composite
def expandable(draw):
    """(num, den) of degree 0 to 5 with den(0) != 0; half the draws are
    integral with den(0) = +-1, so that no denominator is left to clear."""
    integral = draw(st.booleans())
    coeff = _int_coeff if integral else _any_coeff
    num = draw(st.lists(coeff, max_size=6))
    den0 = draw(st.sampled_from((1, -1)) if integral else coeff.filter(bool))
    return num, [den0, *draw(st.lists(coeff, max_size=5))]


@given(expandable(), st.integers(0, 60))
@example(([1], [Fraction(1, 3), 0, 0, 0, 0, Fraction(1, 2)]), 0)  # M below deg den
@example(([Fraction(1, 2), 3], [1, Fraction(-2, 3), Fraction(5, 7)]), 1)
@example(([2, 4], [-1, 3, 0, 7]), 2)
@example(([Fraction(1, 2), Fraction(1, 2)], [1, -1]), 3)  # c_1 = 1/2 + 1/2 is an int
def test_expand_matches_fraction_oracle_with_canonical_types(gf, M):
    num, den = gf
    terms = expand(RationalGF.of(num, den), M)
    assert terms == naive_expand(num, den, M)
    assert _canonical(terms)


@st.composite
def expansion_targets(draw):
    """(num, den, target): target is the first 20 to 120 terms of the
    expansion of num/den, den of degree 0 to 4, or they with one term changed
    in the head m < max(len num, len den) or in the recurrence tail past it;
    its terms are canonical ints and Fractions, or all Fractions."""
    num, den = draw(expandable())
    den = den[:5]
    gf = RationalGF.of(num, den)
    target = expand(gf, draw(st.integers(19, 119)))
    head = max(len(gf.num.coeffs), len(gf.den.coeffs))
    where = draw(st.sampled_from(((), (0, head - 1), (head, len(target) - 1))))
    if where:
        target[draw(st.integers(*where))] += draw(_any_coeff.filter(bool))
    if draw(st.booleans()):
        target = [Fraction(t) for t in target]
    return num, den, target


@given(expansion_targets(), st.integers(1, 4))
@example(([1, 2], [1, -1], [1, 3, 3]), 1)  # L = 1
@example(([1, 2], [1, -1], [1, 3, 4]), 1)
@example(([1, 2], [1, -1], [1, 3, 3]), 3)  # L = 1 off the integral branch
@example(([Fraction(1, 2)], [1, Fraction(-1, 3)], [Fraction(1, 2), Fraction(1, 6), Fraction(1, 18)]), 1)
@example(([Fraction(1, 2)], [1, Fraction(-1, 3)], [Fraction(1, 2), Fraction(1, 6), Fraction(1, 19)]), 1)
@example(([Fraction(1, 2), Fraction(1, 2)], [1, -1], [Fraction(1, 2), 1, 1]), 1)  # int terms, L = 2
@example(([Fraction(1, 2), Fraction(1, 2)], [1, -1], [Fraction(1, 2), 1, 2]), 1)
@example(([1], [1, 0, 0, 1], [1, 0]), 2)  # the row ends inside the head
@example(([1], [1, 0, 0, 1], [1, 1]), 2)
def test_expands_to_agrees_with_comparing_the_expansion(case, v):
    # target read as the row B_m = s v^m target_m, with s the lcm of its denominators
    num, den, target = case
    gf = RationalGF.of(num, den)
    s = math.lcm(*(t.denominator for t in target))
    row = [t.numerator * (s // t.denominator) * v**m for m, t in enumerate(target)]
    expected = expand(gf, len(target) - 1) == list(target)
    assert _expands_to(gf.num.coeffs, gf.den.coeffs, row, s, v) == expected


def _cross_multiplied_sum(a, b):
    return RationalGF(a.num * b.den + b.num * a.den, a.den * b.den)


_rational = st.one_of(st.integers(-10**4, 10**4), st.fractions(max_denominator=30))


@st.composite
def unreduced(draw):
    """(num, den) from expandable(), both times one common factor of degree
    0 to 3 with a nonzero constant term, for the constructor to divide out."""
    num, den = draw(expandable())
    common = P(draw(_any_coeff.filter(bool)), *draw(st.lists(_any_coeff, max_size=3)))
    return list((P(*num) * common).coeffs), list((P(*den) * common).coeffs)


def _coprime(a, b):
    """Whether a and b share no factor of positive degree, by Euclid over the rationals."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.degree == 0


@settings(deadline=None)
@given(unreduced(), st.integers(0, 30))
@example(([1, -2], [1, -6, 8]), 3)  # the common factor 1 - 2X
@example(([Fraction(1, 2)], [Fraction(-1, 3), 1]), 2)  # den(0) < 0 and denominators
@example(([], [Fraction(-1, 2), 3]), 2)  # num = 0
def test_rational_gf_holds_its_reduced_integer_rows(case, M):
    num, den = case
    gf = RationalGF.of(num, den)
    rows = gf.num.coeffs + gf.den.coeffs
    assert all(type(c) is int for c in rows)
    assert math.gcd(*rows) == 1 and gf.den.coeffs[0] > 0
    assert _coprime(gf.num, gf.den)
    assert expand(gf, M) == naive_expand(num, den, M)


def _has_parity(poly, parity):
    return all(c == 0 for c in poly.coeffs[1 - parity :: 2])


# tau = +-p^(k-1) (1 + p) makes 1 - tau X + p^(2k-1) X^2 split as
# (1 -+ p^(k-1) X)(1 -+ p^k X); for chi1_p = sgn tau, S0 and S1 share the
# factor 1 - p^(2k-2) X^2 with their denominator, and RationalGF cancels it
_REDUCING = [(sign * p ** (k - 1) * (1 + p), chi1_p, p, k)
             for sign in (1, -1) for chi1_p in (-1, 0, 1) for p, k in ((2, 2), (3, 3))]


@given(_rational, _rational, _rational, st.sampled_from((-1, 0, 1)),
       st.sampled_from(primes_up_to(30)), st.integers(2, 7))
@example(Fraction(-7, 4), Fraction(-63, 4), 12, 1, 3, 2)  # S0 and S1 reduce
@example(5, -18, -12, -1, 3, 2)  # S0 reduces, S1 does not
@example(1, 0, -6, 0, 2, 2)  # chi1_p = 0: nothing cancels
def test_split_halves_are_even_and_odd_after_reduction(a_t, b1, trace, chi1_p, p, k):
    # S0 is even and S1 odd, so the gcd RationalGF cancels is even: both keep
    # the shape that the half-row checks read
    s0, s1 = s_split_closed(a_t, b1, trace, chi1_p, p, k)
    assert _has_parity(s0.num, 0) and _has_parity(s0.den, 0)
    assert _has_parity(s1.num, 1) and _has_parity(s1.den, 0)


@pytest.mark.parametrize("change", ["none", "head", "tail", "b1"])
@pytest.mark.parametrize("trace, chi1_p, p, k", _REDUCING)
def test_scaled_suite_matches_the_oracle_where_the_split_reduces(trace, chi1_p, p, k, change):
    a_t = Fraction(-7, 4)
    row, s, v = _scaled_twisted(a_t, trace, chi1_p, p, k, 40)
    b1 = (trace - chi1_p * p ** (k - 1)) * a_t
    s0, s1 = s_split_closed(a_t, b1, trace, chi1_p, p, k)
    assert (s0.den.degree, s1.den.degree) == ((2, 2) if chi1_p * trace > 0 else (4, 4))
    if change == "b1":
        b1 += 1
    elif change != "none":
        row[1 if change == "head" else 33] += 1
    seq = [Fraction(b, s * v**m) for m, b in enumerate(row)]
    got = _scaled_closed_form_checks(row, s, v, b1, trace, chi1_p, p, k)
    assert got == naive_closed_form_checks(seq, b1, trace, chi1_p, p, k)
    assert got == {"none": (True,) * 3, "b1": (True, False, False)}.get(change, (False, True, False))


def test_lucas_sequence_closed_form():
    # alpha = 4, beta = 2: u_j = (4^j - 2^j)/2
    u = lucas_row(0, 1, 6, 1, 8, 8)
    assert len(u) == 9
    for j, val in enumerate(u):
        assert val == Fraction(4**j - 2**j, 2)


# u = trace numerator, integral (v = 1) or over v <= 16, of either sign
_lucas_traces = st.tuples(st.integers(-10**6, 10**6), st.sampled_from((1, 1, 2, 3, 7, 16)))


@settings(deadline=None)
@given(_lucas_traces, st.integers(-10**6, 10**6), st.integers(0, 60))
@example((3, 2), 5, 2)  # norm v^2 = 20, not norm v = 10
@example((-7, 16), 1, 3)
def test_lucas_row_equals_the_lucas_oracle(trace, norm, M):
    # start pair (0, v): v^j u_j for u_0 = 0, u_1 = 1
    u, v = trace
    row = lucas_row(0, v, u, v, norm, M)
    assert row == [c * v**j for j, c in enumerate(naive_lucas_sequence(Fraction(u, v), norm, M))]


@settings(deadline=None)
@given(st.one_of(st.integers(-99, 99), st.fractions(-99, 99, max_denominator=20)),
       _lucas_traces, st.sampled_from((-1, 0, 1)), st.sampled_from((2, 3, 5, 47)),
       st.integers(2, 7), st.integers(0, 60))
@example(Fraction(3, 4), (5, 2), 1, 3, 2, 2)
def test_lucas_row_equals_the_twisted_oracle(a_t, trace, chi1_p, p, k, M):
    # start pair (b_0, b_1), scaled: (r, (u - chi1_p p^(k-1) v) r) for a_t = r/s
    trace = Fraction(*trace)
    expected = naive_scaled_twisted(a_t, trace, chi1_p, p, k, M)
    r, (u, v) = Fraction(a_t).numerator, (trace.numerator, trace.denominator)
    row = lucas_row(r, (u - chi1_p * p ** (k - 1) * v) * r, u, v, p ** (2 * k - 1), M)
    assert row == expected[0]
    assert _scaled_twisted(a_t, trace, chi1_p, p, k, M) == expected


def test_remark_polynomial_m1_vanishes():
    local = satake_data(6, 2, 2)
    assert remark_polynomial(local.trace, local.norm, 1).is_zero


def test_remark_polynomial_m2_symbolic():
    local = satake_data(6, 2, 2)
    q = remark_polynomial(local.trace, local.norm, 2)
    assert q == P(1, -local.trace, local.norm)


def test_remark_polynomial_constant_term_one():
    rng = random.Random(17)
    for _ in range(50):
        inst = random_instance(rng)
        local = satake_data(inst["trace"], inst["p"], inst["k"])
        for m_p in range(2, 6):
            assert remark_polynomial(local.trace, local.norm, m_p)(0) == 1


def remark_from_the_oracle(trace, norm, m_p):
    """norm u_(m_p - 1) X^m_p - u_(m_p) X^(m_p - 1) + 1 from naive_lucas_sequence."""
    u = naive_lucas_sequence(trace, norm, m_p)
    coeffs = [Fraction(0)] * (m_p + 1)
    coeffs[0] += 1
    coeffs[m_p - 1] -= u[m_p]
    coeffs[m_p] += norm * u[m_p - 1]
    return Polynomial(coeffs)


def test_remark_polynomial_rationalization_identity():
    # the literal root-built polynomial equals (alpha - beta) * Q for
    # integer Satake pairs, including the degenerate m_p = 1 collapse
    for alpha, beta in ((4, 2), (5, 3), (7, -2), (9, 4)):
        trace, norm = Fraction(alpha + beta), Fraction(alpha * beta)
        for m_p in range(1, 7):
            q = remark_from_the_oracle(trace, norm, m_p)
            literal = [Fraction(0)] * (m_p + 1)
            literal[0] += alpha - beta
            literal[m_p - 1] += beta**m_p - alpha**m_p
            literal[m_p] += beta * alpha**m_p - alpha * beta**m_p
            assert Polynomial(literal) == q.scale(alpha - beta)
            if (alpha, beta) == (4, 2):
                # genuine Satake data: trace 6, norm 8 = 2^(2*2-1)
                assert remark_polynomial(6, 8, m_p) == q


@settings(deadline=None)
@given(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=16)),
       st.sampled_from((2, 3, 5, 97)), st.integers(2, 8), st.integers(1, 8))
@example(Fraction(7, 2), 2, 2, 2)
def test_remark_polynomial_equals_the_oracle_formula(trace, p, k, m_p):
    norm = p ** (2 * k - 1)
    assert remark_polynomial(trace, norm, m_p) == remark_from_the_oracle(trace, norm, m_p)


def test_real_root_count_examples():
    assert real_root_count(P(1, 0, 1)) == 0  # X^2 + 1
    assert real_root_count(P(-2, 0, 1)) == 2  # X^2 - 2
    assert real_root_count(P(0, 0, 0, 1)) == 1  # X^3, distinct root 0
    assert real_root_count(P(5)) == 0
    with pytest.raises(ZeroPolynomial):
        real_root_count(P())


def test_real_root_count_complex_pair_quadratic():
    rng = random.Random(23)
    seen = 0
    while seen < 100:
        inst = random_instance(rng)
        local = satake_data(inst["trace"], inst["p"], inst["k"])
        if local.root_kind != "complex_pair":
            continue
        seen += 1
        assert real_root_count(remark_polynomial(local.trace, local.norm, 2)) == 0


def test_real_root_count_vs_grid_lower_bound():
    rng = random.Random(44)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(3)] + [
            Fraction(rng.choice([c for c in range(-9, 10) if c]))
        ]
        poly = Polynomial(coeffs)
        grid = grid_sign_changes(list(poly.coeffs), Fraction(-20), Fraction(20), 400)
        assert grid <= real_root_count(poly)


_coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_nonzero_coeff = _coeff.filter(lambda c: c != 0)
_factor = st.one_of(
    st.builds(P, _coeff, _nonzero_coeff),  # linear
    st.builds(P, _coeff, _coeff, _nonzero_coeff),  # quadratic, real or complex roots
)


@settings(deadline=None)  # sympy's first call is slow
@given(_nonzero_coeff, st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3))
def test_real_root_count_matches_sympy_distinct_real_roots(scale, factors):
    sympy = pytest.importorskip("sympy")
    poly = P(scale)
    for factor, multiplicity in factors:
        for _ in range(multiplicity):
            poly = poly * factor
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    assert real_root_count(poly) == len(set(sympy.real_roots(sympy.Poly(coeffs, x))))


_int_poly = st.lists(st.integers(-9, 9), max_size=5).map(Polynomial)


@settings(deadline=None)  # sympy's first call is slow
@given(_int_poly, _int_poly, _int_poly)
@example(P(-2, 0, 1), P(3, 1), P(1, 1))  # no common root: the gcd is 1
@example(P(0, 0, 1), P(), P(-1, -1))  # gcd(X^2, 0), scaled by -(X + 1)
def test_remainder_sequence_gives_sympy_gcd_and_integral_sturm_remainders(f, g, h):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, b = f * h, g * h

    def to_sympy(poly):
        return sympy.Poly(list(reversed(poly.coeffs)) or [0], x)

    gcd = to_sympy(a).gcd(to_sympy(b))
    if not gcd.is_zero:
        gcd = gcd.primitive()[1]
        gcd = -gcd if gcd.LC() < 0 else gcd
    assert poly_gcd(a, b) == P(*(int(c) for c in reversed(gcd.all_coeffs())))
    if a.is_zero:
        return
    chain = sturm_chain(a)
    for i in range(2, len(chain)):
        assert all(type(c) is int for c in chain[i].coeffs)
        assert math.gcd(*chain[i].coeffs) == 1
        # a positive multiple of -rem(chain[i-2], chain[i-1])
        negated = -chain[i - 2].divmod(chain[i - 1])[1]
        ratio = Fraction(negated.leading) / chain[i].leading
        assert ratio > 0 and chain[i].scale(ratio) == negated
    if len(chain) > 1:
        assert chain[-2].divmod(chain[-1])[1].is_zero
