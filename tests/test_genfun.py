import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfsign.arith import primes_up_to
from halfsign.cli import random_instance
from halfsign.errors import NotExpandable, ZeroPolynomial
from halfsign.genfun import (
    Polynomial,
    RationalGF,
    _expands_to,
    closed_form_checks,
    expand,
    h_n_closed,
    lucas_sequence,
    poly_gcd,
    real_root_count,
    remark_polynomial,
    s_split_closed,
)
from halfsign.hecke import satake_data
from halfsign.signscan import twisted_sequence
from naive_oracle import grid_sign_changes, naive_expand


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
        assert (s0 + s1).cross_equal(h1)
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
        assert h1.den == P(1, -trace, norm)


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
    """(num, den, target): target is the expansion of num/den, or it with one
    term changed; its terms are canonical ints and Fractions, or all Fractions."""
    num, den = draw(expandable())
    target = expand(RationalGF.of(num, den), draw(st.integers(0, 60)))
    if draw(st.booleans()):
        target[draw(st.integers(0, len(target) - 1))] += draw(_any_coeff.filter(bool))
    if draw(st.booleans()):
        target = [Fraction(t) for t in target]
    return num, den, target


@given(expansion_targets())
@example(([1, 2], [1, -1], [1, 3, 3]))  # L = 1
@example(([1, 2], [1, -1], [1, 3, 4]))
@example(([Fraction(1, 2)], [1, Fraction(-1, 3)], [Fraction(1, 2), Fraction(1, 6), Fraction(1, 18)]))
@example(([Fraction(1, 2)], [1, Fraction(-1, 3)], [Fraction(1, 2), Fraction(1, 6), Fraction(1, 19)]))
@example(([Fraction(1, 2), Fraction(1, 2)], [1, -1], [Fraction(1, 2), 1, 1]))  # int terms, L = 2
@example(([Fraction(1, 2), Fraction(1, 2)], [1, -1], [Fraction(1, 2), 1, 2]))
def test_expands_to_agrees_with_comparing_the_expansion(case):
    num, den, target = case
    gf = RationalGF.of(num, den)
    assert _expands_to(gf, target) == (expand(gf, len(target) - 1) == list(target))


def _cross_multiplied_sum(a, b):
    return RationalGF(a.num * b.den + b.num * a.den, a.den * b.den)


_rational = st.one_of(st.integers(-10**4, 10**4), st.fractions(max_denominator=30))


@given(_rational, _rational, _rational, st.sampled_from((-1, 0, 1)),
       st.sampled_from(primes_up_to(30)), st.integers(2, 7))
def test_same_denominator_sum_equals_cross_multiplied_sum(a_t, b1, trace, chi1_p, p, k):
    s0, s1 = s_split_closed(a_t, b1, trace, chi1_p, p, k)
    total, expected = s0 + s1, _cross_multiplied_sum(s0, s1)
    assert (total.num, total.den) == (expected.num, expected.den)


@given(expandable(), expandable())
def test_sum_of_any_two_functions_equals_cross_multiplied_sum(f, g):
    a, b = RationalGF.of(*f), RationalGF.of(*g)
    for x, y in ((a, b), (a, RationalGF(b.num, a.den))):
        total, expected = x + y, _cross_multiplied_sum(x, y)
        assert (total.num, total.den) == (expected.num, expected.den)


def test_lucas_sequence_closed_form():
    # alpha = 4, beta = 2: u_j = (4^j - 2^j)/2
    u = lucas_sequence(Fraction(6), Fraction(8), 8)
    for j, val in enumerate(u):
        assert val == Fraction(4**j - 2**j, 2)


def test_remark_polynomial_m1_vanishes():
    local = satake_data(6, 2, 2)
    assert remark_polynomial(local, 1).is_zero


def test_remark_polynomial_m2_symbolic():
    local = satake_data(6, 2, 2)
    q = remark_polynomial(local, 2)
    assert q == P(1, -local.trace, local.norm)


def test_remark_polynomial_constant_term_one():
    rng = random.Random(17)
    for _ in range(50):
        inst = random_instance(rng)
        local = satake_data(inst["trace"], inst["p"], inst["k"])
        for m_p in range(2, 6):
            assert remark_polynomial(local, m_p)(0) == 1


def test_remark_polynomial_rationalization_identity():
    # the literal root-built polynomial equals (alpha - beta) * Q for
    # integer Satake pairs, including the degenerate m_p = 1 collapse
    for alpha, beta in ((4, 2), (5, 3), (7, -2), (9, 4)):
        trace, norm = Fraction(alpha + beta), Fraction(alpha * beta)
        for m_p in range(1, 7):
            u = lucas_sequence(trace, norm, m_p)
            q_coeffs = [Fraction(0)] * (m_p + 1)
            q_coeffs[0] += 1
            q_coeffs[m_p - 1] -= u[m_p]
            q_coeffs[m_p] += norm * u[m_p - 1]
            q = Polynomial.from_coeffs(q_coeffs)
            literal = [Fraction(0)] * (m_p + 1)
            literal[0] += alpha - beta
            literal[m_p - 1] += beta**m_p - alpha**m_p
            literal[m_p] += beta * alpha**m_p - alpha * beta**m_p
            assert Polynomial.from_coeffs(literal) == q.scale(alpha - beta)
            if (alpha, beta) == (4, 2):
                # genuine Satake data: trace 6, norm 8 = 2^(2*2-1)
                assert remark_polynomial(satake_data(6, 2, 2), m_p) == q


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
        assert real_root_count(remark_polynomial(local, 2)) == 0


def test_real_root_count_vs_grid_lower_bound():
    rng = random.Random(44)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(3)] + [
            Fraction(rng.choice([c for c in range(-9, 10) if c]))
        ]
        poly = Polynomial.from_coeffs(coeffs)
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
