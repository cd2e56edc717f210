from fractions import Fraction

import pytest

from halfsign.arith import kronecker, primes_up_to
from halfsign.errors import MissingCoefficient, PrecisionExceeded, ZeroBase
from halfsign.forms import RealCharacter, coefficient
from halfsign.hecke import extract_trace
from halfsign.qseries import TruncatedSeries
from halfsign.shimura import chi1, crosscheck_lift, lift_coefficients
from naive_oracle import kronecker_bottom_two, legendre_euler, naive_lift


def test_kronecker_pins_bottom_two_and_minus_one():
    # (2|m) table: the bottom-2 rule transposes to (m|2) by reciprocity
    # only for odd m; pin both conventions explicitly.
    for m in range(-20, 21):
        assert kronecker(m, 2) == kronecker_bottom_two(m)
    # (-1|m) for odd positive m depends on m mod 4
    for m in range(1, 40, 2):
        assert kronecker(-1, m) == (1 if m % 4 == 1 else -1)
    # unit bottoms
    assert kronecker(7, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1


def test_kronecker_against_euler_criterion():
    for p in primes_up_to(60):
        if p == 2:
            continue
        for a in range(-30, 31):
            assert kronecker(a, p) == legendre_euler(a, p)


def test_kronecker_against_sympy_jacobi():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 60, 2):
        for a in range(-40, 41):
            assert kronecker(a, n) == int(sympy.jacobi_symbol(a, n))


def test_chi1_examples():
    assert chi1(3, 1, 6, 4) == 1  # (16|3) = 1
    assert chi1(3, 1, 3, 4) == -1  # (-16|3) = -1
    assert chi1(2, 1, 6, 4) == 0  # shared factor with N
    assert chi1(3, 3, 6, 4) == 0  # odd p dividing N*t
    assert chi1(5, 3, 6, 4) == kronecker(16 * 3, 5)


def test_chi1_completely_multiplicative():
    for t, k, N in ((1, 6, 4), (2, 6, 4), (5, 3, 4), (3, 4, 8)):
        values = {m: chi1(m, t, k, N) for m in range(1, 201)}
        for m in range(1, 201):
            for n in range(1, 201 // m + 1):
                if m * n <= 200:
                    assert values[m * n] == values[m] * values[n]


def test_chi1_square_one_off_level():
    for t, k, N in ((1, 6, 4), (2, 5, 4), (7, 2, 8)):
        for p in primes_up_to(100):
            if (2 * N * t) % p == 0:
                continue
            assert chi1(p, t, k, N) ** 2 == 1
        for p in primes_up_to(100):
            if p != 2 and (N * t) % p == 0:
                assert chi1(p, t, k, N) == 0


def test_lift_single_divisor():
    from halfsign.flagship import flagship_form

    form = flagship_form(10000)
    assert lift_coefficients(form, 5, 1) == {1: coefficient(form, 5, 1)}


def test_lift_prime_value_formula(flagship):
    lift = lift_coefficients(flagship, 3, 7)
    for p in (3, 5, 7):
        chi_tN = flagship.chi(p) * chi1(p, 3, flagship.k, flagship.level)
        expected = coefficient(flagship, 3, p) + chi_tN * p ** (
            flagship.k - 1
        ) * coefficient(flagship, 3, 1)
        assert lift[p] == expected


def test_lift_flagship_t1_is_tau(flagship, delta):
    lift = lift_coefficients(flagship, 1, 30)
    for n in range(1, 31):
        assert lift[n] == delta.coefficient(n)


def test_lift_precision_guard(flagship):
    with pytest.raises(PrecisionExceeded):
        lift_coefficients(flagship, 1, 101)


def test_crosscheck_flagship_vs_delta(flagship, delta):
    report = crosscheck_lift(flagship, 1, delta, 50)
    assert report.ok
    assert report.compared == tuple(p for p in primes_up_to(50) if p != 2)
    assert not report.skipped


def test_crosscheck_detects_perturbation(flagship, delta):
    coeffs = list(delta.coeffs)
    coeffs[7] += 1
    report = crosscheck_lift(flagship, 1, TruncatedSeries.from_coeffs(coeffs), 20)
    assert report.mismatches == (7,)


def test_crosscheck_reports_corrupted_form_coefficients(delta):
    from halfsign.flagship import flagship_form

    form = flagship_form(2500)
    coeffs = list(form.series.coeffs)
    coeffs[9] += 1
    coeffs[25] -= 3
    corrupted = form.replace(series=TruncatedSeries.from_coeffs(coeffs))
    report = crosscheck_lift(corrupted, 1, delta, 13)
    assert report.compared == (3, 5, 7, 11, 13)
    assert report.mismatches == (3, 5)
    # the trace read off the corrupted form agrees with its own lift value,
    # so only the comparison with B(p) can see the corruption
    for p in (3, 5):
        lift_p = Fraction(coefficient(corrupted, 1, p), coefficient(corrupted, 1, 1))
        lift_p += chi1(p, 1, form.k, form.level) * corrupted.chi(p) * p ** (form.k - 1)
        assert extract_trace(corrupted, 1, p) * corrupted.chi(p) == lift_p


def test_lift_and_crosscheck_read_a_nontrivial_character(flagship):
    # the flagship's series with chi_-4 for its trivial character: the divisor
    # sum is defined for any character, and chi(d) = -1 at every d = 3 (mod 4)
    form = flagship.replace(chi=RealCharacter(4, {1: 1, 3: -1}))
    for t in (1, 3):
        lift = lift_coefficients(form, t, 40)
        assert lift == naive_lift(form, t, 40)
        assert lift != lift_coefficients(flagship, t, 40)
    # a comparison series of the naive A_1(p)/a(1) at primes passes, and
    # every prime p = 3 (mod 4) is among those compared
    a_1, naive, primes = coefficient(form, 1, 1), naive_lift(form, 1, 97), primes_up_to(97)
    series = [Fraction(naive[n], a_1) if n in primes else 0 for n in range(98)]
    report = crosscheck_lift(form, 1, TruncatedSeries.from_coeffs(series), 97)
    assert report.ok
    assert {p for p in primes if p % 4 == 3} <= set(report.compared)


@pytest.mark.parametrize("p_max", [1, 2])
def test_crosscheck_that_compares_no_prime_raises(flagship, delta, p_max):
    # p = 2 divides the level, so neither bound leaves a prime to compare
    with pytest.raises(PrecisionExceeded):
        crosscheck_lift(flagship, 1, delta, p_max)


def test_crosscheck_zero_base():
    from halfsign.forms import HalfIntegralForm, RealCharacter

    series = TruncatedSeries.from_coeffs([0] * 50)
    silent = HalfIntegralForm(4, 2, RealCharacter.trivial(4), series)
    with pytest.raises(ZeroBase):
        crosscheck_lift(silent, 1, TruncatedSeries.from_coeffs([0] * 10), 3)


def test_crosscheck_missing_coefficient(flagship):
    with pytest.raises(MissingCoefficient):
        crosscheck_lift(flagship, 1, TruncatedSeries.from_coeffs([0, 1]), 10)


def test_eigenvalue_transfer_identity(flagship):
    # lambda_p a(t) = A_t(p), i.e. trace * chi(p) * a(t) = lift value at p
    for t in (1, 2, 3, 5, 6):
        if coefficient(flagship, t, 1) == 0:
            continue
        lift = lift_coefficients(flagship, t, 7)
        for p in (3, 5, 7):
            trace = extract_trace(flagship, t, p)
            lhs = trace * flagship.chi(p) * coefficient(flagship, t, 1)
            assert lhs == lift[p]
