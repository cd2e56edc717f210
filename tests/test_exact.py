"""The exact-number contract: every value is an int or a Fraction, never a
float, and series coefficients and traces are canonical (int exactly when
integral)."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from halfsign import flagship as flagship_mod
from halfsign.arith import clear_denominators, exact, lucas_row, primes_up_to, unscale
from halfsign.errors import HalfsignError
from halfsign.flagship import flagship_form
from halfsign.genfun import Polynomial, expand, h_n_closed
from halfsign.hecke import deligne_check, extract_trace
from halfsign.qseries import TruncatedSeries
from halfsign.signscan import twisted_sequence
from naive_oracle import naive_twisted_sequence

_primes = st.sampled_from(primes_up_to(47))
_chi1 = st.sampled_from((-1, 0, 1))
_weights = st.integers(2, 8)
_rational = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=60))


@given(st.integers(-10**6, 10**6), st.integers(-10**9, 10**9), _chi1, _primes, _weights,
       st.integers(0, 60))
def test_twisted_sequence_stays_int_and_matches_fraction_oracle(a_t, trace, chi1_p, p, k, M):
    seq = twisted_sequence(a_t, trace, chi1_p, p, k, M)
    assert all(type(b) is int for b in seq)
    assert seq == naive_twisted_sequence(a_t, trace, chi1_p, p, k, M)


@given(st.fractions(), st.fractions(), _chi1, _primes, _weights, st.integers(0, 60))
@example(Fraction(1, 2), Fraction(1, 2), 0, 3, 2, 2)  # b_1 = 1/4, b_2 = 1/8 - 27/2
@example(Fraction(2, 3), Fraction(3, 2), 1, 2, 2, 3)  # b_1 = (3/2 - 2) 2/3 = -1/3
@example(Fraction(3, 2), Fraction(4, 3), -1, 2, 2, 1)  # b_1 = (4/3 + 2) 3/2 = 5, an int
def test_twisted_sequence_on_rationals_is_canonical_and_matches_fraction_oracle(
    a_t, trace, chi1_p, p, k, M
):
    seq = twisted_sequence(a_t, trace, chi1_p, p, k, M)
    assert all(type(b) is int or (type(b) is Fraction and b.denominator != 1) for b in seq)
    assert seq == naive_twisted_sequence(a_t, trace, chi1_p, p, k, M)


@given(_rational, _rational, _chi1, _primes, _weights, st.integers(0, 30))
def test_closed_form_expansion_never_yields_a_float(lead, trace, chi1_p, p, k, M):
    terms = expand(h_n_closed(lead, trace, chi1_p, p, k), M)
    assert len(terms) == M + 1
    assert all(isinstance(c, (int, Fraction)) for c in terms)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries.from_coeffs([0, 1, 0.5])
    with pytest.raises(TypeError):
        twisted_sequence(1, 2.0, 1, 3, 2, 4)
    with pytest.raises(TypeError):
        twisted_sequence(1.0, 2, 1, 3, 2, 4)
    with pytest.raises(TypeError):
        deligne_check(1.5, 3, 2)
    with pytest.raises(TypeError):
        Polynomial.of(1, 0.5)


def test_flagship_coefficients_and_traces_are_int(flagship):
    assert all(type(c) is int for c in flagship.series.coeffs)
    form = flagship_form(2500)
    assert all(type(c) is int for c in form.series.coeffs)
    for p in primes_up_to(47)[1:]:
        assert type(extract_trace(form, 1, p)) is int


def test_flagship_below_precision_49_is_gated_without_the_fixture(monkeypatch):
    fixture = flagship_mod.load_fixture()
    calls = []

    def counting_load_fixture():
        calls.append(1)
        return fixture

    monkeypatch.setattr(flagship_mod, "load_fixture", counting_load_fixture)
    form = flagship_form.__wrapped__(48)  # bypass the cache
    assert form.prec == 48
    assert form.series.coeffs == fixture.series.coeffs[:49]
    assert calls == []


def _gate_rejecting_the_recipe(monkeypatch) -> list[int]:
    """Make verify_eigenform reject its first form, the expanded recipe, and
    gate every later one for real; returns the precisions it was shown."""
    real, shown = flagship_mod.verify_eigenform, []

    def gate(form):
        shown.append(form.prec)
        return len(shown) > 1 and real(form)

    monkeypatch.setattr(flagship_mod, "verify_eigenform", gate)
    return shown


@pytest.mark.parametrize("prec, gate_prec", [(20, 49), (3000, 3000), (10_000, 10_000)])
def test_a_failing_recipe_serves_the_gated_fixture_truncated(monkeypatch, prec, gate_prec):
    fixture = flagship_mod.load_fixture()
    shown = _gate_rejecting_the_recipe(monkeypatch)
    form = flagship_form.__wrapped__(prec)  # bypass the cache
    assert shown == [gate_prec, gate_prec]
    assert form.prec == prec
    assert form.series.coeffs == fixture.series.coeffs[: prec + 1]


def test_a_failing_recipe_and_a_short_fixture_raise(monkeypatch):
    shown = _gate_rejecting_the_recipe(monkeypatch)
    with pytest.raises(HalfsignError, match="precision 10000, not 20000"):
        flagship_form.__wrapped__(20_000)
    assert shown == [20_000]


def test_exact_returns_canonical_ints_and_fractions():
    class Flag(int):
        pass

    for value, expected in ((7, 7), (True, 1), (Flag(3), 3), (Fraction(6, 3), 2)):
        got = exact(value)
        assert got == expected and type(got) is int
    assert type(exact(Fraction(1, 2))) is Fraction
    with pytest.raises(TypeError, match="float"):
        exact(2.0)


@pytest.mark.parametrize("coeffs, expected", [
    ([3, -4, 0], (1, [3, -4, 0])),  # all ints: returned as a new list
    ([True, False, 2], (1, [1, 0, 2])),  # bools come back as ints
    ([Fraction(1, 2), Fraction(-1, 3)], (6, [3, -2])),
    ([1, Fraction(1, 4), 2], (4, [4, 1, 8])),  # mixed
    ([], (1, [])),
])
def test_clear_denominators_scales_to_ints(coeffs, expected):
    L, ints = clear_denominators(coeffs)
    assert (L, ints) == expected and ints is not coeffs
    assert all(type(c) is int for c in ints)


def test_clear_denominators_rejects_floats():
    with pytest.raises(TypeError, match="exact"):
        clear_denominators([1, 2.0])


@given(st.lists(_rational, max_size=20))
def test_unscale_inverts_clear_denominators(cs):
    L, ints = clear_denominators(cs)
    back = unscale(ints, L, 1)
    assert back == cs
    assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in back)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-30, 30), st.integers(1, 12),
       st.integers(-20, 20), st.integers(0, 12), st.integers(1, 40))
def test_unscale_divides_term_m_of_a_lucas_row_by_s_v_to_the_m(x0, x1, u, v, norm, M, s):
    row = lucas_row(x0, x1, u, v, norm, M)
    back = unscale(row, s, v)
    assert back == [Fraction(b, s * v**m) for m, b in enumerate(row)]
    assert all(type(c) is int or c.denominator != 1 for c in back)


def test_unscale_by_one_is_the_row_itself():
    row = [3, -1, 0]
    assert unscale(row, 1, 1) is row
