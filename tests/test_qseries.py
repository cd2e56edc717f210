import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from halfsign import qseries
from halfsign.errors import NonIntegralOffset, PrecisionExceeded
from halfsign.qseries import (
    EtaRecipe,
    TruncatedSeries,
    eta_power,
    expand_recipe,
    series_mul,
    series_pow,
    theta_series,
)
from naive_oracle import (
    naive_eta_product,
    naive_mul,
    naive_pack,
    naive_theta,
    naive_unpack,
)


def S(values, prec=None):
    return TruncatedSeries.from_coeffs(values, prec)


def test_mul_telescopes():
    a = S([1, 1, 0, 0])  # 1 + q
    b = S([1, -1, 0, 0])  # 1 - q
    assert series_mul(a, b).coeffs == (1, 0, -1, 0)


def test_mul_identity():
    a = S([3, Fraction(1, 2), -7, 0, 2])
    one = TruncatedSeries.one(4)
    assert series_mul(a, one) == a


def test_mul_truncates_to_min_precision():
    a = S([1] * 11)  # prec 10
    b = S([1] * 6)  # prec 5
    assert series_mul(a, b).prec == 5


def test_reading_past_precision_is_an_error():
    a = S([1, 2, 3])
    assert a.coefficient(2) == 3
    with pytest.raises(PrecisionExceeded):
        a.coefficient(3)


def test_eta24_by_repeated_squaring_matches_oracle():
    eta = eta_power(1, 24, 40)
    assert eta.coefficient(2) == -24
    expected = naive_eta_product(1, 24, 40)
    assert list(eta.coeffs) == expected


def test_eta_power_examples():
    e = eta_power(1, 24, 10)
    assert e.coefficient(1) == 1
    assert e.coefficient(2) == -24
    assert e.coefficient(3) == 252
    assert list(e.coeffs) == naive_eta_product(1, 24, 10)

    e2 = eta_power(2, 12, 10)
    assert e2.coefficient(0) == 0
    assert e2.coefficient(1) == 1  # leading exponent 2*12/24 = 1
    assert list(e2.coeffs) == naive_eta_product(2, 12, 10)


# 1, 2, 3, every triangular number up to 28 and its neighbours, and 2000
_CUBE_PRECS = sorted({t + e for t in (1, 3, 6, 10, 15, 21, 28) for e in (-1, 0, 1)} - {0} | {2000})


@pytest.mark.parametrize("m", _CUBE_PRECS)
def test_euler_cube_is_the_cube_of_the_euler_product(m):
    cube = qseries._euler_cube(m)
    assert cube == series_pow(qseries._euler_product(m), 3)
    if m <= 29:
        # eta(8z)^3 = q E(q^8)^3
        assert list(cube.coeffs) == naive_eta_product(8, 3, 8 * m + 1)[1::8]


def test_eta_power_nonintegral_offset():
    with pytest.raises(NonIntegralOffset):
        eta_power(1, 1, 10)


def test_theta_series_values():
    th = theta_series(16)
    assert th.coefficient(0) == 1
    assert th.coefficient(1) == 2
    assert th.coefficient(2) == 0
    assert th.coefficient(4) == 2
    assert th.coefficient(9) == 2
    assert th.coefficient(16) == 2
    assert list(th.coeffs) == naive_theta(16)


def test_theta_coefficient_characterization():
    th = theta_series(60)
    squares = {n * n for n in range(1, 8)}
    for n in range(61):
        expected = 1 if n == 0 else (2 if n in squares else 0)
        assert th.coefficient(n) == expected


def test_expand_recipe_delta():
    series = expand_recipe(EtaRecipe(factors=((1, 24),), theta_power=0), 10)
    assert series.coefficient(5) == 4830


def test_expand_recipe_flagship_leading_term():
    series = expand_recipe(EtaRecipe(factors=((2, 12),), theta_power=1), 10)
    assert series.coefficient(0) == 0
    assert series.coefficient(1) == 1


def test_expand_recipe_empty_is_one():
    series = expand_recipe(EtaRecipe(factors=(), theta_power=0), 8)
    assert series.coeffs == (1,) + (0,) * 8


def test_recipe_invariant_checked_at_construction():
    with pytest.raises(NonIntegralOffset):
        EtaRecipe(factors=((1, 12), (1, 11)), theta_power=0)
    # each factor is checked, and named, even when the total offset is integral
    for factors, name in ((((1, 12), (3, 4)), "1:12"), (((1, 8), (2, 8)), "1:8")):
        with pytest.raises(NonIntegralOffset, match=f"eta factor {name} "):
            EtaRecipe(factors=factors, theta_power=0)


@pytest.mark.parametrize("factors, theta_power, bad", [
    (((2.9, 12),), 1, "2.9"),  # not truncated to the flagship's (2, 12)
    (((2, 12.0),), 1, "12.0"),
    (((True, 24),), 0, "True"),
    (((2, 12),), 1.5, "1.5"),
    (((2, 12),), True, "True"),
])
def test_recipe_rejects_entries_that_are_not_ints(factors, theta_power, bad):
    with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
        EtaRecipe(factors=factors, theta_power=theta_power)


def _random_series(rng, prec, rational=True):
    if rational:
        vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(prec + 1)]
    else:
        vals = [Fraction(rng.randint(-30, 30)) for _ in range(prec + 1)]
    return TruncatedSeries(prec, tuple(vals))


def test_mul_commutative_associative_random():
    rng = random.Random(1701)
    for _ in range(25):
        rational = rng.random() < 0.5
        a = _random_series(rng, 24, rational)
        b = _random_series(rng, 24, rational)
        c = _random_series(rng, 24, rational)
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_mul_agrees_with_schoolbook_oracle():
    rng = random.Random(77)
    for _ in range(10):
        a = _random_series(rng, 30, rational=False)
        b = _random_series(rng, 30, rational=False)
        got = series_mul(a, b)  # integer inputs take the packed fast path
        expected = naive_mul(list(a.coeffs), list(b.coeffs), 30)
        assert list(got.coeffs) == expected


_integer = st.integers(-10**6, 10**6).map(Fraction)
_rational = st.fractions(max_denominator=60)


def _series(coefficient):
    return st.lists(coefficient, min_size=2, max_size=40).map(
        lambda vals: TruncatedSeries(len(vals) - 1, tuple(vals))
    )


_operand = st.one_of(_series(_integer), _series(st.one_of(_integer, _rational)))


@given(_operand, _operand)
def test_mul_agrees_with_oracle_on_rational_series(a, b):
    # integer, rational and mixed operands of unequal precision
    got = series_mul(a, b)
    prec = min(a.prec, b.prec)
    assert got.prec == prec
    assert list(got.coeffs) == naive_mul(list(a.coeffs), list(b.coeffs), prec)
    # canonical: int exactly when integral, else Fraction
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.coeffs)


def test_eta_power_additivity_in_exponent():
    whole = eta_power(1, 48, 30)
    split = series_mul(eta_power(1, 24, 30), eta_power(1, 24, 30))
    assert whole == split
    whole2 = eta_power(2, 24, 30)
    split2 = series_mul(eta_power(2, 12, 30), eta_power(2, 12, 30))
    assert whole2 == split2


def test_series_pow_matches_repeated_mul():
    rng = random.Random(5)
    a = _random_series(rng, 20, rational=False)
    acc = TruncatedSeries.one(20)
    for e in range(5):
        assert series_pow(a, e) == acc
        acc = series_mul(acc, a)


def test_mul_rejects_float_coefficients():
    floaty = TruncatedSeries(2, (0, 0.5, 1))
    with pytest.raises(TypeError, match="exact"):
        series_mul(floaty, TruncatedSeries.one(2))
    with pytest.raises(TypeError, match="exact"):
        series_mul(TruncatedSeries.one(2), floaty)


# Operands for the packed-product carriers: one coefficient size per list,
# from 0 to 300 bits, signed; all-zero lists; optionally a negative top
# coefficient, whose high limbs must not disturb the low ones.
_bits = st.integers(0, 300)
_signed_list = _bits.flatmap(
    lambda b: st.lists(st.integers(-(2**b), 2**b), min_size=1, max_size=30)
)
_carrier_operand = st.one_of(
    _signed_list,
    st.integers(1, 30).map(lambda n: [0] * n),
    st.tuples(_signed_list, _bits).map(lambda pair: pair[0][:-1] + [-(2 ** pair[1])]),
)
_CARRIERS = (
    qseries._int_product, qseries._decimal_product, qseries._sparse_product, qseries._term_product
)
_DENSE = [(-1) ** i * (i * i + 7) ** 3 for i in range(12)]
_JACOBI = [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9, 0, 0, 0, 0, -11]


@pytest.mark.parametrize("carrier", _CARRIERS, ids=lambda f: f.__name__)
@given(xs=_carrier_operand, ys=_carrier_operand, square=st.booleans(), n=st.integers(1, 59))
@example(xs=[1, 2, -3], ys=[5, 0, 7, -(2**300)], square=False, n=2)
# |c_k| equal to the l1 bound: c_31 = 2^15 needs the sign bit to get a third
# byte, and -8100 needs it to get a fifth decimal digit
@example(xs=[2**5] * 32, ys=[2**5] * 32, square=True, n=63)
@example(xs=[90], ys=[-90], square=False, n=1)
@example(xs=[0], ys=[256], square=False, n=1)
# shaped like the sparse factors: theta, Jacobi's E^3, all zeros, a negative
# top coefficient, and n below the sparse operand's top index
@example(xs=_DENSE, ys=[1, 2, 0, 0, 2, 0, 0, 0, 0, 2], square=False, n=21)
@example(xs=_DENSE, ys=[1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9], square=False, n=22)
@example(xs=_DENSE, ys=[0] * 9, square=False, n=20)
@example(xs=_DENSE, ys=[3, 0, 0, 0, -(2**70)], square=False, n=16)
@example(xs=_DENSE, ys=[1, 0, 0, 0, 0, 0, 0, 0, -5], square=False, n=4)
# two sparse operands: Jacobi's series squared, times theta, with a negative
# top coefficient, and with n below both top indices
@example(xs=_JACOBI, ys=_JACOBI, square=True, n=31)
@example(xs=_JACOBI, ys=[1, 2, 0, 0, 2, 0, 0, 0, 0, 2], square=False, n=25)
@example(xs=_JACOBI[:11] + [0, -(2**70)], ys=[3, 0, 0, 5, 0, 0, 0, -7], square=False, n=20)
@example(xs=_JACOBI, ys=[0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, -9], square=False, n=9)
def test_carrier_agrees_with_oracle(carrier, xs, ys, square, n):
    if square:
        ys = xs
    # any number of low coefficients, including fewer than either operand has
    n = min(n, len(xs) + len(ys) - 1)
    if carrier is qseries._term_product:  # packs nothing, so needs no limb width
        got = carrier(xs, ys, n)
    else:
        got = carrier(xs, ys, qseries._limb_bits(xs, ys), n)
    assert got == naive_mul(xs, ys, n - 1)
    assert all(type(c) is int for c in got)


def test_decimal_carrier_matches_int_carrier_at_transform_sizes():
    # large enough for libmpdec to multiply by number-theoretic transform
    rng = random.Random(4096)
    xs = [rng.randint(-(2**60), 2**60) for _ in range(3000)]
    ys = [rng.randint(-(2**60), 2**60) for _ in range(2500)]
    ys[-1] = -(2**60)
    for a, b in ((xs, ys), (xs, xs)):
        bits = qseries._limb_bits(a, b)
        n = len(a) + len(b) - 1
        expected = qseries._int_product(a, b, bits, n)
        assert qseries._decimal_product(a, b, bits, n) == expected
        assert qseries._decimal_product(a, b, bits, 100) == expected[:100]


@given(xs=_carrier_operand, ys=st.lists(st.integers(-50, 50), min_size=1, max_size=20),
       n=st.integers(1, 25))
@example(xs=[-(2**200)] * 3, ys=[1, 0, 0, 2], n=4)
def test_sparse_sum_stays_within_n_limbs(xs, ys, n):
    # the untruncated sum X Y is masked once to its low n limbs, so the value
    # handed to the decoder lies in [0, B^n), within the bound asserted here
    width = (qseries._limb_bits(xs, ys) + 7) // 8
    with mock.patch.object(qseries, "_unpack", lambda value, width, n: value):
        total = qseries._sparse_product(xs, ys, 8 * width, n)
    terms = sum(1 for c in ys[:n] if c)
    assert 0 <= total < max(terms, 1) << (8 * width * n)


@st.composite
def _limbs(draw):
    """(width, values): 1 to 40 values that fit limbs of 1 to 24 bytes, with
    0 and the extremes +-(B/2 - 1) of B = 2^(8 width) drawn often."""
    width = draw(st.integers(1, 24))
    top = 2 ** (8 * width - 1) - 1
    value = st.one_of(st.sampled_from([0, top, -top]), st.integers(-top, top))
    return width, draw(st.lists(value, min_size=1, max_size=40))


def _extremes(width, n):
    top = 2 ** (8 * width - 1) - 1
    return width, [top, -top, 0, -1, 1][:n] + [-top] * (n - 5)


# one-byte limbs, the widths either side of an 8-byte word, and 16 and 17 bytes
@given(limbs=_limbs(), high=st.integers(), noise=st.integers(-(2**8000), 2**8000))
@example(limbs=_extremes(1, 7), high=-1, noise=-1)
@example(limbs=_extremes(7, 3), high=-(2**90), noise=2**200 - 1)
@example(limbs=_extremes(8, 40), high=3, noise=-(2**2600))
@example(limbs=_extremes(9, 2), high=-5, noise=-(2**72))
@example(limbs=_extremes(16, 6), high=2**64, noise=2**900 + 2**127)
@example(limbs=_extremes(17, 1), high=-(2**300), noise=-(2**136) + 1)
def test_limb_conversion_matches_the_per_limb_oracle(limbs, high, noise):
    width, vals = limbs
    n = len(vals)
    packed = qseries._pack(vals, width)
    assert packed == naive_pack(vals, width)
    assert qseries._unpack(packed, width, n) == vals
    # a negative total, bits above limb n - 1, and any value at all
    for value in (-packed, packed + (high << (8 * width * n)), noise):
        assert qseries._unpack(value, width, n) == naive_unpack(value, width, n)


def test_sparse_factors_take_the_sparse_carrier(monkeypatch):
    # eta(z)^24 theta at 10^4: E^3 squared has two sparse operands and is
    # multiplied term pair by term pair, the theta product has one and is
    # summed, and E^6 and E^12 squared are dense and large enough for decimals
    calls = []
    for name in ("_term_product", "_sparse_product", "_int_product", "_decimal_product"):
        def spy(xs, ys, *args, real=getattr(qseries, name), name=name):
            calls.append((name, len(ys) - ys.count(0), xs is ys))
            return real(xs, ys, *args)

        monkeypatch.setattr(qseries, name, spy)
    expand_recipe(EtaRecipe(factors=((1, 24),), theta_power=1), 10_000)
    assert [(name, square) for name, _, square in calls] == [
        ("_term_product", True),
        ("_decimal_product", True),
        ("_decimal_product", True),
        ("_sparse_product", False),
    ]
    assert (calls[0][1], calls[-1][1]) == (141, 101)  # E^3 and theta up to q^10^4
    theta = theta_series(10**6).coeffs  # 1001 terms: decimals carry theta at 10^6
    assert len(theta) - theta.count(0) > qseries._SPARSE_MAX_WEIGHT
    # eta(z)^24 at 10^5: E^3 has 447 terms, and only its square is term by term
    calls.clear()
    expand_recipe(EtaRecipe(factors=((1, 24),)), 100_000)
    assert calls[0] == ("_term_product", 447, True)
    assert [name for name, _, _ in calls[1:]] == ["_decimal_product", "_decimal_product"]
    # eta(z)^24 at 100, as ramanujan_delta(100) builds it: E^3, E^6 and E^12
    # have 14, 66 and 100 terms in 100 places, so the E^6 and E^12 squares are
    # packed
    calls.clear()
    expand_recipe(EtaRecipe(factors=((1, 24),)), 100)
    assert calls == [("_term_product", 14, True), ("_int_product", 66, True),
                     ("_int_product", 100, True)]
    # 250 nonzero terms of two values: packed when dense, summed when they
    # fill one place in 16, packed again one place short of that
    calls.clear()
    dense = [(-1) ** i for i in range(250)]
    spread = [0] * 4000
    spread[::16] = dense
    qseries._int_convolution(dense, dense, 498)
    qseries._int_convolution(_DENSE * 400, spread, 3999)
    qseries._int_convolution(_DENSE * 400, spread[:-1], 3998)
    assert [name == "_sparse_product" for name, _, _ in calls] == [False, True, False]
    # the weight is the nonzero terms plus twice the distinct values: theta at
    # 90,000 has 301 terms of 2, over the former limit of 250 terms, and is
    # summed; 150 distinct terms weigh 452 and are packed, 149 weigh 449
    calls.clear()
    theta = list(theta_series(90_000).coeffs)
    qseries._int_convolution((_DENSE * 7501)[:90_001], theta, 90_000)
    for count in (150, 149):
        spread = [0] * 16 * count
        spread[::16] = range(1, count + 1)
        qseries._int_convolution(_DENSE * 200, spread, len(spread) - 1)
    assert [(name == "_sparse_product", terms) for name, terms, _ in calls] == [
        (True, 301), (False, 150), (True, 149)
    ]


_SINGLE_FACTORS = ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2), (24, 1))


@pytest.mark.parametrize("d, r", _SINGLE_FACTORS)
def test_eta_power_in_q_to_the_d_matches_oracle(d, r):
    for prec in sorted({1, max(d - 1, 1), d, d + 1, 2 * d + 3, 26}):
        assert list(eta_power(d, r, prec).coeffs) == naive_eta_product(d, r, prec), prec


def test_int_carrier_alone_gives_the_same_series(monkeypatch):
    # without the C decimal module every product takes the native-int carrier;
    # eta(z)^24 theta at 5000, and the flagship eta(2z)^12 theta at 10^4
    decimal_calls = []
    real = qseries._decimal_product
    libmpdec = qseries._libmpdec

    def spy(*args):
        decimal_calls.append(1)
        return real(*args)

    monkeypatch.setattr(qseries, "_decimal_product", spy)
    for factor, prec in (((1, 24), 5000), ((2, 12), 10_000)):
        recipe = EtaRecipe(factors=(factor,), theta_power=1)
        monkeypatch.setattr(qseries, "_libmpdec", libmpdec)
        with_decimal = expand_recipe(recipe, prec)
        assert decimal_calls
        decimal_calls.clear()
        monkeypatch.setattr(qseries, "_libmpdec", None)
        assert expand_recipe(recipe, prec) == with_decimal
        assert not decimal_calls
