import contextlib
import random
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfsign import signscan
from halfsign.arith import exact, primes_up_to
from halfsign.characters import ProgressionSpec
from halfsign.errors import OutOfRange, ZeroBase
from halfsign.forms import coefficient
from halfsign.genfun import expand, h_n_closed
from halfsign.hecke import extract_trace
from halfsign.shimura import chi1
from halfsign.signscan import (
    SignChangeCount,
    _floor_sum,
    _phases,
    _PhaseSigns,
    _twisted_signs,
    count_sign_changes,
    scan,
    subsequence,
    twisted_sequence,
)
from naive_oracle import naive_sign_changes


def F(*values):
    return [Fraction(v) for v in values]


def test_twisted_sequence_short():
    assert twisted_sequence(7, 5, 1, 3, 2, 0) == [7]
    assert twisted_sequence(1, 0, 0, 2, 2, 6) == F(1, 0, -8, 0, 64, 0, -512)


def test_twisted_sequence_matches_closed_form_random():
    from halfsign.cli import random_instance

    rng = random.Random(606)
    for _ in range(100):
        inst = random_instance(rng)
        seq = twisted_sequence(
            inst["a_t"], inst["trace"], inst["chi1_p"], inst["p"], inst["k"], 60
        )
        gf = h_n_closed(inst["a_t"], inst["trace"], inst["chi1_p"], inst["p"], inst["k"])
        assert seq == expand(gf, 60)


def test_twisted_sequence_reproduces_form_coefficients(flagship):
    for t in (1, 2, 3):
        for p in (3, 5, 7):
            trace = extract_trace(flagship, t, p)
            c1 = chi1(p, t, flagship.k, flagship.level)
            seq = twisted_sequence(coefficient(flagship, t, 1), trace, c1, p, flagship.k, 8)
            chi_p = flagship.chi(p)
            nu = 0
            while t * p ** (2 * nu) <= flagship.prec and nu <= 8:
                assert seq[nu] * chi_p**nu == coefficient(flagship, t, p**nu)
                nu += 1
            assert nu >= 2  # the spot-check actually reached the recurrence


def test_subsequence_modes():
    seq = F(10, 11, 12, 13)
    assert subsequence(seq, "full") == seq
    assert subsequence(seq, "odd") == F(11, 13)
    assert subsequence(seq, "even") == F(10, 12)
    spec = ProgressionSpec.create(3, 2, 5)
    assert subsequence(F(1, 2, 3, 4, 5, 6, 7), spec) == F(2, 4, 6)
    # on a range of indices the kept indices come back as a range
    assert subsequence(range(8), "odd") == range(1, 8, 2)
    assert subsequence(range(8), spec) == range(1, 8, 2)
    with pytest.raises(ValueError):
        subsequence(seq, "sideways")


def test_subsequence_parity_partition():
    rng = random.Random(3)
    for _ in range(20):
        seq = F(*(rng.randint(-5, 5) for _ in range(rng.randint(0, 17))))
        odd = subsequence(seq, "odd")
        even = subsequence(seq, "even")
        assert len(odd) + len(even) == len(seq)
        rebuilt = []
        for i in range(len(seq)):
            rebuilt.append(even[i // 2] if i % 2 == 0 else odd[i // 2])
        assert rebuilt == seq


def test_count_sign_changes_examples():
    assert naive_sign_changes(F(1, -1)) == [(0, 1)]
    frag = count_sign_changes(F(1, -1))
    assert frag.change_count == 1 and frag.first_change_index == 1
    assert naive_sign_changes(F(1, 0, -2)) == [(0, 2)]
    frag = count_sign_changes(F(1, 0, -2))
    assert frag.change_count == 1 and frag.first_change_index == 2
    frag = count_sign_changes(F(0, 0, 0))
    assert frag.change_count == 0 and frag.zero_count == 3
    assert frag.first_change_index is None


def test_count_sign_changes_scaling_and_flip():
    rng = random.Random(9)
    for _ in range(30):
        seq = F(*(rng.randint(-4, 4) for _ in range(15)))
        base = count_sign_changes(seq)
        scaled = count_sign_changes([Fraction(7, 3) * v for v in seq])
        flipped = count_sign_changes([-v for v in seq])
        # negating every entry keeps each change, so every count is the same
        assert scaled == base == flipped
        assert naive_sign_changes([-v for v in seq]) == naive_sign_changes(seq)
        assert base.change_count == len(naive_sign_changes(seq))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-5, 5)), max_size=60))
@example([])
@example([1, 0, -1])
@example([0, 2, 0, 0, -1, 0, 3])
def test_count_sign_changes_matches_the_naive_oracle(seq):
    pairs = naive_sign_changes(seq)
    count = count_sign_changes(seq)
    assert count.length == len(seq)
    assert count.change_count == len(pairs)
    assert count.first_change_index == (pairs[0][1] if pairs else None)
    assert count.zero_count == seq.count(0)


def test_scan_flagship_full(flagship):
    reports = scan(flagship, 1, "full", 50, 200)
    assert [r.p for r in reports] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    a_t = coefficient(flagship, 1, 1)
    for r in reports:
        assert r.length == 201
        assert r.deligne == "strict"
        c1 = chi1(r.p, 1, flagship.k, flagship.level)
        seq = twisted_sequence(a_t, extract_trace(flagship, 1, r.p), c1, r.p, flagship.k, 200)
        pairs = naive_sign_changes(seq)
        assert r.change_count == len(pairs) >= 1
        assert r.first_change_index == pairs[0][1]
        assert r.zero_count == seq.count(0)


def test_scan_modes_odd_even(flagship):
    for mode, length in (("odd", 100), ("even", 101)):
        reports = scan(flagship, 1, mode, 50, 200)
        for r in reports:
            assert r.length == length
            assert r.change_count >= 1


def test_scan_progression_skips_inadmissible(flagship):
    reports = scan(flagship, 1, (5, 2), 50, 200)
    # admissible p: 2 generates (Z/5)* so p must be a primitive root mod 5
    # (p = 2, 3 mod 5), and p = 5 itself is skipped
    assert [r.p for r in reports] == [3, 7, 13, 17, 23, 37, 43, 47]
    assert all(r.mode == "progression(5,2)" for r in reports)
    # at this window length exactly one prime has not flipped sign yet:
    # p = 43 first changes within M = 400; the report records it as an
    # auditable exception rather than hiding it
    assert [r.p for r in reports if r.change_count == 0] == [43]
    assert all(r.change_count >= 1 for r in reports if r.p != 43)


def test_scan_checks_the_progression_before_any_prime(flagship):
    # p_max = 2 reaches no prime coprime to the level 4, so only a check made
    # before the prime loop sees the bad (q, h) or the unknown mode
    with pytest.raises(ValueError, match="q = 4 is not prime"):
        scan(flagship, 1, (4, 3), 2, 10)
    with pytest.raises(OutOfRange):
        scan(flagship, 1, (5, 7), 2, 10)
    for mode in ("sideways", "progression"):
        with pytest.raises(ValueError, match="unknown mode"):
            scan(flagship, 1, mode, 2, 10)


@pytest.mark.parametrize("mode", [ProgressionSpec(q=31, h=30, p=3), (31, 30, 1)])
def test_scan_takes_only_a_pair_as_a_progression(flagship, mode):
    with pytest.raises(ValueError, match="unknown mode"):
        scan(flagship, 1, mode, 50, 10)


def test_scan_reports_a_progression_starting_past_m_as_empty(flagship):
    # -1 = 30 mod 31 sits at index d = n/2 of <p>; only p = 37 (n = 6, d = 3)
    # has d <= M = 3, and every other admissible prime is kept with length 0
    reports = scan(flagship, 1, (31, 30), 50, 3)
    assert [(r.p, r.length) for r in reports] == [
        (3, 0), (11, 0), (13, 0), (17, 0), (23, 0), (29, 0), (37, 1), (43, 0)
    ]
    assert all(r.change_count == 0 and r.first_change_index is None for r in reports)


def test_scan_zero_base():
    from halfsign.forms import HalfIntegralForm, RealCharacter
    from halfsign.qseries import TruncatedSeries

    series = TruncatedSeries.from_coeffs([0] * 200)
    silent = HalfIntegralForm(4, 2, RealCharacter.trivial(4), series)
    with pytest.raises(ZeroBase):
        scan(silent, 1, "full", 10, 20)


def test_deligne_violating_synthetic_has_no_sign_changes():
    # trace 6, norm 8 (p = 2, k = 2), chi1_p = 1: the closed form collapses
    # to 1/(1-4X) and the sequence is 4^nu, never changing sign
    seq = twisted_sequence(1, 6, 1, 2, 2, 30)
    assert seq[:4] == F(1, 4, 16, 64)
    assert count_sign_changes(seq).change_count == 0


# ---------------------------------------------------------------------------
# certified fixed-point signs against the exact recurrence


def exact_signs(a_t, trace, chi1_p, p, k, M):
    return [(b > 0) - (b < 0) for b in twisted_sequence(a_t, trace, chi1_p, p, k, M)]


@pytest.fixture(scope="module")
def flagship_signs(flagship):
    """Exact signs of b_0..b_5000 at t = 1 for every flagship prime <= 97."""
    signs = {}
    for p in primes_up_to(97)[1:]:
        trace = extract_trace(flagship, 1, p)
        c1 = chi1(p, 1, flagship.k, flagship.level)
        signs[p] = exact_signs(coefficient(flagship, 1, 1), trace, c1, p, flagship.k, 5000)
    return signs


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 5000), st.sampled_from(("full", "odd", "even", "progression")))
@example(5000, "full")
@example(5000, "odd")
@example(5000, "even")
@example(5000, "progression")
def test_scan_counts_equal_the_exact_recurrence_counts(flagship, flagship_signs, M, mode):
    # the reference scan filters the prefix of the exact signs of
    # b_0..b_5000, which are the signs of twisted_sequence(..., M) for every
    # M <= 5000, by its own selector, not by the kept indices it is handed
    if mode == "progression":
        mode = (5, 2)
    reports = scan(flagship, 1, mode, 97, M)

    def exact_kept(a_t, trace, chi1_p, p, k, kept):
        selector = ProgressionSpec.create(*mode, p) if isinstance(mode, tuple) else mode
        return subsequence(flagship_signs[p][: M + 1], selector)

    with mock.patch.object(signscan, "_twisted_signs", exact_kept):
        expected = scan(flagship, 1, mode, 97, M)
    assert len(reports) >= 8
    assert reports == expected


@contextlib.contextmanager
def recorded_lengths():
    """The M of every run of the exact recurrence, _scaled_twisted, that
    signscan makes inside the block; twisted_sequence runs it too."""
    lengths = []
    run = signscan._scaled_twisted

    def recording(*args):
        lengths.append(args[-1])
        return run(*args)

    with mock.patch.object(signscan, "_scaled_twisted", recording):
        yield lengths


@st.composite
def twisted_inputs(draw, strict=False):
    """(a_t, trace, chi1_p, p, k): rational or negative a_t, odd and even k,
    and rational traces at the edges: angles near 0 and pi, trace 0 with
    chi1_p = 0 (every odd-index term zero), traces of size at most 2, and,
    unless strict, traces beyond the Deligne bound."""
    k = draw(st.sampled_from((2, 3, 6, 7)))
    p = draw(st.sampled_from((2, 3, 5, 7, 13, 47, 97)))
    chi1_p = draw(st.sampled_from((-1, 0, 1)))
    a_t = draw(st.one_of(st.integers(-99, 99), st.fractions(-99, 99, max_denominator=20)).filter(bool))
    den = draw(st.sampled_from((1, 1, 2, 3, 7)))
    # edge^2 < 4 p^(2k-1) den^2, since an odd power of p is not a square
    edge = isqrt(4 * p ** (2 * k - 1) * den * den)
    kinds = ("edge", "zero", "small", "inside") + (() if strict else ("violated",))
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":
        u = edge - draw(st.integers(0, 2))
    elif kind == "zero":
        u, chi1_p = 0, 0
    elif kind == "small":
        u = draw(st.integers(0, 2 * den))
    elif kind == "inside":
        u = draw(st.integers(0, edge))
    else:
        u = edge + draw(st.integers(1, 3))
    trace = exact(Fraction(draw(st.sampled_from((1, -1))) * u, den))
    return a_t, trace, chi1_p, p, k


@st.composite
def twisted_cases(draw):
    """twisted_inputs with a scan mode for their prime p: full, odd, even,
    or a progression (q, h) with q <= 41 prime, q != p and h != 1 a power
    of p mod q."""
    inputs = draw(twisted_inputs())
    p = inputs[3]
    mode = draw(st.sampled_from(("full", "odd", "even", "progression")))
    if mode != "progression":
        return inputs, mode
    q = draw(st.sampled_from([q for q in primes_up_to(41) if q != p and p % q != 1]))
    h = draw(st.sampled_from(sorted({pow(p, e, q) for e in range(1, q)} - {1})))
    return inputs, ProgressionSpec.create(q, h, p)


def kept_exact_signs(inputs, M, selector):
    return subsequence(exact_signs(*inputs, M), selector)


@settings(max_examples=150, deadline=None)
@given(twisted_cases(), st.integers(0, 400))
# 3 theta is within 3e-5 of pi: ord_19(7) = 3 and cos(theta) near 44467 / (2 sqrt(7^11))
@example(((5, 44467, 1, 7, 6), ProgressionSpec.create(19, 7, 7)), 400)
@example(((-2, Fraction(88933, 2), -1, 7, 6), ProgressionSpec.create(19, 11, 7)), 400)
# 2 theta is within 2e-11 of pi: trace 1 against 2 sqrt(97^11)
@example(((3, 1, 1, 97, 6), "even"), 400)
@example(((3, -1, -1, 97, 6), "odd"), 400)
def test_certified_signs_equal_the_exact_signs(case, M):
    inputs, selector = case
    kept = subsequence(range(M + 1), selector)
    assert list(_twisted_signs(*inputs, kept)) == kept_exact_signs(inputs, M, selector)


@settings(max_examples=150, deadline=None)
@given(twisted_cases(), st.integers(0, 400))
@example(((5, 44467, 1, 7, 6), ProgressionSpec.create(19, 7, 7)), 400)
@example(((3, 1, 1, 97, 6), "even"), 400)
@example(((3, -1, -1, 97, 6), "full"), 400)
def test_certified_counts_equal_the_exact_counts(case, M):
    # the floor count of a certified prime against the loop over the exact signs
    inputs, selector = case
    kept = subsequence(range(M + 1), selector)
    expected = count_sign_changes(kept_exact_signs(inputs, M, selector))
    assert count_sign_changes(_twisted_signs(*inputs, kept)) == expected


@st.composite
def phase_signs(draw):
    """_PhaseSigns with G in 16..80, n <= 300 and y in [0, 2^(G+1)), near a
    multiple of 2^G too; the step anywhere in (-2^G, 2^G], within 2^12 of
    either end, a simple fraction of 2^G, slow, 0 or 2^G."""
    G = draw(st.integers(16, 80))
    one = 1 << G
    step = draw(st.one_of(
        st.integers(1 - one, one),
        st.integers(0, 2**12).map(lambda d: one - d),
        st.integers(1, 2**12).map(lambda d: d - one),
        st.tuples(st.integers(2, 7), st.sampled_from((1, -1))).map(lambda f: f[1] * (one // f[0])),
        st.integers(-(2**12), 2**12),
        st.sampled_from((0, one)),
    ))
    y = draw(st.one_of(
        st.integers(0, 2 * one - 1),
        st.integers(-4, 4).map(lambda d: d % (2 * one)),
        st.integers(-4, 4).map(lambda d: one + d),
    ))
    return _PhaseSigns(y, step, draw(st.integers(1, 300)), G, draw(st.sampled_from((1, -1))))


@settings(max_examples=300, deadline=None)
@given(phase_signs())
@example(_PhaseSigns(0, 1 << 16, 5, 16, 1))
@example(_PhaseSigns((1 << 16) - 1, 0, 7, 16, -1))
@example(_PhaseSigns((1 << 16) - 1, 1, 2, 16, 1))
@example(_PhaseSigns(1 << 16, -1, 2, 16, 1))
def test_phase_sign_counts_equal_the_naive_oracle(signs):
    # list() walks the signs one by one; each is sign (-1)^floor((y + mu step)/2^G)
    values = list(signs)
    assert len(signs) == len(values) == signs.n
    assert values == [
        -signs.sign if (signs.y + mu * signs.step) >> signs.G & 1 else signs.sign
        for mu in range(signs.n)
    ]
    pairs = naive_sign_changes(values)
    expected = SignChangeCount(signs.n, len(pairs), pairs[0][1] if pairs else None, 0)
    assert count_sign_changes(signs) == expected


def assert_falls_back(inputs, mode, falls_back):
    kept = subsequence(range(41), mode)
    with recorded_lengths() as lengths:
        signs = _twisted_signs(*inputs, kept)
    assert list(signs) == kept_exact_signs(inputs, 40, mode)
    assert lengths == ([1, kept[-1]] if falls_back else [1])


@pytest.mark.parametrize("a_t, trace, chi1_p, p, k, falls_back", [
    (1, 0, 0, 3, 2, True),  # b_nu = 0 at every odd nu: a zero is never certified
    (1, 6, 1, 2, 2, True),  # violated: trace^2 = 36 > 4 * 2^3
    (-3, Fraction(1, 2), 1, 3, 2, False),  # strict, no zero: every term certified
])
def test_uncertified_terms_fall_back_to_the_exact_recurrence(a_t, trace, chi1_p, p, k, falls_back):
    assert_falls_back((a_t, trace, chi1_p, p, k), "full", falls_back)


@pytest.mark.parametrize("a_t, trace, chi1_p, p, k, mode, falls_back", [
    # trace 0: theta = pi/2 and psi = 2 pi/3, so psi + nu theta is never a
    # multiple of pi and every mode is certified, even where n theta = pi
    (1, 0, 1, 3, 2, "full", False),
    (1, 0, 1, 3, 2, "even", False),
    (1, 0, 0, 3, 2, "odd", True),  # trace 0, chi1_p = 0 and d odd: b_d = b_1 = 0
    (1, 6, 1, 2, 2, "even", True),  # violated: V_2^2 > 4 N^2 as well
    (-3, Fraction(1, 2), 1, 3, 2, "odd", False),
    (-3, Fraction(1, 2), 1, 3, 2, "even", False),
])
def test_n_step_walks_fall_back_exactly_when_they_cannot_certify(
    a_t, trace, chi1_p, p, k, mode, falls_back
):
    assert_falls_back((a_t, trace, chi1_p, p, k), mode, falls_back)


def test_flagship_scan_runs_the_exact_recurrence_to_two_terms_only(flagship):
    # the seed runs to index 1, for b_0 and b_1, and never on to M
    for mode, primes in (("full", 24), ("odd", 24), ("even", 24), ((5, 2), 13), ((31, 30), 14),
                         ((97, 5), 11)):
        with recorded_lengths() as lengths:
            reports = scan(flagship, 1, mode, 97, 1250)
        assert len(reports) == primes
        assert lengths == [1] * primes


def test_exact_zeros_at_rational_angles_fall_back():
    # theta = pi/4 (p = 2, trace 2^k) or pi/6 (p = 3, trace 3^k), and
    # chi1_p = 0 makes psi = theta: b_nu = 0 whenever (nu + 1) theta is a
    # multiple of pi, where y_nu is only within E of a multiple of 2^G.  Those
    # nu are odd, so the even indices alone are certified.
    for p, k in ((2, 2), (2, 7), (3, 2), (3, 6)):
        for trace in (p**k, -(p**k)):
            inputs = (1, trace, 0, p, k)
            for mode in ("full", "odd", "even"):
                zeros = 0 in kept_exact_signs(inputs, 40, mode)
                assert zeros == (mode != "even")
                assert_falls_back(inputs, mode, zeros)


@contextlib.contextmanager
def floor_sum_lengths():
    """The n of every _floor_sum call that _twisted_signs makes inside the block."""
    lengths = []

    def floor_sum(n, *args):
        lengths.append(n)
        return _floor_sum(n, *args)

    with mock.patch.object(signscan, "_floor_sum", floor_sum):
        yield lengths


def test_one_pair_of_floor_sums_decides_every_kept_term():
    # trace 10 against 2 sqrt(3^3) = 10.39: theta is about 0.28, so the signs
    # come in runs of about 11 and every term is certified, 2^16 + 1 of them
    # by one pair of calls too
    inputs = (1, 10, 1, 3, 2)
    for length in (1, 41, 2**16 + 1):
        with floor_sum_lengths() as calls, recorded_lengths() as lengths:
            signs = _twisted_signs(*inputs, range(length))
        assert calls == [length, length]
        assert lengths == [1]  # no exact fallback
        assert len(signs) == length
        if length <= 41:
            assert list(signs) == exact_signs(*inputs, length - 1)
    # theta = psi = pi/4 (trace 2^2 against 2 sqrt(2^3), chi1_p = 0), so b_nu
    # is a multiple of sin((nu + 1) pi/4): b_3 = 0 is the one term that
    # cannot be certified, and the whole prime falls back to the exact row
    inputs = (1, 4, 0, 2, 2)
    with floor_sum_lengths() as calls, recorded_lengths() as lengths:
        signs = _twisted_signs(*inputs, range(4))
    assert calls == [4, 4]
    assert lengths == [1, 3]
    assert signs == exact_signs(*inputs, 3) == [1, 1, 1, 0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 10**6), st.integers(0, 10**9), st.integers(0, 10**9))
@example(0, 1, 0, 0)
@example(5, 2**64, 2**64 - 1, 2**65 + 3)
def test_floor_sum_matches_the_sum_of_floors(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * j + b) // m for j in range(n))


# trace edge / 10^12 against 2 sqrt(97^11): theta is about 3e-12, psi is
# within 1e-11 of 0 as well, and the negated trace puts both near pi
_NEAR_ZERO = Fraction(isqrt(4 * 97**11 * 10**24), 10**12)


@settings(max_examples=150, deadline=None)
@given(twisted_inputs(strict=True), st.integers(16, 160))
@example((3, _NEAR_ZERO, 1, 97, 6), 58)
@example((3, -_NEAR_ZERO, 1, 97, 6), 58)
@example((-2, _NEAR_ZERO, -1, 97, 6), 16)
@example((-2, -_NEAR_ZERO, 0, 97, 6), 160)
def test_phases_are_within_eps_of_the_angles(inputs, G):
    # cos(theta) = trace / (2 p^(k - 1/2)) and
    # R cos(psi) = cos(theta) - chi1_p p^(-1/2), R sin(psi) = sin(theta), at 3G
    # bits, with the differences formed in exact integers first
    mpmath = pytest.importorskip("mpmath")
    a_t, trace, chi1_p, p, k = inputs
    norm = p ** (2 * k - 1)
    b0, b1 = twisted_sequence(a_t, trace, chi1_p, p, k, 1)
    theta_g, psi_g = _phases(b0, b1, trace, norm, G)
    u, v = exact(trace).numerator, exact(trace).denominator
    with mpmath.workprec(3 * G):
        scale = 2 * v * mpmath.sqrt(norm)
        sin = mpmath.sqrt(4 * norm * v * v - u * u) / scale
        theta = mpmath.atan2(sin, u / scale)
        psi = mpmath.atan2(sin, (u - 2 * v * chi1_p * p ** (k - 1)) / scale)
        assert abs(theta_g - theta * 2**G / mpmath.pi) <= 2
        assert abs(psi_g - psi * 2**G / mpmath.pi) <= 2
        if abs(trace) == _NEAR_ZERO:
            assert min(theta, mpmath.pi - theta) < 1e-11 and min(psi, mpmath.pi - psi) < 1e-11


@pytest.mark.parametrize("chi1_p", [-1, 0, 1])
@pytest.mark.parametrize("trace", [_NEAR_ZERO, -_NEAR_ZERO])
def test_angles_near_0_and_pi_are_certified(trace, chi1_p):
    for mode in ("full", "odd", "even"):
        assert_falls_back((3, trace, chi1_p, 97, 6), mode, False)


# (mode, p): length, change count and first change index of the flagship
# fixture's scan at t = 1 and nu <= 10^15
_NU_15_ROWS = {
    ("full", 97): (10**15 + 1, 353_746_891_203_693, 2),
    ("odd", 97): (5 * 10**14, 353_746_891_203_693, 1),
    ("even", 97): (5 * 10**14 + 1, 353_746_891_203_693, 1),
    ((997, 996), 97): (6_024_096_385_542, 4_349_300_842_247, 1),
    ((31, 30), 89): (10**14, 23_765_455_254_143, 3),
}


@pytest.fixture()
def no_exact_row():
    """Makes any run of the exact recurrence past index 1 fail at once: at
    nu = 10^15 a fallback would never finish."""
    run = signscan._scaled_twisted

    def guarded(*args):
        assert args[-1] <= 1, f"exact recurrence run to M = {args[-1]}"
        return run(*args)

    with mock.patch.object(signscan, "_scaled_twisted", guarded):
        yield


def _mode_id(value):
    return f"q{value[0]}h{value[1]}" if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("mode, p", list(_NU_15_ROWS), ids=_mode_id)
def test_scan_counts_at_nu_10_15(flagship, no_exact_row, mode, p):
    reports = scan(flagship, 1, mode, 97, 10**15)
    assert reports.exact == ()
    (report,) = [r for r in reports if r.p == p]
    row = (report.length, report.change_count, report.first_change_index, report.zero_count)
    assert row == (*_NU_15_ROWS[mode, p], 0)


@pytest.mark.parametrize("mode, p", [("full", 97), ((31, 30), 89)], ids=_mode_id)
def test_nu_10_15_rows_equal_the_floor_formula_at_80_digits(flagship, mode, p):
    # |floor((x_0 + (L - 1) phi)/pi) - floor(x_0/pi)| with x_0 = d theta + psi
    # and phi = n theta reduced into (-pi, pi], and the first mu at which
    # floor((x_0 + mu phi)/pi) moves
    mpmath = pytest.importorskip("mpmath")
    selector = ProgressionSpec.create(*mode, p) if isinstance(mode, tuple) else mode
    kept = subsequence(range(10**15 + 1), selector)
    trace = exact(extract_trace(flagship, 1, p))
    c1 = chi1(p, 1, flagship.k, flagship.level)
    with mpmath.workdps(80):
        pi = mpmath.pi
        cos = trace.numerator / (2 * trace.denominator * mpmath.sqrt(p) ** (2 * flagship.k - 1))
        theta = mpmath.acos(cos)
        psi = mpmath.atan2(mpmath.sin(theta), cos - c1 / mpmath.sqrt(p))
        x0 = kept.start * theta + psi
        phi = kept.step * theta
        phi -= 2 * pi * mpmath.ceil((phi - pi) / (2 * pi))
        start = mpmath.floor(x0 / pi)
        count = abs(mpmath.floor((x0 + (len(kept) - 1) * phi) / pi) - start)
        if phi > 0:
            first = mpmath.ceil(((start + 1) * pi - x0) / phi)
        else:
            first = mpmath.floor((x0 - start * pi) / -phi) + 1
        expected = (len(kept), int(count), int(first))
    assert expected == _NU_15_ROWS[mode, p]


def test_scan_names_the_primes_read_off_the_exact_recurrence(flagship):
    certified = scan(flagship, 1, "full", 13, 40)
    assert certified.exact == ()
    with mock.patch.object(signscan, "_phases", lambda *args: None):
        exact_rows = scan(flagship, 1, "full", 13, 40)
    assert exact_rows.exact == (3, 5, 7, 11, 13)
    assert exact_rows == certified
