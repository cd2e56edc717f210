import json
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfsign.data
from halfsign import forms
from halfsign.arith import is_prime, is_squarefree, squarefree_decompose
from halfsign.flagship import FIXTURE_NAME, load_fixture
from halfsign.errors import (
    BadCharacter,
    HalfsignError,
    InvalidLevel,
    NonCuspidal,
    NotSquarefree,
    ParseError,
    PrecisionExceeded,
)
from halfsign.forms import (
    HalfIntegralForm,
    RealCharacter,
    coefficient,
    form_to_dict,
    format_rational,
    load_form,
    load_series,
    parse_rational,
    save_form,
)
from halfsign.qseries import TruncatedSeries
from naive_oracle import (
    kronecker_bottom_two,
    legendre_euler,
    naive_is_multiplicative,
    naive_read_coefficients,
)


def test_squarefree_decompose_examples():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(72) == (2, 6)
    assert squarefree_decompose(45) == (5, 3)


def test_squarefree_decompose_roundtrip():
    squarefree = [t for t in range(1, 101) if is_squarefree(t)]
    for t in squarefree:
        for m in range(1, 31):
            assert squarefree_decompose(t * m * m) == (t, m)


def _write_form(tmp_path, **overrides):
    payload = {
        "level": 4,
        "k": 2,
        "character": "trivial",
        "prec": 6,
        "coeffs": ["0", "1", "2", "-3", "1/2", "0", "7"],
    }
    payload.update(overrides)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_form_valid(tmp_path):
    form = load_form(_write_form(tmp_path))
    assert form.prec == 6
    assert form.series.coefficient(4) == Fraction(1, 2)
    assert form.chi(3) == 1 and form.chi(2) == 0


def test_load_form_invalid_level(tmp_path):
    with pytest.raises(InvalidLevel):
        load_form(_write_form(tmp_path, level=5))


def test_load_form_malformed_rational(tmp_path):
    with pytest.raises(ParseError):
        load_form(_write_form(tmp_path, coeffs=["0", "3/", "0", "0", "0", "0", "0"]))


def test_load_form_noncuspidal(tmp_path):
    with pytest.raises(NonCuspidal):
        load_form(_write_form(tmp_path, coeffs=["1", "1", "0", "0", "0", "0", "0"]))


def test_load_form_bad_character(tmp_path):
    # wrong value set
    with pytest.raises(BadCharacter):
        load_form(_write_form(tmp_path, character={"1": 1, "3": 2}))
    # non-multiplicative table mod 8: chi(3)chi(5) != chi(15 mod 8 = 7)
    with pytest.raises(BadCharacter):
        load_form(
            _write_form(
                tmp_path,
                level=8,
                character={"1": 1, "3": -1, "5": -1, "7": -1},
                prec=6,
            )
        )
    # incomplete table
    with pytest.raises(BadCharacter):
        load_form(_write_form(tmp_path, character={"1": 1}))


@pytest.mark.parametrize("key", [" 3", "3 ", "+3", "03", "0_3", "３"])
def test_load_form_rejects_non_canonical_character_keys(tmp_path, key):
    # the table is the genuine character mod 8 with chi(3) = -1; only the
    # spelling of the residue 3 is off
    assert load_form(_write_form(
        tmp_path, level=8, character={"1": 1, "3": -1, "5": 1, "7": -1})).chi(3) == -1
    with pytest.raises(BadCharacter, match="residue"):
        load_form(_write_form(
            tmp_path, level=8, character={"1": 1, key: -1, "5": 1, "7": -1}))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("level", 4.9, ParseError),
        ("level", 4.0, ParseError),
        ("level", True, ParseError),
        ("k", 6.7, ParseError),
        ("k", 2.0, ParseError),
        ("prec", 6.5, ParseError),
        ("prec", 6.0, ParseError),
        ("character", {"1": 1.0, "3": -1}, BadCharacter),
        ("character", {"1": 1, "3": -1.0}, BadCharacter),
        ("character", {"1": True, "3": -1}, BadCharacter),
    ],
)
def test_load_form_rejects_float_and_bool_integers(tmp_path, field, value, error):
    with pytest.raises(error):
        load_form(_write_form(tmp_path, **{field: value}))


@pytest.mark.parametrize(
    "raw",
    [
        b'{"level": 4' + b"0" * 5000 + b', "k": 2, "prec": 0, "coeffs": ["0"]}',
        b'{"level": 4, "k": 2, "prec": 0, "coeffs": ["\xff"]}',
    ],
    ids=["integer-over-digit-limit", "not-utf-8"],
)
def test_load_form_raises_parse_error_on_undecodable_files(tmp_path, raw):
    path = tmp_path / "form.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError):
        load_form(path)


@st.composite
def unit_tables(draw):
    """(N, table) with N <= 60 and a +-1 table on the units mod N: random, a
    real character (a product of Legendre symbols mod odd primes q | N,
    chi_-4 when 4 | N and chi_8 when 8 | N), or a real character with one
    value flipped."""
    modulus = draw(st.integers(1, 60))
    units = [a for a in range(modulus) if gcd(a, modulus) == 1]
    kind = draw(st.sampled_from(("random", "character", "flipped")))
    if kind == "random":
        return modulus, {a: draw(st.sampled_from((1, -1))) for a in units}, kind
    odd_primes = [q for q in range(3, modulus + 1, 2) if modulus % q == 0 and is_prime(q)]
    factors = [lambda a, q=q: legendre_euler(a, q) for q in odd_primes]
    if modulus % 4 == 0:
        factors.append(lambda a: 1 if a % 4 == 1 else -1)
    if modulus % 8 == 0:
        factors.append(kronecker_bottom_two)
    chosen = [f for f in factors if draw(st.booleans())]
    table = {}
    for a in units:
        table[a] = 1
        for f in chosen:
            table[a] *= f(a)
    if kind == "flipped":
        a = draw(st.sampled_from(units))
        table[a] = -table[a]
    return modulus, table, kind


@given(unit_tables())
@example((2, {1: -1}, "random"))  # only b = 1 forces chi(1) = 1 in a trivial unit group
def test_character_check_accepts_exactly_the_multiplicative_tables(case):
    modulus, table, kind = case
    try:
        RealCharacter(modulus, table)
        accepted = True
    except BadCharacter as exc:
        assert "is not multiplicative at (" in str(exc)
        accepted = False
    assert accepted == naive_is_multiplicative(modulus, table)
    assert accepted or kind != "character"


@pytest.mark.parametrize("modulus", [0, -4])
@pytest.mark.parametrize("table", [{}, None], ids=["table", "trivial"])
def test_character_rejects_a_modulus_below_one(modulus, table):
    with pytest.raises(BadCharacter, match="positive"):
        RealCharacter(modulus, table)


def test_quadratic_character_mod_4():
    chi = RealCharacter(4, {1: 1, 3: -1})
    assert chi(3) == -1 and chi(5) == 1 and chi(6) == 0


def test_equal_characters_and_forms_hash_equal():
    trivial, ones = RealCharacter.trivial(8), RealCharacter(8, {1: 1, 3: 1, 5: 1, 7: 1})
    quadratic = RealCharacter(8, {1: 1, 3: -1, 5: -1, 7: 1})
    assert trivial == ones and hash(trivial) == hash(ones)
    assert quadratic == RealCharacter(8, dict(quadratic.table)) != trivial
    assert hash(quadratic) == hash(RealCharacter(8, {7: 1, 5: -1, 3: -1, 1: 1}))
    series = TruncatedSeries.from_coeffs([0, 1, 0, -2])
    form, twin = (HalfIntegralForm(8, 3, chi, series) for chi in (trivial, ones))
    assert form == twin and hash(form) == hash(twin)
    assert len({form, twin, HalfIntegralForm(8, 3, quadratic, series)}) == 2


# each case breaks its own condition and every later one, so the first
# failing check decides the error
@pytest.mark.parametrize(
    "level, k, modulus, error, message",
    [
        (6, 1, 8, InvalidLevel, "divisible by 4"),
        (4, 1, 8, ValueError, "k must be at least 2"),
        (4, 3, 8, BadCharacter, "character modulus 8 != level 4"),
        (4, 3, 4, NonCuspidal, "constant coefficient"),
    ],
    ids=["level", "k", "character-modulus", "cusp"],
)
def test_form_validation(level, k, modulus, error, message):
    series = TruncatedSeries.from_coeffs([1, 1, 0])
    with pytest.raises(error, match=message):
        HalfIntegralForm(level, k, RealCharacter.trivial(modulus), series)


def test_coefficient_accessor(flagship):
    assert coefficient(flagship, 1, 1) == 1
    with pytest.raises(PrecisionExceeded):
        coefficient(flagship, 1, 101)  # 101^2 > 10^4
    with pytest.raises(NotSquarefree):
        coefficient(flagship, 12, 1)


def test_coefficient_matches_raw_series(flagship):
    for n in range(1, flagship.prec + 1):
        t, m = squarefree_decompose(n)
        assert coefficient(flagship, t, m) == flagship.series.coeffs[n]


def test_rational_serialization_roundtrip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(10**30, 7)):
        assert parse_rational(format_rational(x)) == x
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("3/0")


# Arabic-Indic 12, fullwidth 12/3, and 12 with a final newline: int() reads
# each of them, but none is an ASCII literal
_NON_ASCII_OR_TRAILING = ["\u0661\u0662", "\uff11\uff12/\uff13", "12\n"]


@pytest.mark.parametrize("literal", _NON_ASCII_OR_TRAILING,
                         ids=["arabic-indic", "fullwidth", "newline"])
def test_only_ascii_digits_in_full_are_a_literal(tmp_path, literal):
    with pytest.raises(ParseError, match="malformed rational literal"):
        parse_rational(literal)
    for load in (load_form, load_series):
        with pytest.raises(ParseError, match="malformed rational literal"):
            load(_write_form(tmp_path, coeffs=["0", literal, "0", "0", "0", "0", "0"]))


def test_save_load_roundtrip(tmp_path):
    chi = RealCharacter(4, {1: 1, 3: -1})
    series = TruncatedSeries.from_coeffs([0, 1, Fraction(-5, 3), 2, 0])
    form = HalfIntegralForm(4, 3, chi, series)
    path = tmp_path / "roundtrip.json"
    save_form(form, path)
    loaded = load_form(path)
    assert loaded.series == form.series
    assert loaded.level == 4 and loaded.k == 3
    assert loaded.chi(3) == -1


def test_save_form_writes_the_report_writer_bytes(tmp_path):
    # keys "1" < "11" < "5" < "7" as strings, against 1 < 5 < 7 < 11 as residues
    chi = RealCharacter(12, {1: 1, 5: 1, 7: -1, 11: -1})
    form = HalfIntegralForm(12, 3, chi, TruncatedSeries.from_coeffs([0, 1, Fraction(-5, 3), 2, 0]))
    path = tmp_path / "form.json"
    save_form(form, path)
    text = forms._json(form_to_dict(form))
    assert path.read_bytes() == text.encode("utf-8")
    assert text == json.dumps(form_to_dict(form), indent=1, sort_keys=True) + "\n"


def test_load_fixture_reads_the_fixture_in_the_source_tree():
    path = Path(__file__).resolve().parents[1] / "src" / "halfsign" / "data" / FIXTURE_NAME
    assert load_fixture() == load_form(path)


@pytest.mark.parametrize("literal", ["7" * 5000, "1/" + "7" * 5000],
                         ids=["numerator", "denominator"])
@pytest.mark.parametrize("load", [load_form, load_series])
def test_literal_over_the_digit_limit_is_a_parse_error(tmp_path, load, literal):
    path = _write_form(tmp_path, coeffs=["0", literal, "0", "0", "0", "0", "0"])
    with pytest.raises(ParseError, match="integer literal of 5000 digits") as info:
        load(path)
    assert "7" * 50 not in str(info.value)  # the count, not the literal


@pytest.mark.parametrize("prec", [0, -1])
@pytest.mark.parametrize("load", [load_form, load_series])
def test_prec_below_one_is_a_parse_error(tmp_path, load, prec):
    path = _write_form(tmp_path, prec=prec, coeffs=["0"] * (prec + 1))
    with pytest.raises(ParseError, match=f"prec must be at least 1, got {prec}"):
        load(path)


def test_load_series_is_lenient(tmp_path):
    path = tmp_path / "integral.json"
    path.write_text(
        json.dumps({"level": 1, "k": 12, "prec": 3, "coeffs": ["0", "1", "-24", "252"]}),
        encoding="utf-8",
    )
    series = load_series(path)
    assert series.coefficient(3) == 252


def _fixture_head(prec: int) -> dict:
    """The vendored flagship fixture, cut to its first prec + 1 coefficients."""
    data = json.loads(Path(halfsign.data.__file__).with_name(FIXTURE_NAME).read_text("utf-8"))
    return {**data, "prec": prec, "coeffs": data["coeffs"][: prec + 1]}


FIXTURE_HEAD = _fixture_head(40)
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=3),
)
_bad_rationals = st.sampled_from(("1/0", "3/", "x", "", "1.5", " 2", "--1", "1/-2", "0x10", 7, 1.5, None))


@st.composite
def mutated_fixtures(draw):
    """The fixture head with one to three defects: a dropped key, a value of
    the wrong type, an integer header turned into a float, a bad rational
    literal, or a drawn character table."""
    data = {**FIXTURE_HEAD, "coeffs": list(FIXTURE_HEAD["coeffs"])}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(FIXTURE_HEAD)))
        defect = draw(st.sampled_from(("drop", "junk", "float", "rational", "table")))
        if defect == "drop":
            data.pop(key, None)
        elif defect == "junk":
            data[key] = draw(_junk)
        elif defect == "float" and type(data.get(key)) is int:
            data[key] += draw(st.sampled_from((0.0, 0.5, 0.9, -0.1)))
        elif defect == "rational" and isinstance(data.get("coeffs"), list) and data["coeffs"]:
            data["coeffs"][draw(st.integers(0, len(data["coeffs"]) - 1))] = draw(_bad_rationals)
        elif defect == "table":
            level = draw(st.sampled_from((4, 8, 12, 20)))
            data["level"] = level
            units = [a for a in range(level) if gcd(a, level) == 1]
            data["character"] = {str(a): draw(st.sampled_from((1, -1, 1, -1, 0, 2, "1", 1.0, -1.0, True))) for a in units}
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "form.json"


@settings(max_examples=150, deadline=None)
@given(mutated_fixtures())
@example({**FIXTURE_HEAD, "prec": float("inf")})  # int(inf) raises OverflowError
@example({**FIXTURE_HEAD, "k": float("-inf")})
@example({**FIXTURE_HEAD, "character": {"1": float("inf"), "3": 1}})
@example({**FIXTURE_HEAD, "level": 4 * 10**30})  # no unit of a huge level is ever listed
@example({**FIXTURE_HEAD, "level": 4 * 10**30, "character": {"1": 1, "3": -1}})
@example({"level": 0, "k": 6, "character": {}, "prec": 2, "coeffs": ["0", "1", "0"]})  # 1 % 0
def test_load_form_raises_only_halfsign_errors_on_mutated_fixtures(fuzz_path, data):
    fuzz_path.write_text(json.dumps(data), encoding="utf-8")
    try:
        form = load_form(fuzz_path)
    except HalfsignError:
        return
    # what loads was read exactly: integer fields and table values are JSON ints
    assert all(type(data[key]) is int for key in ("level", "k", "prec"))
    assert (form.level, form.k, form.prec) == (data["level"], data["k"], data["prec"])
    if isinstance(data.get("character"), dict):
        assert all(type(v) is int for v in data["character"].values())


# Coefficient literals: canonical integers, the other spellings parse_rational
# accepts ("+5", "007", "-0"), ones it rejects (among them "5\n" and
# Arabic-Indic "٣", which int() reads), and non-str entries.
_literals = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(("+5", "007", "-0", "5\n", " 5", "1_0", "٣", "3/4", "1/0", "+-5", "1,2", "")),
    st.sampled_from((5, None, 1.5, ["1"])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_literals, min_size=1, max_size=8))
@example(["0", "1", "-24", "252"])
@example(["0", "٣"])  # int() reads it, but it is not an ASCII literal
@example(["0", "+-5"])  # only [0-9+-] characters, yet not a literal
@example(["0", "1,2"])  # the bulk JSON read finds one value too many
@example(["0", "007", "5"])  # JSON rejects the leading zeros, int() reads them
@example(["0", "-0"])
@example(["0", "1", "7" * 4301, "-2"])  # over the digit limit of int() and of JSON
def test_coefficient_file_reading_matches_the_per_entry_oracle(fuzz_path, entries):
    fuzz_path.write_text(json.dumps({"prec": len(entries) - 1, "coeffs": entries}), encoding="utf-8")

    def outcome(read):
        try:
            return read()
        except Exception as exc:  # the same error, down to its message
            return type(exc), str(exc)

    expected = outcome(lambda: naive_read_coefficients(entries))
    with mock.patch.object(forms, "parse_rational", wraps=forms.parse_rational) as per_entry:
        assert outcome(lambda: forms._read_coefficient_file(fuzz_path)[1]) == expected
    # a file of canonical ASCII integer literals (JSON's) within the digit
    # limit is read in bulk, anything else entry by entry; a single entry
    # means prec 0, rejected before any is read
    limit = sys.get_int_max_str_digits() or float("inf")  # 0 is no limit
    plain = all(isinstance(c, str) and re.fullmatch(r"-?(0|[1-9][0-9]*)", c)
                and len(c.lstrip("-")) <= limit for c in entries)
    assert per_entry.called == (not plain and len(entries) > 1)
