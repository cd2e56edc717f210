import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfsign.arith import multiplicative_order, primes_up_to
from halfsign.characters import (
    CharacterTable,
    ProgressionSpec,
    index_of,
    order_of,
    progression_extract,
)
from halfsign.errors import NotInSubgroup, OutOfRange, SamePrime
from naive_oracle import character_sum_extract, naive_progression


def test_order_of_examples():
    assert order_of(2, 3) == 2
    assert order_of(2, 7) == 3
    assert order_of(3, 7) == 6
    with pytest.raises(SamePrime):
        order_of(5, 5)


def test_index_of_examples():
    assert index_of(3, 2, 7) == 2
    with pytest.raises(NotInSubgroup):
        index_of(2, 3, 7)
    with pytest.raises(OutOfRange):
        index_of(3, 1, 7)
    with pytest.raises(OutOfRange):
        index_of(3, 7, 7)


def test_index_roundtrip():
    from halfsign.arith import primes_up_to

    for q in (3, 5, 7, 11, 13):
        for p in primes_up_to(30):
            if p == q:
                continue
            n = order_of(p, q)
            for h in range(2, q):
                try:
                    d = index_of(p, h, q)
                except NotInSubgroup:
                    continue
                assert 0 <= d < n
                assert pow(p, d, q) == h


def test_progression_spec_validation():
    spec = ProgressionSpec.create(7, 2, 3)
    assert (spec.n, spec.d) == (6, 2)
    assert ProgressionSpec(q=7, h=2, p=3) == spec
    # n and d are derived, never supplied
    with pytest.raises(TypeError):
        ProgressionSpec(q=7, h=2, p=3, n=3, d=2)
    with pytest.raises(TypeError):
        ProgressionSpec(q=7, h=2, p=3, d=1)
    with pytest.raises(NotInSubgroup):
        ProgressionSpec(q=7, h=3, p=2)


def test_progression_spec_computes_the_order_once(monkeypatch):
    from halfsign import characters

    calls = []

    def counted(p, q):
        calls.append((p, q))
        return multiplicative_order(p, q)

    monkeypatch.setattr(characters, "multiplicative_order", counted)
    for q, h, p in ((7, 2, 3), (31, 30, 37), (23, 5, 97)):
        calls.clear()
        ProgressionSpec.create(q, h, p)
        assert calls == [(p, q)]
    calls.clear()
    with pytest.raises(NotInSubgroup):
        ProgressionSpec.create(7, 3, 2)
    assert calls == [(2, 7)]


def test_character_table_smallest_generator():
    assert CharacterTable.build(7).generator == 3
    assert CharacterTable.build(11).generator == 2
    assert CharacterTable.build(5).generator == 2


def test_character_table_trivial_character():
    table = CharacterTable.build(13)
    assert all(table.value_exponent(0, a) == 0 for a in range(1, 13))


def test_extract_three_routes_small():
    seq = [Fraction(i) for i in range(1, 8)]
    spec = ProgressionSpec.create(3, 2, 5)  # n = 2, d = 1
    assert (spec.n, spec.d) == (2, 1)
    direct = progression_extract(seq, spec)
    assert direct == [2, 4, 6]
    floats = character_sum_extract(seq, spec)
    assert len(floats) == len(direct)
    for got, want in zip(floats, direct):
        assert abs(got - float(want)) <= 1e-9


def test_extract_routes_agree_random():
    rng = random.Random(555)
    specs = [
        ProgressionSpec.create(3, 2, 5),
        ProgressionSpec.create(5, 2, 3),
        ProgressionSpec.create(5, 3, 3),
        ProgressionSpec.create(7, 3, 3),
        ProgressionSpec.create(11, 4, 5),
        ProgressionSpec.create(13, 9, 3),
    ]
    for spec in specs:
        length = spec.d + spec.n * 25
        seq = [Fraction(rng.randint(-500, 500), rng.randint(1, 9)) for _ in range(length)]
        direct = progression_extract(seq, spec)
        assert direct == naive_progression(seq, spec.q, spec.h, spec.p)
        floats = character_sum_extract(seq, spec)
        assert len(floats) == len(direct)
        for got, want in zip(floats, direct):
            assert abs(got - float(want)) <= 1e-9


@st.composite
def progression_cases(draw):
    """A prime q <= 31, an admissible prime p != q and residue h in <p>,
    and a sequence of length 0..d + 3n."""
    q = draw(st.sampled_from([q for q in primes_up_to(31) if q > 2]))
    p = draw(st.sampled_from(
        [p for p in primes_up_to(113) if p != q and p % q != 1]))
    powers = {pow(p, e, q) for e in range(q - 1)} - {1}
    h = draw(st.sampled_from(sorted(powers)))
    spec = ProgressionSpec.create(q, h, p)
    length = draw(st.integers(0, spec.d + 3 * spec.n))
    entry = st.one_of(st.integers(-999, 999), st.fractions(-999, 999, max_denominator=9))
    return spec, draw(st.lists(entry, min_size=length, max_size=length))


@settings(max_examples=200, deadline=None)
@given(progression_cases())
@example((ProgressionSpec.create(31, 30, 3), []))
@example((ProgressionSpec.create(31, 30, 3), [1] * 15))  # d = 15: one short
@example((ProgressionSpec.create(31, 30, 3), [1] * 16))
def test_extract_matches_its_definition(case):
    spec, seq = case
    expected = naive_progression(seq, spec.q, spec.h, spec.p)
    assert progression_extract(seq, spec) == expected
    if len(seq) <= spec.d:
        assert expected == []
    floats = character_sum_extract(seq, spec)
    assert len(floats) == len(expected)
    for got, want in zip(floats, expected):
        assert abs(got - float(want)) <= 1e-9
