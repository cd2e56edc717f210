"""The immutable record base `errors._Record`, checked on each of the
package's 13 record types: construction, equality and hash, immutability,
repr, replace, and copying."""

import copy
import pickle
from fractions import Fraction

import pytest

from halfsign.characters import CharacterTable, ProgressionSpec, index_of, order_of
from halfsign.errors import NonCuspidal, NotInSubgroup
from halfsign.forms import HalfIntegralForm, RealCharacter
from halfsign.genfun import Polynomial, RationalGF
from halfsign.hecke import ConsistencyReport, HeckeLocalData
from halfsign.qseries import EtaRecipe, TruncatedSeries
from halfsign.shimura import CrosscheckReport
from halfsign.signscan import SignChangeCount, SignChangeReport, _PhaseSigns

SERIES = TruncatedSeries(3, (0, 1, -24, 252))
COUNT = {"length": 10, "change_count": 2, "first_change_index": 3, "zero_count": 1}

# (type, the fields of one record by keyword, one field changed to another valid value)
RECORDS = [
    (TruncatedSeries, {"prec": 3, "coeffs": (0, 1, -24, 252)}, {"coeffs": (0, 1, 24, 252)}),
    (EtaRecipe, {"factors": ((2, 12),), "theta_power": 1}, {"theta_power": 3}),
    (HalfIntegralForm, {"level": 4, "k": 6, "chi": RealCharacter.trivial(4), "series": SERIES},
     {"chi": RealCharacter(4, {1: 1, 3: -1})}),
    (HeckeLocalData, {"p": 3, "trace": Fraction(1, 2), "norm": 3**11}, {"trace": 0}),
    (ConsistencyReport, {"p": 3, "residuals": {(1, 0): 0}, "skipped": ((1, 2),)}, {"skipped": ()}),
    (CrosscheckReport, {"t": 1, "compared": (3, 5), "mismatches": (), "skipped": (7,)},
     {"mismatches": (5,)}),
    (_PhaseSigns, {"y": 5, "step": -3, "n": 4, "G": 8, "sign": 1}, {"sign": -1}),
    (SignChangeCount, COUNT, {"zero_count": 0}),
    (SignChangeReport, {**COUNT, "p": 3, "t": 1, "mode": "full", "deligne": "strict"},
     {"mode": "odd"}),
    (ProgressionSpec, {"q": 5, "h": 2, "p": 3}, {"h": 4}),
    (CharacterTable, {"q": 5, "generator": 2, "log": {1: 0, 2: 1, 4: 2, 3: 3}}, {"generator": 3}),
    (Polynomial, {"coeffs": (1, 2)}, {"coeffs": (1, 3)}),
    (RationalGF, {"num": Polynomial((1,)), "den": Polynomial((1, -1))}, {"num": Polynomial((2,))}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
UNHASHABLE = (ConsistencyReport, CharacterTable)  # a dict field, as with frozen dataclasses


def test_every_record_type_is_listed():
    assert len({cls for cls, _, _ in RECORDS}) == 13


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_alike(cls, fields, changes):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    same, other = cls(*fields.values()), cls(**{**fields, **changes})
    assert record == same and not record != same
    assert record != other and not record == other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_a_record_never_equals_a_plain_tuple(cls, fields, changes):
    record, plain = cls(**fields), tuple(fields.values())
    assert record != plain and plain != record
    assert not record == plain and not plain == record


def test_equal_values_of_another_record_type_are_unequal():
    class Count(SignChangeCount):
        """The same fields under another type."""

    count, same_fields = SignChangeCount(**COUNT), Count(**COUNT)
    report = SignChangeReport(*count, 3, 1, "full", "strict")
    assert (report.length, report.change_count, report.first_change_index, report.zero_count) == (
        10, 2, 3, 1)
    assert isinstance(report, SignChangeCount) and report != count and count != report
    assert same_fields._fields == count._fields and same_fields != count and count != same_fields


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, changes):
    record = cls(**fields)
    for name, value in changes.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, changes):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == repr(cls(*fields.values())) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_a_missing_or_unexpected_argument_is_a_type_error(cls, fields, changes):
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError):
        cls(**fields, unexpected=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_replace_changes_the_given_fields(cls, fields, changes):
    record = cls(**fields)
    assert record.replace() == record
    assert record.replace(**changes) == cls(**{**fields, **changes})
    with pytest.raises(TypeError):
        record.replace(unexpected=1)


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, fields, changes):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_a_record_is_neither_concatenated_nor_repeated(cls, fields, changes):
    # tuple's + and * would return a plain tuple; Polynomial has its own + and *
    record = cls(**fields)
    combinations = [lambda: 2 * record]
    if cls is not Polynomial:
        combinations += [lambda: record + record, lambda: record * 2]
    for combine in combinations:
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()


def test_replace_checks_the_new_record_as_construction_does():
    form = HalfIntegralForm(4, 6, RealCharacter.trivial(4), SERIES)
    with pytest.raises(NonCuspidal):
        form.replace(series=TruncatedSeries(3, (1, 1, -24, 252)))
    with pytest.raises(ValueError, match="need 5 coefficients for prec 4"):
        SERIES.replace(prec=4)
    assert Polynomial((1, 2)).replace(coeffs=(1, 0, 0)) == Polynomial((1,))


def test_progression_spec_derives_n_and_d():
    spec = ProgressionSpec(q=31, h=30, p=3)
    assert (spec.n, spec.d) == (order_of(3, 31), index_of(3, 30, 31)) == (30, 15)
    assert spec == ProgressionSpec.create(q=31, h=30, p=3) == ProgressionSpec(31, 30, 3)
    moved = spec.replace(h=27)
    assert (moved.n, moved.d) == (30, 3)
    with pytest.raises(NotInSubgroup):
        spec.replace(p=5)  # 5 has order 3 mod 31
    with pytest.raises(TypeError):
        spec.replace(n=1)
    with pytest.raises(AttributeError):
        spec.d = 0


def test_eta_recipe_theta_power_defaults_to_zero():
    recipe = EtaRecipe([[2, 12]])
    assert recipe == EtaRecipe(((2, 12),), 0) and recipe.theta_power == 0
    assert recipe.factors == ((2, 12),)
