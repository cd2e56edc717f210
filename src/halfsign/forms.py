"""Half-integral-weight form model, squarefree indexing, and coefficient files.

A form of weight k + 1/2 lives at a level N divisible by 4 and carries a
real character chi (values +-1 on the units mod N, zero elsewhere).  This
module reads and writes the coefficient file format, which is documented in
load_form, and holds the JSON writer every report shares.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .arith import Rational, check_weight, exact, is_squarefree
from .errors import (
    BadCharacter,
    InvalidInput,
    InvalidLevel,
    NonCuspidal,
    NotSquarefree,
    ParseError,
    _Record,
)
from .qseries import TruncatedSeries

__all__ = [
    "RealCharacter",
    "HalfIntegralForm",
    "coefficient",
    "parse_rational",
    "format_rational",
    "load_form",
    "form_to_dict",
    "save_form",
    "load_series",
]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # ASCII digits only, matched in full


def _unit_generators(modulus: int, units: list[int]) -> list[int]:
    """Generators of (Z/modulus)^x by greedy subgroup closure: each one at
    least doubles the subgroup, so there are at most log2 phi(modulus).  The
    trivial group gets [1 % modulus], so the list is never empty."""
    subgroup = {1 % modulus}
    generators = []
    for a in units:
        if a in subgroup:
            continue
        generators.append(a)
        grown, power = set(subgroup), a
        while power not in subgroup:
            grown.update(h * power % modulus for h in subgroup)
            power = power * a % modulus
        subgroup = grown
    return generators or [1 % modulus]


class RealCharacter:
    """Real Dirichlet character mod N: +-1 on units, 0 off the units.

    `table` maps each unit to its value.  The trivial character, given as
    None or as an all-ones table, is stored as None and never lists the
    units, so two characters are equal exactly when their moduli and
    tables are."""

    def __init__(self, modulus: int, table: dict[int, int] | None):
        if modulus < 1:
            raise BadCharacter(f"character modulus must be a positive integer, got {modulus}")
        self.modulus = modulus
        self.table = None  # the trivial character: chi(n) = 1 exactly when gcd(n, N) = 1
        if table is None:
            return
        # a table covering the units has phi(N) entries, so listing stops one
        # unit past its size and costs O(len(table) N/phi(N)), not O(N)
        units = list(itertools.islice(
            (a for a in range(modulus) if math.gcd(a, modulus) == 1), len(table) + 1))
        if sorted(table) != units:
            raise BadCharacter(f"character table must cover exactly the units mod {modulus}")
        if any(v not in (1, -1) for v in table.values()):
            raise BadCharacter("character values must be +1 or -1")
        # chi(g b) = chi(g) chi(b) for generators g and all units b forces
        # chi(1) = 1 (take b = 1) and then multiplicativity on all pairs
        for g in _unit_generators(modulus, units):
            for b in units:
                if table[g * b % modulus] != table[g] * table[b]:
                    raise BadCharacter(f"table is not multiplicative at ({g}, {b}) mod {modulus}")
        if -1 in table.values():
            self.table = dict(table)

    @property
    def is_trivial(self) -> bool:
        return self.table is None

    @classmethod
    def trivial(cls, modulus: int) -> "RealCharacter":
        return cls(modulus, None)

    def __call__(self, n: int) -> int:
        if self.table is None:
            return 1 if math.gcd(n, self.modulus) == 1 else 0
        return self.table.get(n % self.modulus, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RealCharacter):
            return NotImplemented
        return (self.modulus, self.table) == (other.modulus, other.table)

    def __hash__(self) -> int:
        return hash((self.modulus, None if self.table is None else frozenset(self.table.items())))


def _check_level(level: int) -> None:
    """HalfIntegralForm's level condition; callers that build a character mod
    the level check it first, so a level below 1 reads as InvalidLevel."""
    if level < 4 or level % 4 != 0:
        raise InvalidLevel(f"level must be divisible by 4, got {level}")


class HalfIntegralForm(_Record):
    """f in S_(k+1/2)(N, chi): level N (4 | N), integer k >= 2, a real
    character chi mod N, and the coefficients a(n) with a(0) = 0."""

    level: int
    k: int
    chi: RealCharacter
    series: TruncatedSeries

    def __new__(cls, level: int, k: int, chi: RealCharacter, series: TruncatedSeries):
        _check_level(level)
        check_weight(k)
        if chi.modulus != level:
            raise BadCharacter(f"character modulus {chi.modulus} != level {level}")
        if series.coeffs[0] != 0:
            raise NonCuspidal("constant coefficient of a cusp form must be zero")
        return tuple.__new__(cls, (level, k, chi, series))

    @property
    def prec(self) -> int:
        return self.series.prec


def _check_base_index(t: int) -> None:
    if t < 1:
        raise InvalidInput(f"t must be positive, got {t}")
    if not is_squarefree(t):
        raise NotSquarefree(f"t = {t} is not squarefree")


def coefficient(form: HalfIntegralForm, t: int, m: int) -> Rational:
    """a(t * m^2) for squarefree t; exact accessor along the Hecke indexing."""
    _check_base_index(t)
    if m < 1:
        raise InvalidInput(f"m must be positive, got {m}")
    return form.series.coefficient(t * m * m)


# ---------------------------------------------------------------------------
# serialization


def parse_rational(text: str) -> Rational:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational literal {text!r}")
    num, _, den = text.partition("/")
    try:
        value, divisor = int(num), int(den or 1)
    except ValueError as exc:  # what the pattern leaves: CPython's int-string digit limit
        digits = max(len(num.lstrip("+-")), len(den))
        raise ParseError(f"integer literal of {digits} digits is over the digit limit") from exc
    if divisor == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return value if divisor == 1 else exact(Fraction(value, divisor))


def format_rational(x: Rational) -> str:
    """Lossless 'num/den' string, denominator omitted when 1."""
    return str(exact(x))


def _header_int(data: dict, key: str) -> int:
    """The header field data[key], which must be a JSON integer: a float or a
    bool is rejected, not truncated."""
    if key not in data:
        raise ParseError(f"missing header field {key!r}")
    value = data[key]
    if type(value) is not int:
        raise ParseError(f"header field {key!r} must be an integer, got {value!r}")
    return value


def _residue_key(key: str) -> int:
    """The residue a character-table key spells in canonical decimal."""
    try:
        residue = int(key)
    except ValueError:
        residue = None
    if residue is None or str(residue) != key:
        raise BadCharacter(f"character-table keys must be decimal residues, got {key!r}")
    return residue


def _character_from_json(level: int, spec: object) -> RealCharacter:
    if spec == "trivial":
        return RealCharacter.trivial(level)
    if isinstance(spec, dict):
        for value in spec.values():
            if type(value) is not int:
                raise BadCharacter(f"character values must be integers, got {value!r}")
        table = {_residue_key(key): value for key, value in spec.items()}
        return RealCharacter(level, table)
    raise BadCharacter(f"character must be 'trivial' or a residue table, got {spec!r}")


def _read_coefficient_file(path: str | Path) -> tuple[dict, TruncatedSeries]:
    """The decoded JSON object and its series, from the "prec" and "coeffs" fields."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer over the digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("form file must contain a JSON object")
    prec = _header_int(data, "prec")
    if prec < 1:
        raise ParseError(f"prec must be at least 1, got {prec}")
    raw_coeffs = data.get("coeffs")
    if not isinstance(raw_coeffs, list) or len(raw_coeffs) != prec + 1:
        raise ParseError(f"expected {prec + 1} coefficient entries")
    return data, TruncatedSeries(prec, _parse_coefficients(raw_coeffs))


def _parse_coefficients(entries: list) -> tuple[Rational, ...]:
    """parse_rational of each entry.  The usual file, all canonical ASCII
    integer literals, is read in bulk by one json.loads of the joined
    entries: over [0-9+,-] JSON reads a subset of what parse_rational reads,
    to the same values ("+5", "007", "" and a literal over the digit limit
    are not JSON), and exactly len(entries) values when no entry holds a
    comma.  Anything else is read entry by entry, with its errors."""
    try:
        text = ",".join(entries)
        if text.isascii() and not text.encode().translate(None, b"0123456789+,-"):
            values = json.loads("[" + text + "]")
            del text
            if len(values) == len(entries):
                return tuple(values)
    except (TypeError, ValueError):  # a non-str entry, or text that is not JSON
        pass
    return tuple(parse_rational(c) for c in entries)


def load_form(path: str | Path) -> HalfIntegralForm:
    """Read and fully validate a half-integral form from a JSON file.

    The file is UTF-8 JSON: an object with fields
      "level"      integer, divisible by 4
      "k"          integer >= 2 (the weight is k + 1/2)
      "character"  "trivial" (the default) or an object mapping unit
                   residues (as decimal strings) to 1 / -1
      "prec"       integer truncation order, at least 1
      "coeffs"     array of prec + 1 strings, index = exponent, each an
                   integer or "p/q" exact rational; index 0 must be "0"
    An integer field or character value must be a JSON integer: a float such
    as 4.0 or 4.9, or a boolean, is rejected rather than truncated.  An
    integer in "level", "k", "prec" or a coefficient (numerator and
    denominator alike) longer than CPython's int-string limit, 4300 digits by
    default, raises ParseError.
    """
    data, series = _read_coefficient_file(path)
    level = _header_int(data, "level")
    k = _header_int(data, "k")
    _check_level(level)
    if k < 2:
        raise ParseError(f"k must be at least 2, got {k}")
    chi = _character_from_json(level, data.get("character", "trivial"))
    return HalfIntegralForm(level, k, chi, series)


_encode_str = json.encoder.encode_basestring_ascii
# how a list whose items all have one of these types is joined in one call
_JOINERS = {int: int.__repr__, str: _encode_str}


def _json(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=1, sort_keys=True) + "\n"; keys are strs.

    Only top-level values are joined by hand, since every long list in the
    reports is one (the (q-1)^2 exponents of `characters`, the coefficients of
    a coefficient file); json.dumps renders all else.
    """
    out: list[str] = []
    for key in sorted(payload):
        out.append(("," if out else "{") + "\n " + _encode_str(key) + ": ")
        _render(payload[key], "\n ", out, rows=True)
    out.append("\n}\n" if out else "{}\n")
    return "".join(out)


def _render(value, newline: str, out: list[str], rows: bool = False) -> None:
    """Append value as json.dumps nests it below `newline`: a nonempty list of
    only ints or only strs is joined in one call, with `rows` also each row of a
    list of lists, and the rest is dumped."""
    kinds = set(map(type, value)) if type(value) is list else ()
    kind = kinds.pop() if len(kinds) == 1 else None
    inner = newline + " "
    if kind is list and rows:
        for i, row in enumerate(value):
            out.append(("," if i else "[") + inner)
            _render(row, inner, out)
        out.append(newline + "]")
    elif kind in _JOINERS:
        out.append("[" + inner + ("," + inner).join(map(_JOINERS[kind], value)) + newline + "]")
    else:
        out.append(json.dumps(value, indent=1, sort_keys=True).replace("\n", newline))


def _coefficient_file(level: int, k: int, character: object, series: TruncatedSeries) -> dict:
    """The JSON object of a coefficient file, in the layout load_form reads."""
    return {"level": level, "k": k, "character": character, "prec": series.prec,
            "coeffs": [format_rational(c) for c in series.coeffs]}


def form_to_dict(form: HalfIntegralForm) -> dict:
    chi = form.chi
    character: object = "trivial" if chi.is_trivial else {
        str(a): v for a, v in sorted(chi.table.items())
    }
    return _coefficient_file(form.level, form.k, character, form.series)


def save_form(form: HalfIntegralForm, path: str | Path) -> None:
    # newline="" keeps the \n line endings on every platform, as in every report
    Path(path).write_text(_json(form_to_dict(form)), encoding="utf-8", newline="")


def load_series(path: str | Path) -> TruncatedSeries:
    """Lenient loader for comparison coefficient files.

    Accepts the same JSON layout as load_form but ignores level, k and
    character, and skips the cusp/level validation; used for ingesting
    integral-weight eigenform coefficients.
    """
    return _read_coefficient_file(path)[1]

