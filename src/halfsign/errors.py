"""Exception hierarchy and record base shared by all halfsign modules."""

from __future__ import annotations

from operator import itemgetter


class _Record(tuple):
    """Base of the immutable records: a tuple of the field values, each read
    by name.  The fields are those of the bases, then the names annotated in
    the class body; a record unpacks into its values like any tuple.

    The plain constructor takes each field once, by position or keyword.  A
    record that checks, normalizes or derives values defines __new__, which
    returns tuple.__new__(cls, values); values past the fields are derived.
    Records are equal, and hash alike, when their types and values are.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__annotations__)
        for i, name in enumerate(own, len(cls._fields)):
            setattr(cls, name, property(itemgetter(i)))
        cls._fields += own

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{cls.__name__} takes ({', '.join(fields)}) once each; "
                            f"got {len(args)} values, and {sorted(kwargs)} unused")
        return tuple.__new__(cls, args)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, tuple.__iter__(self)))
        return f"{type(self).__qualname__}({body})"

    def __getnewargs__(self) -> tuple:
        return self[: len(self._fields)]

    def replace(self, **changes: object) -> _Record:
        """A copy with the given fields changed, checked as a new record is."""
        return type(self)(**dict(zip(self._fields, tuple.__iter__(self)), **changes))


class HalfsignError(Exception):
    """Base class for every error raised by this package."""


class NonIntegralOffset(HalfsignError):
    """Eta power whose leading exponent d*r/24 is not an integer."""


class PrecisionExceeded(HalfsignError):
    """A coefficient past the known truncation order was requested."""


class InvalidLevel(HalfsignError):
    """Half-integral weight forms require a level divisible by 4."""


class ParseError(HalfsignError):
    """Malformed form file: bad rational literal, field type, or header."""


class NonCuspidal(HalfsignError):
    """The constant coefficient of a cusp form must vanish."""


class BadCharacter(HalfsignError):
    """Character table is not a multiplicative set of +-1 values on the units."""


class NotSquarefree(HalfsignError):
    """An index that must be squarefree is not."""


class ZeroBase(HalfsignError):
    """Operation divides by a base coefficient a(t) which is zero."""


class NotCoprime(HalfsignError):
    """A coprimality precondition failed (prime dividing the level, or gcd(m, n) > 1)."""


class MissingCoefficient(HalfsignError):
    """A comparison series does not extend far enough."""


class NotExpandable(HalfsignError):
    """Rational function with den(0) = 0 has no power-series expansion at 0."""


class ZeroPolynomial(HalfsignError):
    """Real-root counting is undefined for the zero polynomial."""


class SamePrime(HalfsignError):
    """Multiplicative order of p mod q needs p != q."""


class NotInSubgroup(HalfsignError):
    """Target residue h is not a power of p modulo q."""


class OutOfRange(HalfsignError):
    """Progression residue h must satisfy 1 < h < q."""

