"""Exception hierarchy shared by all halfsign modules."""

from __future__ import annotations


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

