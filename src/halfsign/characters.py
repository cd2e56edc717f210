"""Dirichlet character tables mod a prime q and progression extraction.

Progressions come from triples (q, h, p): a target residue h with
1 < h < q, the multiplicative order n of p mod q, and the least d with
p^d = h (mod q).  An index m then satisfies p^m = h (mod q) exactly when
m = d (mod n), which is what character orthogonality over the cyclic
subgroup <p> of (Z/q)* says.  So extracting the progression from a
sequence indexed by m is the exact index filter progression_extract.
Nothing here touches floating point; the test oracles run the
orthogonality sum itself, in complex floats, as a cross-check of that
filter.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .arith import Rational, check_prime, check_unit, multiplicative_order, smallest_primitive_root
from .errors import NotInSubgroup, OutOfRange, SamePrime, _Record

__all__ = [
    "order_of",
    "index_of",
    "ProgressionSpec",
    "CharacterTable",
    "progression_extract",
]


def _check_progression(q: int, h: int) -> None:
    check_prime(q, "q")
    if not 1 < h < q:
        raise OutOfRange(f"need 1 < h < q, got h = {h}, q = {q}")


def _check_distinct_primes(p: int, q: int) -> None:
    check_prime(q, "q")
    check_prime(p, "p")
    if p == q:
        raise SamePrime(f"need p != q, got {p}")


def order_of(p: int, q: int) -> int:
    """Multiplicative order of p modulo q (p, q distinct primes)."""
    _check_distinct_primes(p, q)
    return multiplicative_order(p, q)


def index_of(p: int, h: int, q: int) -> int:
    """Least d >= 0 with p^d = h (mod q); requires 1 < h < q.

    Walks p, p^2, ... until it meets h or returns to 1, so the order of p
    is never computed separately.
    """
    _check_progression(q, h)
    _check_distinct_primes(p, q)
    x, d = p % q, 1
    while x != 1:
        if x == h:
            return d
        x, d = x * p % q, d + 1
    raise NotInSubgroup(f"{h} is not a power of {p} modulo {q}")


class ProgressionSpec(_Record):
    """Progression data (q, h, p) with the order n of p mod q and the index
    d of h in <p>, both derived from (q, h, p) on construction."""

    q: int
    h: int
    p: int

    def __new__(cls, q: int, h: int, p: int):
        return tuple.__new__(cls, (q, h, p, order_of(p, q), index_of(p, h, q)))

    n = property(itemgetter(3))
    d = property(itemgetter(4))

    @classmethod
    def create(cls, q: int, h: int, p: int) -> "ProgressionSpec":
        return cls(q=q, h=h, p=p)

    @property
    def label(self) -> str:
        return f"progression({self.q},{self.h})"


class CharacterTable(_Record):
    """All Dirichlet characters modulo a prime q, in discrete-log form.

    With g the smallest primitive root mod q, character j (0 <= j <= q-2)
    takes the value zeta^(j * log(a)) at a unit a, where zeta is a fixed
    primitive (q-1)-th root of unity.  Values are stored as exponents mod
    q-1.
    """

    q: int
    generator: int
    log: dict[int, int]

    @classmethod
    def build(cls, q: int) -> "CharacterTable":
        g = smallest_primitive_root(q)  # raises for a q that is not prime
        log: dict[int, int] = {}
        x = 1
        for e in range(max(q - 1, 1)):
            log[x] = e
            x = x * g % q
        return cls(q=q, generator=g, log=log)

    @property
    def group_order(self) -> int:
        return self.q - 1

    def value_exponent(self, j: int, a: int) -> int:
        """Exponent e with epsilon_j(a) = zeta^e, zeta = exp(2 pi i/(q-1))."""
        a %= self.q
        check_unit(a, self.q)
        return (j * self.log[a]) % (self.q - 1)


def progression_extract(seq: Sequence[Rational], spec: ProgressionSpec) -> Sequence[Rational]:
    """The exact subsequence (seq[d + n*nu])_nu, a slice of seq (a list for
    a list, a range for a range); empty when len(seq) <= d."""
    return seq[spec.d::spec.n]

