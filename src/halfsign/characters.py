"""Dirichlet character tables mod a prime q and progression extraction.

Progressions come from triples (q, h, p): a target residue h with
1 < h < q, the multiplicative order n of p mod q, and the least d with
p^d = h (mod q).  An index m then satisfies p^m = h (mod q) exactly when
m = d (mod n), so extracting the progression from a sequence indexed by m
is an index filter.  Three routes compute it:

  direct          index arithmetic m = d (mod n)
  roots_of_unity  the exact filter (1/n) sum_j zeta_n^(j(m-d)), with the
                  cyclotomic sums reduced symbolically (never floats)
  character_sum   the n characters of the cyclic subgroup <p> of (Z/q)*,
                  realized through the mod-q character table with
                  prefactor 1/n, evaluated in complex floating point

The first two are exact; the third is a floating-point cross-check.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .arith import Rational, is_prime, multiplicative_order, smallest_primitive_root
from .errors import LengthMismatch, NotInSubgroup, OutOfRange, SamePrime

__all__ = [
    "order_of",
    "index_of",
    "ProgressionSpec",
    "CharacterTable",
    "progression_extract",
]


def order_of(p: int, q: int) -> int:
    """Multiplicative order of p modulo q (p, q distinct primes)."""
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must be prime")
    if p == q:
        raise SamePrime(f"need p != q, got {p}")
    return multiplicative_order(p, q)


def index_of(p: int, h: int, q: int) -> int:
    """Least d >= 0 with p^d = h (mod q); requires 1 < h < q."""
    if not (1 < h < q):
        raise OutOfRange(f"need 1 < h < q, got h = {h}, q = {q}")
    n = order_of(p, q)
    x = 1
    for d in range(n):
        if x == h % q:
            return d
        x = x * p % q
    raise NotInSubgroup(f"{h} is not a power of {p} modulo {q}")


@dataclass(frozen=True)
class ProgressionSpec:
    """Progression data (q, h, p) with the derived order n and index d."""

    q: int
    h: int
    p: int
    n: int
    d: int

    def __post_init__(self) -> None:
        if multiplicative_order(self.p, self.q) != self.n:
            raise ValueError(f"n = {self.n} is not the order of {self.p} mod {self.q}")
        if not (0 <= self.d < self.n) or pow(self.p, self.d, self.q) != self.h % self.q:
            raise ValueError(
                f"d = {self.d} does not index {self.h} in <{self.p}> mod {self.q}"
            )

    @classmethod
    def create(cls, q: int, h: int, p: int) -> "ProgressionSpec":
        n = order_of(p, q)
        d = index_of(p, h, q)
        return cls(q=q, h=h, p=p, n=n, d=d)

    @property
    def label(self) -> str:
        return f"progression({self.q},{self.h})"


def _is_uniform_orbit(counts: Counter, order: int, delta: int) -> bool:
    """Whether the exponent multiset {j*delta mod order} is a uniform
    cover of the subgroup gcd(delta, order) * Z / order, each element hit
    gcd times.  When it is, the corresponding root-of-unity sum is a
    repeated full cyclotomic sum and vanishes unless the orbit is {0}."""
    g = math.gcd(delta % order, order)
    return all(counts.get(m, 0) == g for m in range(0, order, g))


@dataclass(frozen=True)
class CharacterTable:
    """All Dirichlet characters modulo a prime q, in discrete-log form.

    With g the smallest primitive root mod q, character j (0 <= j <= q-2)
    takes the value zeta^(j * log(a)) at a unit a, where zeta is a fixed
    primitive (q-1)-th root of unity.  Values are stored as exponents mod
    q-1; floats appear only when a complex value is explicitly requested.
    """

    q: int
    generator: int
    log: dict[int, int]

    @classmethod
    def build(cls, q: int) -> "CharacterTable":
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        g = smallest_primitive_root(q)
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
        if a not in self.log:
            raise ValueError(f"{a} is not a unit modulo {self.q}")
        return (j * self.log[a]) % (self.q - 1)

    def value(self, j: int, a: int) -> complex:
        e = self.value_exponent(j, a)
        return cmath.exp(2j * cmath.pi * e / (self.q - 1))

    def column_sum_is_zero(self, j: int) -> bool:
        """Exact exponent-arithmetic check that sum_a epsilon_j(a) = 0 (j != 0)."""
        order = self.q - 1
        counts = Counter((j * l) % order for l in self.log.values())
        return _is_uniform_orbit(counts, order, j) and j % order != 0

    def row_pair_sum_is_zero(self, a: int, b: int) -> bool:
        """Exact check that sum_j epsilon_j(a) conj(epsilon_j(b)) = 0 (a != b mod q)."""
        order = self.q - 1
        delta = (self.log[a % self.q] - self.log[b % self.q]) % order
        counts = Counter((j * delta) % order for j in range(order))
        return _is_uniform_orbit(counts, order, delta) and delta != 0


def _cyclotomic_filter_weight(n: int, r: int) -> int:
    """(1/n) sum_{j=0}^{n-1} zeta_n^(j r), reduced exactly.

    The exponent multiset {j r mod n} covers the multiples of
    g = gcd(r, n), each g times, so the sum is g full sums over the
    (n/g)-th roots of unity: zero unless n | r, where it equals n.
    """
    return 1 if r % n == 0 else 0


def progression_extract(
    seq: Sequence[Rational],
    spec: ProgressionSpec,
    route: str = "direct",
) -> list:
    """Subsequence (seq[d + n*nu])_nu by one of three routes.

    direct and roots_of_unity return exact rationals; character_sum
    returns floats and exists as an independent cross-check of the
    orthogonality argument.
    """
    if len(seq) < spec.d + 1:
        raise LengthMismatch(f"need at least d+1 = {spec.d + 1} terms, got {len(seq)}")
    n, d = spec.n, spec.d
    if route == "direct":
        return [seq[m] for m in range(d, len(seq), n)]
    if route == "roots_of_unity":
        weights = [_cyclotomic_filter_weight(n, m - d) for m in range(len(seq))]
        return [seq[m] for m, w in enumerate(weights) if w == 1]
    if route == "character_sum":
        return _character_sum_route(seq, spec)
    raise ValueError(f"unknown route {route!r}")


def _character_sum_route(seq: Sequence[Rational], spec: ProgressionSpec) -> list[float]:
    """Orthogonality filter via the mod-q character table, prefactor 1/n.

    The n distinct restrictions to the subgroup <p> of the mod-q
    characters are enumerated by solving j * log(p) = c * (q-1)/n
    (mod q-1) for c = 0..n-1; averaging epsilon_j(p^m) conj(epsilon_j(h))
    over them weights index m by approximately [m = d (mod n)].  Indices
    whose weight is near 1 are kept.
    """
    table = CharacterTable.build(spec.q)
    order = spec.q - 1
    n = spec.n
    log_p = table.log[spec.p % spec.q]
    log_h = table.log[spec.h % spec.q]
    step = order // n  # gcd(log_p, order), since p has order n
    lp = log_p // step
    lp_inv = pow(lp, -1, n)
    js = [(c * lp_inv) % n for c in range(n)]
    out: list[float] = []
    for m in range(len(seq)):
        weight = 0j
        for j in js:
            e = (j * (m * log_p - log_h)) % order
            weight += cmath.exp(2j * cmath.pi * e / order)
        weight /= n
        if abs(weight) > 0.5:
            out.append(float(seq[m]) * weight.real)
    return out
