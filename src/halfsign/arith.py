"""Elementary number theory helpers: primes, squarefree parts, Kronecker symbol.

Everything is exact integer arithmetic; these are the primitives the rest
of the package leans on.  `exact` is the package's one number rule: every
value is an int when integral and a Fraction otherwise, never a float.
`clear_denominators` scales a list of them to integers and `unscale` divides
a scaled integer row back.  `lucas_row` is the one loop of the order-two
recurrence X_(j+1) = trace X_j - norm X_(j-1); the `check_*` functions own the
input rules that several modules share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidInput

Rational = Union[int, Fraction]


def exact(x: Rational) -> Rational:
    """The canonical exact form of x: an int when x is integral, else a
    Fraction.  Floats are rejected (exactness contract)."""
    if type(x) is int:  # the common case, ahead of the ABC checks; not a bool
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def clear_denominators(coeffs: Sequence[Rational]) -> tuple[int, list[int]]:
    """(L, [L*c for c in coeffs]) with L the lcm of the denominators, 1 for no
    coefficients; a coefficient that is not an int or a Fraction is a TypeError."""
    if set(map(type, coeffs)) == {int}:  # all ints, bools excluded: nothing to clear
        return 1, list(coeffs)
    try:
        L = math.lcm(*{c.denominator for c in coeffs})
    except AttributeError:
        raise TypeError("coefficients must be exact: int or Fraction") from None
    return L, [c.numerator * (L // c.denominator) for c in coeffs]


def unscale(row: list[int], s: int, v: int) -> list[Rational]:
    """[row[m] / (s v^m) for every m] as canonical numbers, the inverse of
    clear_denominators (v = 1) and of lucas_row's scaling; row itself when
    s = v = 1."""
    if s == 1 and v == 1:
        return row
    out: list[Rational] = []
    for b in row:
        out.append(exact(Fraction(b, s)))
        s *= v
    return out


def _check_int(x: int, name: str) -> None:
    if type(x) is not int:  # a float would leak into exact results, a bool pass as 0 or 1
        raise InvalidInput(f"{name} must be an int, got {x!r}")


def check_prime(n: int, name: str) -> None:
    _check_int(n, name)
    if not is_prime(n):
        raise InvalidInput(f"{name} = {n} is not prime")


def check_weight(k: int) -> None:
    _check_int(k, "k")
    if k < 2:
        raise InvalidInput(f"k must be at least 2, got {k}")


def check_last_index(M: int) -> None:
    _check_int(M, "M")
    if M < 0:
        raise InvalidInput("M must be nonnegative")


def check_twist_inputs(k: int, chi1_p: int, p: int) -> None:
    """The inputs of the twisted recurrence: weight k >= 2, chi1(p) in {-1, 0, 1}, p prime."""
    check_weight(k)
    if type(chi1_p) is not int or chi1_p not in (-1, 0, 1):
        raise InvalidInput("chi1_p must be one of -1, 0, 1")
    check_prime(p, "p")


def check_unit(a: int, q: int) -> None:
    if math.gcd(a, q) != 1:
        raise InvalidInput(f"{a} is not a unit modulo {q}")


def lucas_row(x0: int, x1: int, u: int, v: int, norm: int, M: int) -> list[int]:
    """[v^j X_j for j = 0..M], X_0 = x0, v X_1 = x1, X_(j+1) = (u/v) X_j - norm X_(j-1),
    on integers: Y_j = v^j X_j obeys Y_(j+1) = u Y_j - norm v^2 Y_(j-1)."""
    step = norm * v * v
    # allocated up front, so a row too large to hold fails at once
    row = [x0, x1][: M + 1] + [0] * (M - 1)
    a, b = x0, x1
    for j in range(2, M + 1):
        a, b = b, u * b - step * a
        row[j] = b
    return row


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return []
    # zero-filled: a failed bytearray(b"\x01") * (n + 1) can free a half-built
    # bytearray on CPython 3.11, which prints a spurious SystemError
    composite = bytearray(n + 1)
    composite[0] = composite[1] = 1
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            start = p * p
            composite[start :: p] = b"\x01" * len(range(start, n + 1, p))
    return [i for i, c in enumerate(composite) if not c]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (inputs here are small)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = t * m^2 with t squarefree; returns (t, m).

    The decomposition is unique.  Trial division, fine for indices up to
    the precisions this package works at.
    """
    if n < 1:
        raise InvalidInput("n must be a positive integer")
    t, m = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                t *= p
            m *= p ** (e // 2)
        p += 1 if p == 2 else 2
    return t * n, m


def is_squarefree(n: int) -> bool:
    return squarefree_decompose(n)[1] == 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers.

    Standard extension of the Jacobi symbol: (a|0) = [|a| = 1],
    (a|-1) = sign(a) (with (0|-1) = 1), (a|2) = 0 for even a and
    +-1 according to a mod 8 otherwise, completely multiplicative
    in the bottom argument.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    # factor of 2 in the bottom: (a|2) depends on a mod 8
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1 and a % 8 in (3, 5):
        result = -result
    # Jacobi loop on the odd positive part, with quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def multiplicative_order(a: int, q: int) -> int:
    """Order of a in (Z/q)* for q >= 1; raises if gcd(a, q) != 1.  (Z/1)*
    is the trivial group, where every a has order 1."""
    if q < 1:
        raise InvalidInput(f"q must be a positive integer, got {q}")
    a %= q
    check_unit(a, q)
    x, k = a, 1
    while x != 1 % q:
        x = x * a % q
        k += 1
    return k


def smallest_primitive_root(q: int) -> int:
    """Smallest primitive root modulo a prime q."""
    check_prime(q, "q")
    if q == 2:
        return 1
    phi = q - 1
    prime_factors = {p for p in primes_up_to(phi) if phi % p == 0}
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in prime_factors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")
