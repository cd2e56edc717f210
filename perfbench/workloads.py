"""The benchmark workloads: which `halfsign` commands one pass runs.

A workload draws the op list of each pass from a `random.Random` seeded by
the benchmark seed and the pass index, so a seed fixes every input of a run.
Every op the draw can produce is listed by `every_op`, which is what
`record_references.py` digests; the seed only chooses among those ops.

Seeded choices are kept close to cost-neutral (see README.md), because a
set of runs uses a different seed per run and their medians must agree.
This module does not import `halfsign`; the benchmark times that import
as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

FIXTURE = "src/halfsign/data/flagship_fixture.json"

# (q, h) with q prime <= 31 whose progression p^nu = h (mod q) admits exactly
# 14 of the odd primes p <= 97 (the most common yield), so every draw runs
# the twisted recurrence for the same number of primes.
PROGRESSIONS = (
    (7, 6), (17, 3), (17, 5), (17, 6), (17, 7), (17, 10), (17, 11), (17, 12),
    (17, 14), (23, 5), (23, 7), (23, 10), (23, 11), (23, 14), (23, 15),
    (23, 17), (23, 19), (23, 20), (23, 21), (23, 22), (29, 12), (29, 17),
    (31, 7), (31, 9), (31, 10), (31, 14), (31, 18), (31, 19), (31, 20),
    (31, 28), (31, 30),
)

# eta(d z)^r with d * r = 24: every single-factor recipe with integral offset.
SINGLE_FACTORS = ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2), (24, 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


CHARACTER_MODULI = tuple(primes_between(100, 300))


@dataclass(frozen=True)
class Op:
    """One CLI command. `{out}` and `{fixture}` in argv are filled in at run time;
    `check` names an exact check of the output beyond its reference digest."""

    argv: tuple[str, ...]
    check: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _op(*argv: object, check: str = "") -> Op:
    return Op(tuple(str(a) for a in argv) + ("--out", "{out}"), check)


@dataclass(frozen=True)
class ExpandLarge:
    """Large q-expansions: the flagship recipe, eta(z)^24, and `verify --flagship`."""

    flagship_prec: int = 10_000
    comparison_prec: int = 10_000
    verify_prec: int = 2_500

    name = "expand-large"
    why = (
        "flagship expand and eta(z)^24 at prec 10^4, verify --flagship at 2500: "
        "packed convolution and Fraction wrapping in qseries dominate; signscan never runs"
    )

    def _flagship(self) -> Op:
        return _op("expand", "--eta", "2:12", "--theta-power", 1, "--prec", self.flagship_prec,
                   check="fixture_prefix")

    def _comparison(self, theta: int) -> Op:
        return _op("expand", "--raw", "--eta", "1:24", "--theta-power", theta,
                   "--level", 1, "--k", 12, "--prec", self.comparison_prec)

    def _verify(self) -> Op:
        return _op("verify", "--flagship", "--prec", self.verify_prec, check="all_ok")

    def draw(self, rng: random.Random) -> list[Op]:
        ops = [self._flagship(), self._comparison(rng.randrange(2)), self._verify()]
        rng.shuffle(ops)
        return ops

    def every_op(self) -> list[Op]:
        return [self._flagship(), self._comparison(0), self._comparison(1), self._verify()]


@dataclass(frozen=True)
class ScanLong:
    """Three long sign-change scans of the vendored fixture."""

    nu_max: int = 1250
    p_max: int = 97
    t: int = 1

    name = "scan-long"
    why = (
        "scan t=1, p<=97, nu<=1250 in modes full, odd/even and one progression: the exact "
        "Fraction recurrence dominates; qseries idle"
    )

    def _scan(self, *mode: object) -> Op:
        return _op("scan", "--form", "{fixture}", "--t", self.t, "--p-max", self.p_max,
                   "--nu-max", self.nu_max, "--mode", *mode)

    def draw(self, rng: random.Random) -> list[Op]:
        q, h = rng.choice(PROGRESSIONS)
        ops = [
            self._scan("full"),
            self._scan(rng.choice(("odd", "even"))),
            self._scan("progression", "--q", q, "--h", h),
        ]
        rng.shuffle(ops)
        return ops

    def every_op(self) -> list[Op]:
        return [self._scan("full"), self._scan("odd"), self._scan("even")] + [
            self._scan("progression", "--q", q, "--h", h) for q, h in PROGRESSIONS
        ]


@dataclass(frozen=True)
class SuiteSmall:
    """A dozen short commands: per-call overhead instead of large multiplies."""

    expand_prec: int = 2_000
    lift_p_max: int = 97
    lift_n_max: int = 99
    genfun_seeds: int = 32

    name = "suite-small"
    why = (
        "genfun-check, verify and lift on the fixture, characters mod a prime in 100..300, "
        "8 expands at prec 2000: per-call overhead in genfun, hecke, shimura"
    )

    def _genfun(self, seed: int) -> Op:
        return _op("genfun-check", "--seed", seed, check="all_ok")

    def _verify(self) -> Op:
        return _op("verify", "--form", "{fixture}", check="all_ok")

    def _lift(self) -> Op:
        return _op("lift", "--form", "{fixture}", "--p-max", self.lift_p_max,
                   "--n-max", self.lift_n_max, check="lift_ok")

    def _characters(self, q: int) -> Op:
        return _op("characters", "--q", q)

    def _expand(self, d: int, r: int, theta: int) -> Op:
        return _op("expand", "--eta", f"{d}:{r}", "--theta-power", theta, "--prec", self.expand_prec)

    def draw(self, rng: random.Random) -> list[Op]:
        ops = [
            self._genfun(rng.randrange(self.genfun_seeds)),
            self._verify(),
            self._lift(),
            self._characters(rng.choice(CHARACTER_MODULI)),
        ] + [self._expand(d, r, rng.randrange(2)) for d, r in SINGLE_FACTORS]
        rng.shuffle(ops)
        return ops

    def every_op(self) -> list[Op]:
        return (
            [self._genfun(s) for s in range(self.genfun_seeds)]
            + [self._verify(), self._lift()]
            + [self._characters(q) for q in CHARACTER_MODULI]
            + [self._expand(d, r, theta) for d, r in SINGLE_FACTORS for theta in (0, 1)]
        )


Workload = ExpandLarge | ScanLong | SuiteSmall

WORKLOADS: dict[str, Workload] = {w.name: w for w in (ExpandLarge(), ScanLong(), SuiteSmall())}


def sizes(workload: Workload) -> dict:
    return asdict(workload)


def pass_rng(workload: Workload, seed: int, index: int) -> random.Random:
    """The generator for pass `index` of a run with `seed`."""
    return random.Random(f"{workload.name}/{seed}/{index}")
