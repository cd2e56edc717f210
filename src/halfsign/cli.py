"""Command-line front end.

Commands:
  expand        expand an eta/theta recipe into a coefficient JSON file
  verify        eigen-consistency, multiplicativity, and closed-form
                identity suite on a form file
  lift          lift coefficient table plus cross-check against an
                integral-weight eigenform
  genfun-check  seeded random fuzzing of the closed-form identities
  scan          per-prime sign-change reports (CSV)
  characters    character table dump mod a prime q <= 1000

Exit status: 0 on success, 1 when a verification ran and failed, 2 on
usage errors or unusable inputs.  Reports are deterministic: fixed key
order, exact 'num/den' rationals, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

from . import characters as characters_mod
from . import flagship as flagship_mod
from . import genfun, hecke, shimura, signscan
from .arith import primes_up_to
from .errors import HalfsignError
from .forms import (
    HalfIntegralForm,
    RealCharacter,
    _check_level_and_k,
    form_to_dict,
    format_rational,
    load_form,
    load_series,
)
from .qseries import EtaRecipe, expand_recipe
from .shimura import chi1

USAGE_ERROR = 2
CHECK_FAILED = 1


_encode_str = json.encoder.encode_basestring_ascii
# how a list whose items all have one of these types is joined in one call
_JOINERS = {int: int.__repr__, str: _encode_str}


def _json(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=1, sort_keys=True) + "\n"; keys are strs.

    Only top-level values are joined by hand, since every long list in the
    reports is one (the (q-1)^2 exponents of `characters`, the coefficients of
    `expand`); json.dumps renders all else.
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


def _load_any_form(args) -> HalfIntegralForm:
    if args.flagship:
        prec = flagship_mod.DEFAULT_PREC if args.prec is None else args.prec
        return flagship_mod.flagship_form(prec)
    if args.prec is not None:
        raise HalfsignError("--prec applies only to --flagship")
    return load_form(args.form)


def _section(cases: list[dict]) -> dict:
    return {"cases": cases, "ok": all(c["ok"] for c in cases)}


# ---------------------------------------------------------------------------
# expand


def _parse_eta(text: str) -> tuple[int, int]:
    try:
        d, r = text.split(":")
        return int(d), int(r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"eta factor must look like D:R, got {text!r}") from exc


def cmd_expand(args) -> tuple[str, bool]:
    if not args.raw:  # the form's own checks, before the expansion rather than after it
        _check_level_and_k(args.level, args.k)
    recipe = EtaRecipe(factors=tuple(args.eta or ()), theta_power=args.theta_power)
    series = expand_recipe(recipe, args.prec)
    if args.raw:
        payload = {
            "level": args.level,
            "k": args.k,
            "character": "trivial",
            "prec": series.prec,
            "coeffs": [format_rational(c) for c in series.coeffs],
        }
        return _json(payload), True
    form = HalfIntegralForm(args.level, args.k, RealCharacter.trivial(args.level), series)
    return _json(form_to_dict(form)), True


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> tuple[str, bool]:
    form = _load_any_form(args)
    k, N = form.k, form.level
    t_set = hecke.base_indices(form, args.t_max)

    primes = list(dict.fromkeys(args.p))  # each prime once, in the order given
    eigen: dict[str, dict] = {}
    for p in primes:
        trace = hecke.extract_trace(form, t_set[0], p)
        report = hecke.eigen_consistency(form, p, trace, t_set, args.m_max)
        eigen[str(p)] = {
            "trace": format_rational(trace),
            "residuals_checked": len(report.residuals),
            "skipped": len(report.skipped),
            "failures": [list(key) for key in report.failures()],
            "ok": report.consistent,
        }

    mult: list[dict] = []
    pairs = [(2, 3), (3, 5), (2, 5), (4, 3), (3, 7), (2, 7)]
    for t in t_set:
        if t > 10:
            break
        for m, n in pairs:
            if t * m * m * n * n > form.prec:
                continue
            residual = hecke.multiplicativity_check(form, t, m, n)
            mult.append(
                {"t": t, "m": m, "n": n, "residual": format_rational(residual), "ok": residual == 0}
            )

    identities: list[dict] = []
    for p in primes:
        for t in t_set:
            raw = hecke.twisted_row(form, t, p)
            if len(raw) < 2:
                continue
            trace = hecke.extract_trace(form, t, p)
            c1 = chi1(p, t, k, N)
            horizon = len(raw) - 1
            closed_ok, split_ok, parity_ok = genfun.closed_form_checks(raw, raw[1], trace, c1, p, k)
            identities.append(
                {"p": p, "t": t, "horizon": horizon, "closed_form_matches": closed_ok,
                 "split_identity": split_ok, "parity_support": parity_ok,
                 "ok": closed_ok and split_ok and parity_ok}
            )

    multiplicativity, closed_form = _section(mult), _section(identities)
    all_ok = all(e["ok"] for e in eigen.values()) and multiplicativity["ok"] and closed_form["ok"]
    payload = {
        "level": N,
        "k": k,
        "prec": form.prec,
        "t_set": t_set,
        "checks": {
            "eigen_consistency": eigen,
            "multiplicativity": multiplicativity,
            "closed_form_identities": closed_form,
        },
        "all_ok": all_ok,
    }
    return _json(payload), all_ok


# ---------------------------------------------------------------------------
# lift


def cmd_lift(args) -> tuple[str, bool]:
    form = _load_any_form(args)
    integral = load_series(args.integral) if args.integral else None
    values = shimura.lift_coefficients(form, args.t, args.n_max)  # rejects t < 1
    if integral is None:  # Delta up to the last prime that can be compared, t p^2 <= prec
        last = min(args.p_max, isqrt(form.prec // args.t))
        integral = flagship_mod.ramanujan_delta(max(100, last))
    report = shimura.crosscheck_lift(form, args.t, integral, args.p_max)
    payload = {
        "t": args.t,
        "values": {str(n): format_rational(v) for n, v in values.items()},
        "crosscheck": {
            "compared": list(report.compared),
            "mismatches": list(report.mismatches),
            "skipped": list(report.skipped),
            "ok": report.ok,
        },
    }
    return _json(payload), report.ok


# ---------------------------------------------------------------------------
# genfun-check


def random_instance(rng: random.Random) -> dict:
    """One seeded draw of closed-form parameters with a Deligne-compatible trace."""
    k = rng.randint(2, 8)
    p = rng.choice(primes_up_to(50))
    chi1_p = rng.choice((-1, 0, 1))
    den = rng.randint(1, 16)
    num_bound = isqrt(4 * p ** (2 * k - 1) * den * den)
    trace = Fraction(rng.randint(-num_bound, num_bound), den)
    a_num = 0
    while a_num == 0:
        a_num = rng.randint(-99, 99)
    a_t = Fraction(a_num, rng.randint(1, 20))
    return {"k": k, "p": p, "chi1_p": chi1_p, "trace": trace, "a_t": a_t}


def check_instance(inst: dict, terms: int, m_p: int) -> dict:
    """All closed-form identities for one parameter draw; exact comparisons."""
    k, p, chi1_p = inst["k"], inst["p"], inst["chi1_p"]
    trace, a_t = inst["trace"], inst["a_t"]
    _, b1 = signscan.twisted_sequence(a_t, trace, chi1_p, p, k, 1)
    row, s, v = signscan._scaled_twisted(a_t, trace, chi1_p, p, k, terms)
    closed_ok, split_ok, parity_ok = genfun._scaled_closed_form_checks(
        row, s, v, b1, trace, chi1_p, p, k
    )
    local = hecke.satake_data(trace, p, k)
    deligne = hecke.deligne_check(trace, p, k)
    remark = genfun.remark_polynomial(local.trace, local.norm, m_p)
    remark_ok = m_p < 2 or remark(0) == 1
    roots_ok = True
    if local.root_kind == "complex_pair" and m_p == 2:
        roots_ok = genfun.real_root_count(remark) == 0
    return {
        "params": {
            "k": k,
            "p": p,
            "chi1_p": chi1_p,
            "trace": format_rational(trace),
            "a_t": format_rational(a_t),
        },
        "closed_form_matches_recurrence": closed_ok,
        "split_identity": split_ok,
        "parity_support": parity_ok,
        "satake_kind": local.root_kind,
        "deligne": deligne,
        "remark_constant_term": remark_ok,
        "remark_real_roots": roots_ok,
        "ok": closed_ok and split_ok and parity_ok and remark_ok and roots_ok,
    }


def cmd_genfun_check(args) -> tuple[str, bool]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.terms < 0:
        raise ValueError(f"--terms must be at least 0, got {args.terms}")
    if args.m_p < 1:
        raise ValueError(f"--m-p must be at least 1, got {args.m_p}")
    rng = random.Random(args.seed)
    instances = [
        check_instance(random_instance(rng), args.terms, args.m_p)
        for _ in range(args.count)
    ]
    all_ok = all(inst["ok"] for inst in instances)
    payload = {
        "seed": args.seed,
        "count": args.count,
        "terms": args.terms,
        "m_p": args.m_p,
        "instances": instances,
        "all_ok": all_ok,
    }
    return _json(payload), all_ok


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> tuple[str, bool]:
    form = _load_any_form(args)
    mode = args.mode
    if mode == "progression":
        if args.q is None or args.h is None:
            raise HalfsignError("mode=progression needs --q and --h")
        mode = (args.q, args.h)
    elif args.q is not None or args.h is not None:
        raise HalfsignError("--q and --h apply only to --mode progression")
    reports = signscan.scan(form, args.t, mode, args.p_max, args.nu_max)
    for p in reports.skipped:
        index = args.t * p * p
        print(f"halfsign: scan: skipped p = {p}: a({index}) is beyond precision {form.prec}",
              file=sys.stderr)
    for p in reports.exact:
        print(f"halfsign: scan: exact p = {p}: signs read off the exact recurrence, as the "
              "phase left one undecided", file=sys.stderr)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("p", "t", "mode", "length", "change_count", "first_change_index",
                     "zero_count", "deligne_status"))
    # csv writes a missing first_change_index (None) as an empty field
    writer.writerows(
        (r.p, r.t, r.mode, r.length, r.change_count, r.first_change_index, r.zero_count, r.deligne)
        for r in reports
    )
    return text.getvalue(), True


# ---------------------------------------------------------------------------
# characters


def cmd_characters(args) -> tuple[str, bool]:
    # the dump holds (q-1)^2 exponents: 7.8 MB at q = 997, 34 MB at q = 2003
    if args.q > 1000:
        raise ValueError(f"--q must be at most 1000, got {args.q}")
    table = characters_mod.CharacterTable.build(args.q)
    units = sorted(table.log)
    logs = [table.log[a] for a in units]
    order = table.group_order
    payload = {
        "q": table.q,
        "generator": table.generator,
        "group_order": order,
        "log": {str(a): e for a, e in zip(units, logs)},
        # character j takes zeta^(j log a) at a: row j is value_exponent(j, .)
        "value_exponents": [[j * e % order for e in logs] for j in range(order)],
    }
    return _json(payload), True


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfsign",
        description="Exact checks and scans for half-integral-weight eigenform coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write the report here instead of stdout")
    form_source = argparse.ArgumentParser(add_help=False)
    source = form_source.add_mutually_exclusive_group(required=True)
    source.add_argument("--form", default=None)
    source.add_argument("--flagship", action="store_true")
    form_source.add_argument("--prec", type=int, default=None,
                             help="flagship precision (with --flagship)")

    p_expand = sub.add_parser("expand", parents=[output],
                              help="expand an eta/theta recipe to a form JSON")
    p_expand.add_argument("--eta", action="append", type=_parse_eta, metavar="D:R",
                          help="eta(D z)^R factor; repeatable")
    p_expand.add_argument("--theta-power", type=int, default=0)
    p_expand.add_argument("--level", type=int, default=4)
    p_expand.add_argument("--k", type=int, default=6)
    p_expand.add_argument("--prec", type=int, default=100)
    p_expand.add_argument("--raw", action="store_true",
                          help="write without half-integral validation (comparison series)")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", parents=[form_source, output],
                              help="recurrence + identity suite on a form")
    p_verify.add_argument("--p", type=int, nargs="+", default=(3, 5, 7))
    p_verify.add_argument("--t-max", type=int, default=30)
    p_verify.add_argument("--m-max", type=int, default=4)
    p_verify.set_defaults(func=cmd_verify)

    p_lift = sub.add_parser("lift", parents=[form_source, output],
                            help="lift coefficients and eigenvalue cross-check")
    p_lift.add_argument("--t", type=int, default=1)
    p_lift.add_argument("--n-max", type=int, default=20)
    p_lift.add_argument("--integral", default=None,
                        help="comparison coefficient JSON; defaults to eta(z)^24")
    p_lift.add_argument("--p-max", type=int, default=50)
    p_lift.set_defaults(func=cmd_lift)

    p_gf = sub.add_parser("genfun-check", parents=[output], help="seeded random identity fuzzing")
    p_gf.add_argument("--seed", type=int, required=True)
    p_gf.add_argument("--count", type=int, default=100)
    p_gf.add_argument("--terms", type=int, default=100)
    p_gf.add_argument("--m-p", type=int, default=2,
                      help="exponent for the companion-polynomial check")
    p_gf.set_defaults(func=cmd_genfun_check)

    p_scan = sub.add_parser("scan", parents=[form_source, output],
                            help="per-prime sign-change reports (CSV)")
    p_scan.add_argument("--t", type=int, default=1)
    p_scan.add_argument("--mode", choices=("full", "odd", "even", "progression"), default="full")
    p_scan.add_argument("--q", type=int, default=None)
    p_scan.add_argument("--h", type=int, default=None)
    p_scan.add_argument("--p-max", type=int, default=50)
    p_scan.add_argument("--nu-max", type=int, default=200)
    p_scan.set_defaults(func=cmd_scan)

    p_chars = sub.add_parser("characters", parents=[output],
                             help="character table dump mod a prime q <= 1000")
    p_chars.add_argument("--q", type=int, required=True)
    p_chars.set_defaults(func=cmd_characters)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` shares: built on its first call, not at import."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Run one command, write its report to --out or stdout, return the exit status.

    The parser is built on the first call and reused by every later call in
    the process; parse_args leaves it unchanged, and its defaults are immutable.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        text, ok = args.func(args)
        if args.out:
            # newline="" keeps the reports' \n line endings on every platform
            Path(args.out).write_text(text, encoding="utf-8", newline="")
        else:
            sys.stdout.write(text)
    except (HalfsignError, OSError, ValueError) as exc:
        print(f"halfsign: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if ok else CHECK_FAILED


def main() -> None:
    sys.exit(run())
