"""Outside-in tracing of `halfsign`: timing wrappers around each module's
public functions, installed for one pass and removed afterwards.

A wrapper replaces the function in every `halfsign` namespace that binds it
(e.g. `qseries.expand_recipe` is also `flagship.expand_recipe` and
`cli.expand_recipe`), so calls are seen wherever callers look the name up.
Each call records a span (name, parent, start, end, bookkeeping time) in
memory.  Self time is a span's duration minus its direct children's spans
and minus the wrapper's own bookkeeping, which is timed and excluded
everywhere.  Some wrappers also add exact work counts computed from the
call's arguments and result; these are marked "computed" in README.md.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Callable

from .workloads import primes_between

WRAPPED: dict[str, tuple[str, ...]] = {
    "qseries": ("series_mul", "series_pow", "eta_power", "theta_series", "expand_recipe"),
    "forms": ("load_form", "form_to_dict", "coefficient"),
    "flagship": ("build_flagship", "verify_eigenform", "flagship_form", "ramanujan_delta",
                 "load_fixture"),
    "hecke": ("extract_trace", "eigen_consistency", "satake_data", "deligne_check",
              "multiplicativity_check"),
    "shimura": ("chi1", "lift_coefficients", "crosscheck_lift"),
    "genfun": ("expand", "h_n_closed", "s_split_closed", "poly_gcd", "remark_polynomial",
               "real_root_count", "sturm_chain"),
    "characters": ("order_of", "index_of", "ProgressionSpec.create", "CharacterTable.build",
                   "progression_extract"),
    "signscan": ("twisted_sequence", "subsequence", "count_sign_changes", "scan"),
    "cli": ("run",),
}
MODULES = tuple(WRAPPED)

# Per-layer metrics of a traced run: (name, unit).  `<fn>.self_s` is the
# median self time per pass, `<module>.self_s` the module's total, `.calls`
# and the remaining counts come from the first traced pass (they repeat
# exactly).
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("qseries.series_mul.self_s", "s"),
    ("qseries.series_mul.calls", "count"),
    ("qseries.series_mul.out_coeffs", "count"),
    ("qseries.series_mul.packed_bytes", "bytes"),
    ("qseries.series_mul.int_path_ratio", "ratio"),
    ("qseries.eta_power.self_s", "s"),
    ("qseries.expand_recipe.self_s", "s"),
    ("qseries.max_coeff_bits", "bits"),
    ("signscan.twisted_sequence.self_s", "s"),
    ("signscan.twisted_sequence.terms", "count"),
    ("signscan.max_term_bits", "bits"),
    ("signscan.count_sign_changes.self_s", "s"),
    ("signscan.subsequence.self_s", "s"),
    ("signscan.scan.self_s", "s"),
    ("signscan.sign_changes", "count"),
    ("signscan.prime_yield", "ratio"),
    ("characters.progression_extract.self_s", "s"),
    ("characters.ProgressionSpec.create.calls", "count"),
    ("characters.CharacterTable.build.self_s", "s"),
    ("genfun.expand.self_s", "s"),
    ("genfun.expand.terms", "count"),
    ("genfun.poly_gcd.self_s", "s"),
    ("genfun.poly_gcd.calls", "count"),
    ("genfun.s_split_closed.self_s", "s"),
    ("genfun.real_root_count.self_s", "s"),
    ("hecke.eigen_consistency.self_s", "s"),
    ("hecke.eigen_consistency.residuals", "count"),
    ("hecke.extract_trace.calls", "count"),
    ("hecke.satake_data.calls", "count"),
    ("hecke.deligne_check.calls", "count"),
    ("shimura.lift_coefficients.self_s", "s"),
    ("shimura.crosscheck_lift.self_s", "s"),
    ("shimura.chi1.calls", "count"),
    ("flagship.build_flagship.self_s", "s"),
    ("flagship.verify_eigenform.self_s", "s"),
    ("flagship.fixture_fallbacks", "count"),
    ("forms.load_form.self_s", "s"),
    ("forms.load_form.bytes", "bytes"),
    ("forms.form_to_dict.self_s", "s"),
    ("forms.coefficient.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
) + tuple((f"{module}.self_s", "s") for module in MODULES) + (
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Counts that must repeat bit for bit between two traced passes of one op list.
EXACT_COUNTS = tuple(
    name for name, unit in LAYER_METRICS
    if unit in ("count", "bits", "bytes", "ratio") and not name.startswith("trace.")
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 at the top level
    name: str
    start: float
    end: float
    bookkeeping: float  # time the wrapper spent on counts after the call returned


@dataclass
class PassTrace:
    """What one traced pass recorded."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start - span.bookkeeping - covered[span.id]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return dict(out)


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _series_mul_counts(counts, bound, result) -> None:
    a, b = bound.arguments["a"], bound.arguments["b"]
    counts["qseries.series_mul.out_coeffs"] += len(result.coeffs)
    counts["qseries.max_coeff_bits"] = max(
        counts["qseries.max_coeff_bits"], max(_bits(c) for c in result.coeffs)
    )
    if all(c.denominator == 1 for c in a.coeffs) and all(c.denominator == 1 for c in b.coeffs):
        counts["qseries.series_mul.int_calls"] += 1
        # operand bytes of the packed product, from the limb width that
        # qseries._int_convolution derives (computed, not measured)
        xs, ys = a.coeffs[: result.prec + 1], b.coeffs[: result.prec + 1]
        mx = max(abs(c.numerator) for c in xs)
        my = max(abs(c.numerator) for c in ys)
        if mx and my:
            width = ((2 * mx * my * min(len(xs), len(ys)) + 1).bit_length() + 7) // 8 + 1
            counts["qseries.series_mul.packed_bytes"] += 2 * width * (len(xs) + len(ys))


def _twisted_sequence_counts(counts, bound, result) -> None:
    counts["signscan.twisted_sequence.terms"] += len(result)
    counts["signscan.max_term_bits"] = max(
        counts["signscan.max_term_bits"], max(_bits(x) for x in result)
    )


def _scan_counts(counts, bound, result) -> None:
    p_max = bound.arguments["p_max"]
    counts["signscan.reported_primes"] += len(result)
    counts["signscan.primes"] += len(primes_between(2, p_max))


def _summing(metric: str, amount: Callable) -> Callable:
    def hook(counts, bound, result) -> None:
        counts[metric] += amount(bound, result)

    return hook


HOOKS: dict[str, Callable] = {
    "qseries.series_mul": _series_mul_counts,
    "signscan.twisted_sequence": _twisted_sequence_counts,
    "signscan.scan": _scan_counts,
    "signscan.count_sign_changes": _summing(
        "signscan.sign_changes", lambda bound, result: result.change_count),
    "genfun.expand": _summing("genfun.expand.terms", lambda bound, result: len(result)),
    "hecke.eigen_consistency": _summing(
        "hecke.eigen_consistency.residuals", lambda bound, result: len(result.residuals)),
    "forms.load_form": _summing(
        "forms.load_form.bytes", lambda bound, result: os.path.getsize(bound.arguments["path"])),
}


class Tracer:
    """Installs the wrappers into a freshly imported `halfsign` package.

    Use as a context manager around one pass; it yields the PassTrace that
    the pass fills, and restores every original binding on exit.
    """

    def __init__(self, package: ModuleType):
        self.package = package
        self.namespaces = [package] + [getattr(package, m) for m in MODULES]
        self._restore: list[tuple[object, str, object]] = []
        self._trace: PassTrace | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            trace = self._trace
            stack = self._stack
            span_id = len(trace.spans)
            trace.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            returned = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = perf_counter()
                if hook is not None:
                    hook(trace.counts, signature.bind(*args, **kwargs), result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                bookkeeping = end - returned if returned is not None else 0.0
                trace.spans[span_id] = Span(span_id, parent, name, start, end, bookkeeping)

        wrapper.perfbench_span = name
        return wrapper

    def _install_function(self, module: ModuleType, qualname: str) -> None:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, staticmethod(self._wrap(name, getattr(cls, attr))))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(name, original)
        for namespace in self.namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def __enter__(self) -> PassTrace:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._trace = PassTrace()
        self._stack = []
        try:
            for module_name, qualnames in WRAPPED.items():
                module = getattr(self.package, module_name)
                for qualname in qualnames:
                    self._install_function(module, qualname)
        except BaseException:
            self._uninstall()
            raise
        return self._trace

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)


def pass_metrics(trace: PassTrace, output_bytes: int) -> dict[str, float]:
    """Self times, calls and counts of one traced pass, by metric name."""
    out: dict[str, float] = {}
    self_times = trace.self_times()
    for name, value in self_times.items():
        out[f"{name}.self_s"] = value
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + value
    for name, value in trace.calls().items():
        out[f"{name}.calls"] = value
    counts = trace.counts
    out.update(counts)
    mul_calls = out.get("qseries.series_mul.calls", 0)
    out["qseries.series_mul.int_path_ratio"] = (
        counts["qseries.series_mul.int_calls"] / mul_calls if mul_calls else 0.0
    )
    primes = counts["signscan.primes"]
    out["signscan.prime_yield"] = counts["signscan.reported_primes"] / primes if primes else 0.0
    out["flagship.fixture_fallbacks"] = out.get("flagship.load_fixture.calls", 0)
    out["cli.output_bytes"] = output_bytes
    return out
