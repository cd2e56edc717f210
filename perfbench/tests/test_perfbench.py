"""Tests of the benchmark harness itself, at small input sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench.record_references import record  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    EXACT_COUNTS,
    LAYER_METRICS,
    WRAPPED,
    MODULES,
    Tracer,
)
from perfbench.workloads import (  # noqa: E402
    PROGRESSIONS,
    WORKLOADS,
    ExpandLarge,
    Op,
    ScanLong,
    SuiteSmall,
    pass_rng,
)

@dataclasses.dataclass(frozen=True)
class QuickSuite(SuiteSmall):
    """suite-small with 5 instances per genfun-check instead of the default 100."""

    def _genfun(self, seed: int) -> Op:
        return Op(("genfun-check", "--seed", str(seed), "--count", "5", "--out", "{out}"), "all_ok")


SMALL = {
    "expand-large": ExpandLarge(flagship_prec=300, comparison_prec=300, verify_prec=300),
    "scan-long": ScanLong(nu_max=40),
    "suite-small": QuickSuite(expand_prec=200),
}

# Wrapped functions each workload must reach (qualified as in the span names).
EXERCISED = {
    "expand-large": [
        "qseries.series_mul", "qseries.series_pow", "qseries.eta_power", "qseries.theta_series",
        "qseries.expand_recipe", "forms.form_to_dict", "forms.coefficient",
        "flagship.build_flagship", "flagship.verify_eigenform", "flagship.flagship_form",
        "hecke.extract_trace", "hecke.eigen_consistency", "hecke.multiplicativity_check",
        "shimura.chi1", "genfun.expand", "genfun.h_n_closed", "genfun.s_split_closed",
        "genfun.poly_gcd", "cli.run",
    ],
    "scan-long": [
        "forms.load_form", "forms.coefficient", "hecke.extract_trace", "hecke.deligne_check",
        "shimura.chi1", "characters.order_of", "characters.index_of",
        "characters.ProgressionSpec.create", "characters.progression_extract",
        "signscan.twisted_sequence", "signscan.subsequence", "signscan.count_sign_changes",
        "signscan.scan", "cli.run",
    ],
    "suite-small": [
        "qseries.series_mul", "qseries.eta_power", "qseries.expand_recipe",
        "forms.load_form", "forms.form_to_dict", "forms.coefficient",
        "flagship.ramanujan_delta", "hecke.extract_trace", "hecke.eigen_consistency",
        "hecke.satake_data", "hecke.deligne_check", "hecke.multiplicativity_check",
        "shimura.chi1", "shimura.lift_coefficients", "shimura.crosscheck_lift",
        "genfun.expand", "genfun.h_n_closed", "genfun.s_split_closed", "genfun.poly_gcd",
        "genfun.remark_polynomial", "genfun.real_root_count", "genfun.sturm_chain",
        "characters.CharacterTable.build", "signscan.twisted_sequence", "cli.run",
    ],
}
NEVER_CALLED = {"flagship.load_fixture"}  # the fixture fallback; it must not fire
SEED = 7


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Reference digests for the first three passes drawn from SEED at the
    small sizes.

    set_up re-imports halfsign; the modules other tests imported are put back
    afterwards, so their classes and exceptions stay the ones they hold.
    """
    saved = {k: v for k, v in sys.modules.items() if k == "halfsign" or k.startswith("halfsign.")}
    env = bench.set_up(tmp_path_factory.mktemp("record"), references={})
    for name in SMALL:
        ops = {op for index in range(3) for op in small_ops(name, index)}
        _, problems = record(env, sorted(ops, key=lambda op: op.key))
        assert problems == []
    yield env.references
    for name in [k for k in sys.modules if k == "halfsign" or k.startswith("halfsign.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture
def env(references, tmp_path):
    return bench.set_up(tmp_path, dict(references))


def installed_wrappers(package) -> list[str]:
    """Names of tracing wrappers still bound anywhere in the package."""
    found = []
    for namespace in [package] + [getattr(package, m) for m in MODULES]:
        for key, value in vars(namespace).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{namespace.__name__}.{key}")
            elif isinstance(value, type):
                found += [
                    f"{namespace.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(getattr(member, "__func__", member), "perfbench_span")
                ]
    return found


def small_ops(name: str, index: int = 0):
    return SMALL[name].draw(pass_rng(SMALL[name], SEED, index))


# ---------------------------------------------------------------------------
# output gate


def test_corrupted_output_is_counted_as_failed(env):
    op = next(op for op in small_ops("suite-small") if op.argv[0] == "characters")
    result = bench.run_op(env, op, env.workdir / "out")
    assert bench.judge(env, result) == ""
    corrupted = dataclasses.replace(result, output=result.output.replace(b"1", b"7", 1))
    run = bench.Run()
    run.judge_all(env, [result, corrupted])
    assert run.attempted == 2
    assert len(run.problems) == 1 and "reference digest" in run.problems[0]


def test_spot_check_fails_even_when_the_digest_matches(env):
    op = next(op for op in small_ops("expand-large") if op.check == "fixture_prefix")
    result = bench.run_op(env, op, env.workdir / "out")
    payload = json.loads(result.output)
    payload["coeffs"][5] = str(int(payload["coeffs"][5]) + 1)
    wrong = dataclasses.replace(result, output=json.dumps(payload).encode())
    env.references[op.key], saved = wrong.digest, env.references[op.key]
    try:
        assert bench.judge(env, wrong) == "spot check fixture_prefix failed"
    finally:
        env.references[op.key] = saved


def test_bad_exit_code_is_counted_as_failed(env):
    op = Op(("verify", "--form", "no-such-file.json", "--out", "{out}"))
    result = bench.run_op(env, op, env.workdir / "out")
    assert result.exit_code == 2
    assert bench.judge(env, result).startswith("exit code 2")


def test_references_cover_every_op_a_seed_can_draw():
    references = bench.load_references()
    for workload in WORKLOADS.values():
        every = {op.key for op in workload.every_op()}
        assert every <= set(references)
        for seed in range(5):
            assert {op.key for op in workload.draw(pass_rng(workload, seed, 0))} <= every


def test_progressions_admit_fourteen_primes():
    from halfsign.arith import primes_up_to
    from halfsign.characters import ProgressionSpec
    from halfsign.errors import NotInSubgroup

    def admitted(q, h):
        count = 0
        for p in primes_up_to(97)[1:]:
            if p == q:
                continue
            try:
                ProgressionSpec.create(q=q, h=h, p=p)
                count += 1
            except NotInSubgroup:
                pass
        return count

    assert {admitted(q, h) for q, h in PROGRESSIONS} == {14}


def test_times_are_scaled_to_the_reference_machine_speed():
    run = bench.Run(setups=[0.1, 0.3], calibrations=[2 * bench.REFERENCE_CALIBRATION_S] * 3,
                    walls=[2.0, 4.0, 6.0], latencies=[1.0, 2.0, 3.0])
    metrics = bench.end_to_end_metrics(run)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["op_p50_s"] == pytest.approx(1.0)
    assert bench.raw_times(run)["wall_s"] == 4.0


# ---------------------------------------------------------------------------
# cache hygiene and exact counts


def test_consecutive_passes_record_the_same_series_mul_calls(env):
    tracer = Tracer(env.halfsign)
    ops = small_ops("expand-large")
    calls = []
    for _ in range(2):
        _, _, _, metrics = bench.traced_pass(env, tracer, ops)
        calls.append(metrics["qseries.series_mul.calls"])
    assert calls[0] == calls[1] > 0


def test_two_traced_runs_with_one_seed_give_identical_counts(env):
    runs = [bench.measure_traced(env.workdir, env.references, SMALL["scan-long"], seed=SEED, seconds=0) for _ in range(2)]
    assert all(run.counts_repeat and not run.problems for run in runs)
    first = [{n: run.pass_metrics[0].get(n, 0) for n in EXACT_COUNTS} for run in runs]
    assert first[0] == first[1]
    assert first[0]["signscan.twisted_sequence.terms"] > 0


# ---------------------------------------------------------------------------
# tracer


@pytest.mark.parametrize("name", list(SMALL))
def test_wrapped_bindings_are_called_where_expected(env, name):
    calls = {}
    for index in range(2):
        _, results, trace, _ = bench.traced_pass(env, Tracer(env.halfsign), small_ops(name, index))
        assert all(bench.judge(env, r) == "" for r in results)
        for fn, count in trace.calls().items():
            calls[fn] = calls.get(fn, 0) + count
    assert [fn for fn in EXERCISED[name] if not calls.get(fn)] == []
    assert not NEVER_CALLED & set(calls)


def test_every_wrapped_function_is_expected_somewhere():
    wrapped = {f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns}
    expected = {fn for fns in EXERCISED.values() for fn in fns}
    assert wrapped == expected | NEVER_CALLED


def test_traced_and_untraced_outputs_are_identical(env):
    ops = small_ops("suite-small")
    _, plain = bench.run_pass(env, ops)
    _, traced, _, _ = bench.traced_pass(env, Tracer(env.halfsign), ops)
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert all(bench.judge(env, r) == "" for r in traced)


@pytest.mark.parametrize("name", list(SMALL))
def test_spans_nest_and_self_times_fit_in_the_pass(env, name):
    wall, _, trace, _ = bench.traced_pass(env, Tracer(env.halfsign), small_ops(name))
    spans = trace.spans
    assert spans and all(s.id == i for i, s in enumerate(spans))
    for span in spans:
        assert span.start <= span.end and span.bookkeeping >= 0
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    self_times = trace.self_times()
    assert min(self_times.values()) >= -1e-9
    assert sum(self_times.values()) <= wall


def test_no_wrapper_is_left_installed(env):
    bench.measure_traced(env.workdir, env.references, SMALL["expand-large"], seed=SEED, seconds=0)
    assert installed_wrappers(sys.modules["halfsign"]) == []
    package = env.halfsign
    before = {name: getattr(package.qseries, name) for name in WRAPPED["qseries"]}
    create = package.characters.ProgressionSpec.__dict__["create"]
    with Tracer(package):
        assert "halfsign.qseries.series_mul" in installed_wrappers(package)
    assert installed_wrappers(package) == []
    assert {name: getattr(package.qseries, name) for name in WRAPPED["qseries"]} == before
    assert package.characters.ProgressionSpec.__dict__["create"] is create


# ---------------------------------------------------------------------------
# the benchmark's contract


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_layer_metrics_cover_the_catalogue(env):
    run = bench.measure_traced(env.workdir, env.references, SMALL["expand-large"], seed=SEED, seconds=0)
    metrics = bench.layer_metrics(run)
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    assert metrics["signscan.self_s"] == 0 and metrics["qseries.series_mul.calls"] > 0


def test_a_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_pass_draws_depend_only_on_seed_and_index():
    workload = WORKLOADS["suite-small"]
    assert workload.draw(pass_rng(workload, 4, 2)) == workload.draw(pass_rng(workload, 4, 2))
    assert workload.draw(pass_rng(workload, 4, 2)) != workload.draw(pass_rng(workload, 5, 2))
