"""End-to-end benchmark of the `halfsign` command line, driven from outside.

    python3 perfbench/run.py --workload expand-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout.  The benchmark imports `halfsign`
from `src/` of that checkout, in this process, and calls `halfsign.cli.run`
once per op: one process, one thread, one op at a time (a closed loop with
one client).  It runs passes of the workload's op list until `--seconds`
have passed (at least MIN_PASSES).  Before each pass it sets up afresh
SETUPS_PER_PASS times, re-importing the package as a new command would, so
set-up samples spread over the whole run like the pass samples do, and
times a fixed calibration computation CALIBRATIONS_PER_PASS times.  The
reported times are scaled by REFERENCE_CALIBRATION_S over the run's median
calibration time, which cancels the machine's drift in speed between runs
(see README.md); the raw medians are printed and recorded beside them.  Every op's output is checked against the reference
digests in `references.json` and by exact spot checks; a mismatch counts as
a failed op.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced passes with traced ones (see tracer.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller record with
provenance goes to `.perfbench/results/`.  The exit code is 0 when every op
was correct, 1 otherwise, and 2 when the checkout holds no `halfsign`
sources.  `--workload all` runs each workload in a fresh child process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from fractions import Fraction
from time import perf_counter
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.tracer import EXACT_COUNTS, LAYER_METRICS, Tracer, pass_metrics  # noqa: E402
from perfbench.workloads import FIXTURE, WORKLOADS, Op, Workload, pass_rng, sizes  # noqa: E402

REFERENCES = ROOT / "perfbench" / "references.json"
OUT_DIR = ROOT / ".perfbench"
SETUPS_PER_PASS = 2
CALIBRATIONS_PER_PASS = 2
REFERENCE_CALIBRATION_S = 0.020  # calibrate()'s median on the machine of the baseline in README.md
MIN_PASSES = 3

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
UNITS = dict(END_TO_END + LAYER_METRICS)


class MissingSources(Exception):
    """The checkout has no importable `halfsign` under src/."""


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Env:
    """A freshly imported `halfsign` and the inputs the checks need."""

    halfsign: ModuleType
    caches: tuple  # the lru_cache'd functions, captured before any tracing
    fixture: object  # the vendored fixture, read by this import's load_form
    references: dict[str, str]
    workdir: Path


def check_sources() -> None:
    if not (SRC / "halfsign" / "__init__.py").is_file():
        raise MissingSources(f"no halfsign package under {SRC}")


def import_halfsign() -> ModuleType:
    """Import `halfsign` from this checkout's src/, discarding any earlier import."""
    check_sources()
    for name in [m for m in sys.modules if m == "halfsign" or m.startswith("halfsign.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("halfsign")
    importlib.import_module("halfsign.cli")
    if Path(package.__file__).resolve().parent != SRC / "halfsign":
        raise MissingSources(f"halfsign was imported from {package.__file__}, not {SRC}")
    return package


def load_references(path: Path = REFERENCES) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def set_up(workdir: Path, references: dict[str, str]) -> Env:
    """Import the package afresh and load the fixture with its load_form."""
    halfsign = import_halfsign()
    return Env(
        halfsign=halfsign,
        caches=(halfsign.flagship.flagship_form, halfsign.flagship.ramanujan_delta),
        fixture=halfsign.forms.load_form(ROOT / FIXTURE),
        references=references,
        workdir=workdir,
    )


def calibrate() -> float:
    """Seconds for a fixed computation that does not involve `halfsign`:
    big-int products, an exact Fraction recurrence and small-int dict work,
    the kinds of work the workloads spend their time on, in equal parts."""
    start = perf_counter()
    x = 3**50_000
    for _ in range(4):
        x = (x * x) >> 79_000
    trace, norm = Fraction(123, 7), 97**11
    a, b = Fraction(1), Fraction(5, 3)
    for _ in range(300):
        a, b = b, trace * b - norm * a
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i % 101] = table.get(i % 101, 0) + i
    return perf_counter() - start


# ---------------------------------------------------------------------------
# ops and passes


@dataclass
class OpResult:
    op: Op
    latency: float
    exit_code: int | None  # None when the op raised
    stdout: str
    stderr: str
    output: bytes
    error: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode() + b"\0" + self.output).hexdigest()


def run_op(env: Env, op: Op, out: Path) -> OpResult:
    """One timed `cli.run` call.  The lru caches are cleared first, so an op
    never times a cache hit left by an earlier one."""
    out.unlink(missing_ok=True)
    argv = [str(out) if a == "{out}" else str(ROOT / FIXTURE) if a == "{fixture}" else a
            for a in op.argv]
    for cached in env.caches:
        cached.cache_clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = env.halfsign.cli.run(argv)
        except Exception:  # a raising op is a failed op; the pass goes on
            error = traceback.format_exc()
        latency = perf_counter() - start
    output = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return OpResult(op, latency, code, stdout.getvalue(), stderr.getvalue(), output, error)


def run_pass(env: Env, ops: list[Op]) -> tuple[float, list[OpResult]]:
    results = []
    gc.collect()  # leave no garbage from earlier passes for this one to collect
    start = perf_counter()
    for index, op in enumerate(ops):
        results.append(run_op(env, op, env.workdir / f"op{index}.out"))
    return perf_counter() - start, results


def _fixture_prefix(env: Env, payload: dict) -> bool:
    coeffs = payload["coeffs"]
    expected = env.fixture.series.coeffs[: len(coeffs)]
    return coeffs[: len(expected)] == [env.halfsign.forms.format_rational(c) for c in expected]


CHECKS = {
    "fixture_prefix": _fixture_prefix,
    "all_ok": lambda env, payload: payload["all_ok"] is True,
    "lift_ok": lambda env, payload: payload["crosscheck"]["ok"] is True,
}


def judge(env: Env, result: OpResult) -> str:
    """Why the op's result is wrong, or "" when it is right."""
    if result.error:
        return "raised " + result.error.strip().splitlines()[-1]
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.stderr.strip()}"
    expected = env.references.get(result.op.key)
    if expected is None:
        return "no reference digest for this op"
    if result.digest != expected:
        return "output differs from the reference digest"
    if result.op.check and not CHECKS[result.op.check](env, json.loads(result.output)):
        return f"spot check {result.op.check} failed"
    return ""


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Run:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced passes only
    latencies: list[float] = field(default_factory=list)

    def set_up(self, workdir: Path, references: dict[str, str]) -> Env:
        """SETUPS_PER_PASS timed set-ups, the last of which is used, and
        CALIBRATIONS_PER_PASS calibrations."""
        for _ in range(SETUPS_PER_PASS):
            env = None
            gc.collect()
            start = perf_counter()
            env = set_up(workdir, references)
            self.setups.append(perf_counter() - start)
        gc.collect()
        self.calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_PASS)]
        return env

    @property
    def speed_scale(self) -> float:
        """Factor that maps this run's times to the reference machine speed."""
        return REFERENCE_CALIBRATION_S / statistics.median(self.calibrations)

    def judge_all(self, env: Env, results: list[OpResult]) -> None:
        for result in results:
            self.attempted += 1
            self.latencies.append(result.latency)
            problem = judge(env, result)
            if problem:
                self.problems.append(f"{result.op.key}: {problem}")


def _deadline_passes(seconds: float):
    """Pass indices until `seconds` have passed, and at least MIN_PASSES."""
    deadline = perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or perf_counter() < deadline:
        yield index
        index += 1


def measure(workdir: Path, references: dict[str, str], workload: Workload, seed: int,
            seconds: float) -> Run:
    run = Run()
    for index in _deadline_passes(seconds):
        env = run.set_up(workdir, references)
        wall, results = run_pass(env, workload.draw(pass_rng(workload, seed, index)))
        run.walls.append(wall)
        run.judge_all(env, results)
    return run


def raw_times(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(run.walls),
        "op_p50_s": statistics.median(run.latencies),
    }


def end_to_end_metrics(run: Run) -> dict[str, float]:
    metrics = {name: value * run.speed_scale for name, value in raw_times(run).items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


@dataclass
class TracedRun(Run):
    traced_walls: list[float] = field(default_factory=list)
    pass_metrics: list[dict[str, float]] = field(default_factory=list)
    counts_repeat: bool = True
    first_spans: list = field(default_factory=list)


def traced_pass(env: Env, tracer: Tracer, ops: list[Op]):
    with tracer as trace:
        wall, results = run_pass(env, ops)
    output_bytes = sum(len(r.output) + len(r.stdout) for r in results)
    return wall, results, trace, pass_metrics(trace, output_bytes)


def measure_traced(workdir: Path, references: dict[str, str], workload: Workload, seed: int,
                   seconds: float) -> TracedRun:
    """Untraced and traced passes of the same op list, alternating which goes
    first.  The first op list is traced twice: its exact counts must repeat."""
    run = TracedRun()
    for index in _deadline_passes(seconds):
        env = run.set_up(workdir, references)
        tracer = Tracer(env.halfsign)
        ops = workload.draw(pass_rng(workload, seed, index))
        for traced in (index % 2 == 1, index % 2 == 0):
            if not traced:
                wall, results = run_pass(env, ops)
                run.walls.append(wall)
                run.judge_all(env, results)
                continue
            wall, results, trace, metrics = traced_pass(env, tracer, ops)
            run.judge_all(env, results)
            run.traced_walls.append(wall)
            run.pass_metrics.append(metrics)
            if index == 0:
                run.first_spans = trace.spans
                _, again, _, repeat = traced_pass(env, tracer, ops)
                run.judge_all(env, again)
                run.counts_repeat = all(
                    metrics.get(n, 0) == repeat.get(n, 0) for n in EXACT_COUNTS
                )
    return run


def layer_metrics(run: TracedRun) -> dict[str, float]:
    first = run.pass_metrics[0]
    untraced = run.walls
    values: dict[str, float] = {
        "trace.pass_s": statistics.median(run.traced_walls),
        "trace.untraced_pass_s": statistics.median(untraced),
        "trace.overhead_ratio": statistics.median(
            t / u for t, u in zip(run.traced_walls, untraced)
        ) - 1,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = statistics.median(m.get(name, 0.0) for m in run.pass_metrics)
        else:
            values[name] = first.get(name, 0)
    return values


def dominance(workload: Workload, run: TracedRun) -> tuple[bool, str]:
    """The layer the workload is built to stress, checked against the trace."""
    names = {n for m in run.pass_metrics for n in m if n.endswith(".self_s")}
    selfs = {n: statistics.median(m.get(n, 0.0) for m in run.pass_metrics) for n in names}
    functions = {n: v for n, v in selfs.items() if n.count(".") >= 2}
    modules = {n: v for n, v in selfs.items() if n.count(".") == 1}
    pass_s = statistics.median(run.traced_walls)
    if workload.name == "expand-large":
        top = max(functions, key=functions.get)
        ok = top == "qseries.series_mul.self_s" and modules.get("signscan.self_s", 0.0) == 0
        return ok, f"largest self time {top}; signscan {modules.get('signscan.self_s', 0.0):.4f} s"
    if workload.name == "scan-long":
        share = functions.get("signscan.twisted_sequence.self_s", 0.0) / pass_s
        qseries = modules.get("qseries.self_s", 0.0)
        ok = share > 0.5 and qseries < 0.01 * pass_s
        return ok, f"twisted_sequence {share:.1%} of the pass; qseries {qseries:.4f} s"
    top = max(modules, key=modules.get)
    return top == "genfun.self_s", f"largest module {top}"


# ---------------------------------------------------------------------------
# provenance and reporting


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "halfsign").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes(workload),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def report(workload: Workload, args, run: Run, metrics: dict) -> list[str]:
    lines = [f"halfsign benchmark: workload={workload.name} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    samples = {
        "setup_s": (run.setups, "set-ups"),
        "wall_s": (run.walls, "passes"),
        "op_p50_s": (run.latencies, "ops"),
    }
    for name, value in metrics.items():
        note = ""
        if name in samples and not args.trace:
            values, what = samples[name]
            q1, raw, q3 = statistics.quantiles(values, n=4)
            note = (f"raw median {raw:.4f} of {len(values)} {what}, q1 {q1:.4f}, q3 {q3:.4f}; "
                    f"scale {run.speed_scale:.4f}")
        lines.append(f"  {name:40s} {value:>14.6g} {UNITS[name]:6s} {note}")
    cal_q1, cal, cal_q3 = statistics.quantiles(run.calibrations, n=4)
    lines.append(f"  {'calibration':40s} {cal:>14.6g} {'s':6s} median of "
                 f"{len(run.calibrations)}, q1 {cal_q1:.4f}, q3 {cal_q3:.4f}; "
                 f"reference {REFERENCE_CALIBRATION_S}")
    if not args.trace:
        p90 = statistics.quantiles(run.latencies, n=10)[-1]
        beyond = sum(1 for v in run.latencies if v > p90)
        verdict = "" if beyond >= 10 else " (fewer than 10 beyond it: not reportable)"
        lines.append(f"  {'op_p90_s':40s} {p90:>14.6g} {'s':6s} "
                     f"{beyond} of {len(run.latencies)} ops beyond it{verdict}")
    failed = len(run.problems)
    lines.append(f"  {'fail_ratio':40s} {failed / run.attempted:>14.6g} {'ratio':6s} "
                 f"{failed} failed of {run.attempted} ops")
    lines += [f"  FAILED {problem}" for problem in run.problems[:20]]
    return lines


def write_record(workload: Workload, args, record: dict, spans: list | None) -> Path:
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    if spans:
        origin = spans[0].start
        rows = [[s.id, s.parent, s.name, s.start - origin, s.end - origin, s.bookkeeping]
                for s in spans]
        spans_path = results / f"{stem}.spans.json"
        spans_path.write_text(json.dumps(
            {"columns": ["id", "parent", "name", "start", "end", "bookkeeping"], "spans": rows}))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def run_workload(workload: Workload, args) -> int:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        references = load_references()
        if args.trace:
            run = measure_traced(workdir, references, workload, args.seed, args.seconds)
            metrics = layer_metrics(run)
            dominant, detail = dominance(workload, run)
            correct = not run.problems and run.counts_repeat
        else:
            run = measure(workdir, references, workload, args.seed, args.seconds)
            metrics = end_to_end_metrics(run)
            correct = not run.problems
    finally:
        for leftover in workdir.glob("*"):
            leftover.unlink()
        workdir.rmdir()
    lines = report(workload, args, run, metrics)
    record = {
        "provenance": provenance(workload, args),
        "samples": {"set_ups": len(run.setups), "passes": len(run.walls), "ops": run.attempted},
        "metrics": metrics,
        "raw_times": raw_times(run),
        "speed_scale": run.speed_scale,
        "calibrations": run.calibrations,
        "setup_s_all": run.setups,
        "wall_s_all": run.walls,
        "op_latencies": run.latencies,
        "failures": run.problems,
    }
    if args.trace:
        lines.append(f"  exact counts repeat across two traced passes: {run.counts_repeat}")
        lines.append(f"  predicted dominant layer {'confirmed' if dominant else 'NOT confirmed'}: "
                     f"{detail}")
        record["samples"]["traced_passes"] = len(run.traced_walls)
        record.update(counts_repeat=run.counts_repeat, dominance=[dominant, detail],
                      traced_walls=run.traced_walls)
    path = write_record(workload, args, record, run.first_spans if args.trace else None)
    lines.append(f"  record: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, so each has its own peak RSS."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if child.returncode in (0, 1) and lines else None
        if result is None:
            totals["correct"] = False
            continue
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_sources()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
