"""Record the reference digest of every op any workload can draw.

    python3 perfbench/record_references.py

Writes perfbench/references.json.  Run it only at a commit whose outputs
are trusted: the benchmark counts every later output that differs from
these digests as a failed op.  An op that fails its exit code or spot check
here is not recorded, and the script exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import OUT_DIR, REFERENCES, Env, judge, run_op, set_up  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402


def record(env: Env, ops: list[Op]) -> tuple[dict[str, str], list[str]]:
    """Digests of the ops that pass every other check, and the failures.

    Each digest is entered into env.references first, so that judge() runs
    the exit-code and spot checks against the output just produced."""
    digests, problems = {}, []
    for op in ops:
        result = run_op(env, op, env.workdir / "reference.out")
        env.references[op.key] = result.digest
        problem = judge(env, result)
        if problem:
            problems.append(f"{op.key}: {problem}")
        else:
            digests[op.key] = result.digest
    return digests, problems


def main() -> int:
    workdir = OUT_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    env = set_up(workdir, references={})
    digests, problems = {}, []
    for workload in WORKLOADS.values():
        found, failed = record(env, workload.every_op())
        digests.update(found)
        problems += failed
        print(f"{workload.name}: {len(found)} ops recorded, {len(failed)} failed", flush=True)
    workdir.rmdir()
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if problems:
        return 1
    REFERENCES.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
