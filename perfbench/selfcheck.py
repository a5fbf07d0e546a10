#!/usr/bin/env python3
"""Self-check of the benchmark's correctness gate.

    python3 perfbench/selfcheck.py

Runs one pass of every workload at the workload seeds 0 and 1,
checks each op against perfbench/expected.json (verdicts always; witness
and stdout digests at the default claim seed), and asserts that the two
verdict tables are identical.  Exits 0 when everything holds.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402
import run  # noqa: E402


def verdict_table(workload: str, seed: int) -> list:
    if workload == "suite-cli":
        cs = ops.claim_seed(seed, 0)
        _, _, outcome = run.run_child(ops.suite_argv(cs), cs)
        outcomes = [outcome]
    else:
        ctx = ops.setup(workload, seed)
        outcomes = run.one_pass(workload, 0, seed, ctx).outcomes
    for o in outcomes:
        status = "ok" if o.ok else f"FAILED: {o.why}"
        print(f"{workload} seed={seed} {o.label}: {o.verdict} {status}")
    if not all(o.ok for o in outcomes):
        raise SystemExit(f"{workload}: seed {seed} fails the correctness gate")
    return [(o.label, o.verdict) for o in outcomes]


def main() -> int:
    for workload in ops.WORKLOADS:
        if verdict_table(workload, 0) != verdict_table(workload, 1):
            raise SystemExit(f"{workload}: verdict tables differ between seeds")
    print("selfcheck: all verdict tables match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
