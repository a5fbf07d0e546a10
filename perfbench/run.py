#!/usr/bin/env python3
"""invar benchmark.

    python3 perfbench/run.py --workload {suite-cli,sampling,exact} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Prints every metric as ``name value
unit``, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 measures the end-to-end
metrics; --trace 1 is the separate traced run that gives the per-layer
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops  # noqa: E402  (exits when the checkout holds no invar sources)
import tracing  # noqa: E402
from invar import fsing  # noqa: E402

OUT_DIR = os.path.join(ops.ROOT, ".bench_out")
SETUP_REPEATS = 3       # fresh interpreters per run, about 1 s each
HELP_REPEATS = 9        # a cold --help takes 0.2 s, so it is repeated more
MIN_PASSES = 3          # a median needs three passes, however long they take
CHILD_TIMEOUT = 150


def median(xs):
    return statistics.median(xs)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The benchmark runs on shared hosts whose speed drifts by 30% or more over
# minutes, for CPU time as much as for wall time, and for every kind of
# work at once: set-up, passes and subprocesses slow down together.  So a
# run also times a fixed pure-Python reference loop, in short samples
# spread over the run (between ops, or between subprocesses), and every
# time metric is scaled to the host speed at which one sample takes
# REF_SAMPLE_S of CPU time.  The loop is a sparse polynomial product on
# dicts keyed by exponent tuples, the kind of work invar does, and uses no
# invar code, so a change to invar cannot move it.
REF_SAMPLE_S = 0.005        # about one sample's CPU time on an unloaded host
REF_SAMPLES_PER_OP = 4      # before each op and replay of an in-process pass
REF_SAMPLES_PER_GAP = 40    # before set-up, and after each suite-cli subprocess


def _ref_poly(rng: random.Random) -> dict:
    return {tuple(rng.randrange(4) for _ in range(4)): rng.randrange(1, 101)
            for _ in range(40)}


_REF_RNG = random.Random("perfbench-reference")
_REF_F, _REF_G = _ref_poly(_REF_RNG), _ref_poly(_REF_RNG)


def _ref_product() -> dict:
    out = {}
    for _ in range(2):
        out.clear()
        for ea, ca in _REF_F.items():
            for eb, cb in _REF_G.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = (out.get(e, 0) + ca * cb) % 101
    return out


class HostSpeed:
    """CPU seconds of the reference samples taken in one run."""

    def __init__(self):
        self.cpus = []

    def sample(self, n: int):
        for _ in range(n):
            c0 = time.process_time()
            _ref_product()
            self.cpus.append(time.process_time() - c0)

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the
        reference speed: above 1 when the host ran fast."""
        return REF_SAMPLE_S / statistics.fmean(self.cpus)


# ---------------------------------------------------------------------------
# in-process workloads: sampling, exact
# ---------------------------------------------------------------------------


class PassResult(NamedTuple):
    pass_s: float          # claims, witness documents and replays
    verdict_s: float       # claims only: until every verdict is in
    replay_s: float        # witness documents and replays
    cpu_s: float
    claim_times: list
    op_times: dict         # op label -> wall seconds of its claim or computation
    replay_times: dict     # op label -> wall seconds of its witness and replay
    outcomes: list


def _no_mark(op_id):
    pass


def _no_pause():
    pass


def one_pass(workload: str, k: int, seed: int, ctx: dict,
             mark: Callable = _no_mark, pause: Callable = _no_pause) -> PassResult:
    """Run every op of pass k, then replay every witness.  mark(op_id)
    tells a tracer which op is running; mark(None) ends it.  pause() runs
    before each op and replay, outside the timed segments that make up
    the pass."""
    cs = ops.claim_seed(seed, k)
    pass_ops = ops.pass_ops(workload, cs, ctx)      # inputs, built untimed
    gc.collect()
    results, claim_times, op_times = [], [], {}
    cpu = 0.0
    for op in pass_ops:
        pause()
        mark(f"{k}:{op.label}")
        s, c = time.perf_counter(), time.process_time()
        try:
            results.append((op.run(), None))
        except Exception as exc:              # a failed op, counted below
            results.append((None, exc))
        op_times[op.label] = time.perf_counter() - s
        cpu += time.process_time() - c
        if op.claim:
            claim_times.append(op_times[op.label])
        mark(None)
    replays, replay_times = [], {}
    for op, (res, err) in zip(pass_ops, results):
        if not op.claim or err is not None:
            replays.append((None, None, err))
            continue
        pause()
        mark(f"{k}:{op.label}")
        s, c = time.perf_counter(), time.process_time()
        try:
            doc = fsing.witness_document(res)
            replays.append((doc, fsing.replay_document(doc), None))
        except Exception as exc:
            replays.append((None, None, exc))
        replay_times[op.label] = time.perf_counter() - s
        cpu += time.process_time() - c
        mark(None)
    outcomes = []
    for op, (res, err), (doc, replayed, rerr) in zip(pass_ops, results, replays):
        exc = err or rerr
        if exc is None:
            try:
                outcomes.append(ops.check_op(workload, op, cs, res, doc, replayed))
                continue
            except Exception as check_exc:     # a malformed result
                exc = check_exc
        outcomes.append(ops.Outcome(op.label, "", False, f"{type(exc).__name__}: {exc}"))
    verdict_s, replay_s = sum(op_times.values()), sum(replay_times.values())
    return PassResult(verdict_s + replay_s, verdict_s, replay_s, cpu, claim_times,
                      op_times, replay_times, outcomes)


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter until it has run
    ops.setup and is ready for its first timed pass."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ops.ROOT, env=ops.child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return ready


def measure_inprocess(workload: str, seed: int, seconds: float):
    speed = HostSpeed()
    speed.sample(REF_SAMPLES_PER_GAP)
    setup_s = median([probe_setup(workload, seed) for _ in range(SETUP_REPEATS)])
    ctx = ops.setup(workload, seed)
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        passes.append(one_pass(workload, len(passes), seed, ctx,
                               pause=lambda: speed.sample(REF_SAMPLES_PER_OP)))
    # A typical pass: the median time of each op and of each replay, summed.
    # A burst of host load then spoils only the op it falls on.
    verdict_s = sum(median([p.op_times[label] for p in passes]) for label in passes[0].op_times)
    replayed = {label for p in passes for label in p.replay_times}   # a failed claim has none
    replay_s = sum(median([p.replay_times[label] for p in passes if label in p.replay_times])
                   for label in replayed)
    raw = {"pass_s": verdict_s + replay_s, "verdict_s": verdict_s,
           "cpu_s": median([p.cpu_s for p in passes]), "setup_s": setup_s}
    metrics = {name: (value * speed.scale(), "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    claims = [t for p in passes for t in p.claim_times]
    info = {"scale": speed.scale(), "pass_s_each": [round(p.pass_s, 4) for p in passes]}
    info.update({f"unscaled {name}": value for name, value in raw.items()})
    info.update({"replay_s": replay_s, "claim_s_p50": median(claims),
                 "claims": len(claims)})
    for label in passes[0].op_times:
        info[f"op_s {label}"] = median([p.op_times[label] for p in passes])
    outcomes = [o for p in passes for o in p.outcomes]
    return metrics, info, outcomes


def trace_inprocess(workload: str, seed: int):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    ctx = ops.setup(workload, seed)
    tracer.op = None
    tracer.uninstall()

    plain = one_pass(workload, 0, seed, ctx)
    tracer.install()
    traced = one_pass(workload, 0, seed, ctx, mark=lambda op: setattr(tracer, "op", op))
    tracer.uninstall()
    counter = tracing.ElementCounter()
    counter.install()
    counted = one_pass(workload, 0, seed, ctx,
                       mark=lambda op: setattr(counter, "active", op is not None))
    counter.uninstall()

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"))
    layers = tracing.layer_metrics(tracer.spans, lambda op: op != "setup")
    info = {"plain_pass_s": plain.pass_s, "traced_pass_s": traced.pass_s,
            "replay_s": plain.replay_s, "claim_s_p50": median(plain.claim_times)}
    return layers, counter.counts, info, plain.outcomes + traced.outcomes + counted.outcomes


# ---------------------------------------------------------------------------
# suite-cli
# ---------------------------------------------------------------------------


def run_child(argv, seed: int):
    """One CLI subprocess: (wall s, children CPU s, outcome)."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ops.ROOT, env=ops.child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    return wall, cpu, ops.check_suite(proc.stdout, proc.returncode, seed)


def cold_help() -> float:
    argv = [sys.executable, "-m", "invar.cli", "--help"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ops.ROOT, env=ops.child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("invar --help failed")
    return wall


def measure_suite_cli(seed: int, seconds: float):
    speed = HostSpeed()
    cold_help()                   # untimed: leaves bytecode and file cache warm
    speed.sample(REF_SAMPLES_PER_GAP)
    setup_s = median([cold_help() for _ in range(HELP_REPEATS)])
    walls, cpus, outcomes = [], [], []
    t_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        cs = ops.claim_seed(seed, len(walls))
        wall, cpu, outcome = run_child(ops.suite_argv(cs), cs)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
        speed.sample(REF_SAMPLES_PER_GAP)
    raw = {"pass_s": median(walls), "verdict_s": median(walls), "cpu_s": median(cpus),
           "setup_s": setup_s}
    metrics = {name: (value * speed.scale(), "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                              "MB")
    info = {"scale": speed.scale(), "pass_s_each": [round(w, 4) for w in walls]}
    info.update({f"unscaled {name}": value for name, value in raw.items()})
    return metrics, info, outcomes


def trace_suite_cli(seed: int):
    cs = ops.claim_seed(seed, 0)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-suite-cli-{seed}.json")
    counts_path = os.path.join(OUT_DIR, f"counts-suite-cli-{seed}.json")
    tracer_argv = [sys.executable, os.path.join(HERE, "trace_cli.py")]
    suite_args = ops.suite_argv(cs)[3:]           # drop "python -m invar.cli"
    for path in (spans_path, counts_path):
        if os.path.exists(path):
            os.remove(path)                       # never read a stale record
    plain, _, o1 = run_child(ops.suite_argv(cs), cs)
    traced, _, o2 = run_child(tracer_argv + ["spans", spans_path] + suite_args, cs)
    _, _, o3 = run_child(tracer_argv + ["counts", counts_path] + suite_args, cs)
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    with open(counts_path, encoding="utf-8") as fh:
        counts = json.load(fh)
    layers = tracing.layer_metrics(spans, lambda op: True)
    info = {"plain_pass_s": plain, "traced_pass_s": traced}
    return layers, counts, info, [o1, o2, o3]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_rate": "1/s"}


def layer_unit(name: str) -> str:
    if name.startswith("gf.mul_rate."):
        return "1/s"
    if name == "trace.overhead":
        return "ratio"
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.trace:
        if args.workload == "suite-cli":
            layers, counts, info, outcomes = trace_suite_cli(args.seed)
        else:
            layers, counts, info, outcomes = trace_inprocess(args.workload, args.seed)
        values = dict(layers)
        for name in set(tracing.ELEMENT_OPS.values()):
            values[name] = counts.get(name, 0)
        gc.collect()
        values.update(tracing.kernel_rates())   # after the pass: it builds fields
        values["trace.overhead"] = info["traced_pass_s"] / info["plain_pass_s"]
        metrics = {name: (v, layer_unit(name)) for name, v in sorted(values.items())}
    else:
        if args.workload == "suite-cli":
            metrics, info, outcomes = measure_suite_cli(args.seed, args.seconds)
        else:
            metrics, info, outcomes = measure_inprocess(args.workload, args.seed,
                                                        args.seconds)

    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {o.label}: {o.why}", file=sys.stderr)
    for key, val in info.items():
        print(f"# {key} {val}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {len(failed) / len(outcomes)} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
