"""Workload definitions: the ops of one pass, their seeded inputs, set-up,
and the correctness gate that every op result goes through.

Every input is derived from the workload seed.  The claim seed of timed
pass k is ``workload_seed * 1000 + k``, so workload seed 0 runs its first
pass at invar's default claim seed 0, the one whose witness digests are
stored in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Import invar from the checkout's own source tree, never from elsewhere.
# Layer functions are called through their modules (gf.field, not field)
# so that the tracer's rebinding reaches every call the benchmark makes.
if not os.path.isfile(os.path.join(SRC, "invar", "__init__.py")):
    raise SystemExit(f"perfbench: no invar sources under {SRC}")
sys.path.insert(0, SRC)

import invar  # noqa: E402
from invar import fsing, gf, groebner, invariants, polyio  # noqa: E402
from invar.fsing import RunConfig  # noqa: E402

if not os.path.abspath(invar.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"perfbench: imported invar from {invar.__file__}, not {SRC}")

WORKLOADS = ("suite-cli", "sampling", "exact")
DEFAULT_CLAIM_SEED = 0

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def claim_seed(workload_seed: int, k: int) -> int:
    return workload_seed * 1000 + k


def sub_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Op(NamedTuple):
    label: str                     # stable name, the key of the expected tables
    run: Callable                  # () -> VerificationReport, or a plain result
    claim: bool                    # True: run() returns a report with a witness
    verdict: Callable = None       # plain result -> verdict string


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def mutate_c0_terms(rng: random.Random) -> tuple:
    """One corruption of the stored q = 3 c_0 expression: flip the sign
    of one term, or move one exponent by +-1."""
    terms = [[c, list(e)] for c, e in fsing.C0_XI_TERMS[3]]
    k = rng.randrange(len(terms))
    if rng.random() < 0.5:
        terms[k][0] = -terms[k][0]
    else:
        while True:
            j = rng.randrange(3)
            delta = rng.choice((-1, 1))
            if terms[k][1][j] + delta >= 0:
                terms[k][1][j] += delta
                break
    return tuple((c, tuple(e)) for c, e in terms)


def sampling_ops(cs: int, trials: int = 20) -> list:
    cfg = RunConfig(seed=cs, trials=trials)
    ops = [
        Op("relations-n3 q=2", lambda: fsing.run_claim("relations-n3", cfg, q=2), True),
        Op("relations-n3 q=3", lambda: fsing.run_claim("relations-n3", cfg, q=3), True),
        Op("sp4-c0 q=3 probabilistic", lambda: fsing.run_claim(
            "sp4-c0", cfg, q=3, mode="probabilistic"), True),
        Op("sp4-relation q=2 probabilistic", lambda: fsing.run_claim(
            "sp4-relation", cfg, q=2, mode="probabilistic"), True),
        Op("sp4-relation q=3 probabilistic", lambda: fsing.run_claim(
            "sp4-relation", cfg, q=3, mode="probabilistic"), True),
    ]
    for q, e in ((2, 8), (3, 6)):
        small = RunConfig(seed=cs, trials=trials, ext_degree=e)
        ops.append(Op(f"relations-n3 q={q} ext_degree={e}",
                      lambda small=small, q=q: fsing.run_claim("relations-n3", small, q=q),
                      True))
    for j in (1, 2):
        terms = mutate_c0_terms(sub_rng(cs, f"mutant-{j}"))
        ops.append(Op(f"sp4-c0 q=3 mutant-{j}",
                      lambda terms=terms: fsing.verify_c0_expression(
                          3, cfg, mode="probabilistic", terms=terms), True))
    return ops


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


# Nonzero entries per column of the seeded matrices.  The cost of
# apply_matrix grows steeply with the number of terms in each substituted
# linear form (0.1 s to 2.7 s for c_0 over GF(3)), so a fixed pattern keeps
# the work of a pass the same for every seed; positions and values vary.
MATRIX_COLUMN_WEIGHTS = (3, 2, 3, 2)


def invertible_f3_matrix(rng: random.Random):
    F3 = gf.field(3)
    while True:
        rows = [[0] * 4 for _ in range(4)]
        for j, weight in enumerate(MATRIX_COLUMN_WEIGHTS):
            for i in rng.sample(range(4), weight):
                rows[i][j] = rng.randrange(1, 3)
        M = invariants.MatrixGF.from_rows(F3, rows)
        if M.det():
            return M


def _basis_verdict(basis) -> str:
    return "basis " + sha256(polyio.format_polys(basis.ring, list(basis)))


def _polys_verdict(polys) -> str:
    return "polys " + sha256(polyio.format_polys(polys[0].ring, polys))


def exact_ops(cs: int, ctx: dict) -> list:
    cfg = RunConfig(seed=cs, alt_nmax=7)
    # p = 3 and p = n = 7 are members with certificates, p = 11 a non-member
    ops = [Op(f"alt-dichotomy n=7 p={p}",
              lambda p=p: fsing.run_claim("alt-dichotomy", cfg, n=7, p=p), True)
           for p in (3, 7, 11)]
    ops += [
        Op("alt-T n=7 p=5", lambda: fsing.run_claim("alt-T", cfg, n=7, p=5), True),
        Op("sp4-c0 q=3 exact", lambda: fsing.run_claim("sp4-c0", cfg, q=3, mode="exact"), True),
        Op("sp4-fpurity q=3", lambda: fsing.run_claim("sp4-fpurity", cfg, q=3), True),
        Op("buchberger e1..e8 GF(7)", lambda: groebner.buchberger(ctx["sym8"]), False,
           _basis_verdict),
        Op("dickson_invariants(4, GF(5))",
           lambda: invariants.dickson_invariants(4, gf.field(5)), False, _polys_verdict),
    ]
    c0 = ctx["c0"]
    for j in (1, 2):
        M = invertible_f3_matrix(sub_rng(cs, f"matrix-{j}"))
        ops.append(Op(f"apply_matrix(c_0, M{j})",
                      lambda M=M: invariants.apply_matrix(c0, M) == c0, False,
                      lambda same: "INVARIANT" if same else "MOVED"))
    return ops


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int) -> dict:
    """Everything a process does before its first timed pass: build the
    fields and cached bases the ops read, then one untimed warm-up of
    every code path.  The warm-up is a reduced pass (one sample per
    probabilistic check; the light exact ops only), so that set-up can be
    repeated several times in a run."""
    if workload == "sampling":
        for p, e in ((2, 32), (3, 32), (2, 8), (3, 6)):
            gf.field(p, e)
        warm = sampling_ops(claim_seed(seed, 999), trials=1)
        ctx = {}
    elif workload == "exact":
        for p in (3, 5, 7, 11):
            fsing.symmetric_ideal_gb(7, p)
        R8 = invariants.xring(gf.field(7), 8)
        ctx = {"sym8": [invariants.elementary_symmetric(R8, k) for k in range(1, 9)],
               "c0": invariants.dickson_invariants(4, gf.field(3))[0]}
        light = ("alt-T n=7 p=5", "sp4-c0 q=3 exact", "sp4-fpurity q=3",
                 "buchberger e1..e8 GF(7)")
        warm = [op for op in exact_ops(claim_seed(seed, 999), ctx) if op.label in light]
    else:
        raise ValueError(f"no in-process set-up for {workload!r}")
    for op in warm:
        out = op.run()
        if op.claim:
            fsing.replay_document(fsing.witness_document(out))
    return ctx


def pass_ops(workload: str, cs: int, ctx: dict) -> list:
    if workload == "sampling":
        return sampling_ops(cs)
    return exact_ops(cs, ctx)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class Outcome(NamedTuple):
    label: str
    verdict: str
    ok: bool
    why: str


def check_op(workload: str, op: Op, cs: int, result, doc: Optional[str],
             replayed: Optional[bool]) -> Outcome:
    """Compare one op's verdict (and, at the default claim seed, its
    witness digest) with the expected tables."""
    if op.claim:
        verdict = result.verdict
    else:
        verdict = op.verdict(result)
    want = EXPECTED[workload]["verdicts"].get(op.label)
    if verdict != want:
        return Outcome(op.label, verdict, False, f"verdict {verdict!r}, expected {want!r}")
    if op.claim:
        if not replayed:
            return Outcome(op.label, verdict, False, "witness replay returned False")
        if cs == DEFAULT_CLAIM_SEED:
            want_digest = EXPECTED[workload]["witness_sha256"][op.label]
            if sha256(doc) != want_digest:
                return Outcome(op.label, verdict, False, "witness digest mismatch")
    return Outcome(op.label, verdict, True, "")


# ---------------------------------------------------------------------------
# suite-cli
# ---------------------------------------------------------------------------

SUITE_RECORDS = 64
_ELAPSED = re.compile(r" elapsed-ms=\d+")
_SEED = re.compile(r" seed=\d+")


def suite_argv(seed: int) -> list:
    return [sys.executable, "-m", "invar.cli", "suite", "full",
            "--output", "machine", "--seed", str(seed)]


def child_env() -> dict:
    """Environment for invar subprocesses: the checkout's sources first,
    and no INVAR_* overrides from the caller's shell."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INVAR_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_suite(stdout: str, returncode: int, seed: int) -> Outcome:
    if returncode != 0:
        return Outcome("suite", "", False, f"exit status {returncode}")
    lines = stdout.splitlines()
    if len(lines) != SUITE_RECORDS:
        return Outcome("suite", "", False, f"{len(lines)} records, expected {SUITE_RECORDS}")
    stripped = [_SEED.sub("", _ELAPSED.sub("", ln)) for ln in lines]
    if stripped != EXPECTED["suite-cli"]["records"]:
        bad = next(i for i, (a, b) in enumerate(zip(stripped, EXPECTED["suite-cli"]["records"]))
                   if a != b)
        return Outcome("suite", "", False, f"record {bad + 1} differs: {stripped[bad]!r}")
    if seed == DEFAULT_CLAIM_SEED:
        digest = sha256(_ELAPSED.sub("", stdout))
        if digest != EXPECTED["suite-cli"]["stdout_sha256"]:
            return Outcome("suite", "", False, "stdout digest mismatch")
    return Outcome("suite", "64 records", True, "")
