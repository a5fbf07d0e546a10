"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS/FAIL" line (visible under pytest -s); the asserts
carry the same condition so the suite stays honest without the flag.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from invar.fsing import (C0_XI_TERMS, bound_text, replay_witness,
                         sp4_fpurity_check, theorem_exponent_search,
                         verify_c0_expression, verify_relations_n3,
                         verify_sp4_relation, run_claim)
from invar.gf import field
from invar.invariants import dickson_invariants, symplectic_xi, xring
from oracles import mutated_c0_terms

BOUND_CAP = Fraction(1, 2 ** 60)

TESTS = Path(__file__).resolve().parent


def _report(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_q2_identity():
    t0 = time.perf_counter()
    rep = verify_c0_expression(2, mode="exact")
    # and the displayed three-term shape, independent of the registry
    R = xring(field(2), 4)
    c0 = dickson_invariants(4, field(2), R)[0]
    x1, x2, x3 = (symplectic_xi(R, 2, i) for i in (1, 2, 3))
    direct = x1 ** 5 + x2 ** 3 + x3 * x1 ** 2
    dt = time.perf_counter() - t0
    ok = rep.verdict == "VERIFIED" and direct == c0 and dt < 5.0
    _report(1, ok, f"c0 = xi1^5 + xi2^3 + xi3 xi1^2 over GF(2), {dt:.2f}s")


def test_criterion_2_q3_identity():
    t0 = time.perf_counter()
    pre = verify_c0_expression(3, mode="probabilistic")
    t_pre = time.perf_counter() - t0
    pre_ok = (pre.verdict == "PROBABLE" and pre.bound is not None
              and pre.bound <= BOUND_CAP and t_pre < 5.0
              and pre.parameters["trials"] == 20
              and pre.parameters["ext_degree"] == 32)
    t0 = time.perf_counter()
    rep = verify_c0_expression(3, mode="exact")
    t_exact = time.perf_counter() - t0
    ok = pre_ok and rep.verdict == "VERIFIED" and t_exact < 600.0
    _report(2, ok, f"six-term c0 over GF(3): precheck bound {bound_text(pre.bound)} "
                   f"in {t_pre:.2f}s, exact in {t_exact:.2f}s")


def test_criterion_3_relation_identity():
    results = {q: verify_sp4_relation(q, mode="exact") for q in (2, 3)}
    ok = all(r.verdict == "VERIFIED" for r in results.values())
    _report(3, ok, "xi1 c0 = xi1^q c2 - xi2^q c3 + xi3^q exact for q = 2, 3")


def test_criterion_4_non_fpurity_witnesses():
    closure_es = {}
    replays = {}
    for q in (2, 3):
        rep = sp4_fpurity_check(q)
        closure_es[q] = (rep.verdict, rep.witness["e"])
        replays[q] = replay_witness(rep.claim_id, rep.parameters, rep.witness)
    ok = all(v == ("VERIFIED", 1) for v in closure_es.values()) and \
        all(replays.values())
    _report(4, ok, f"w enters the raised ideal at e = 1 for q = 2, 3; "
                   f"certificates replay: {replays}")


def test_criterion_5_theorem_counting():
    t0 = time.perf_counter()
    empties = [(2, 4), (2, 5), (2, 7), (2, 8), (3, 8), (3, 9)]
    results = {}
    agree = True
    for n, q in empties + [(2, 3)]:
        pruned = theorem_exponent_search(n, q, prune=True)
        full = theorem_exponent_search(n, q, prune=False)
        agree = agree and pruned == full
        results[(n, q)] = pruned
    dt = time.perf_counter() - t0
    ok = (all(results[key] == frozenset() for key in empties)
          and results[(2, 3)] == frozenset({(1, 2, 2)})
          and agree and dt < 60.0)
    _report(5, ok, f"empty for {empties}, (1,2,2) at (2,3), "
                   f"pruned == full, {dt:.2f}s")


def test_criterion_6_alternating_suite():
    t0 = time.perf_counter()
    bad = []
    for n in (3, 4, 5, 6):
        for p in (3, 5, 7):
            for cid in ("alt-T", "alt-staircase", "alt-delta",
                        "alt-dichotomy"):
                rep = run_claim(cid, n=n, p=p)
                if rep.verdict != "VERIFIED":
                    bad.append((cid, n, p, rep.verdict))
                if cid == "alt-dichotomy":
                    member = rep.witness["kind"] == "certificates"
                    if member != (p <= n):
                        bad.append((cid, n, p, "dichotomy direction"))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 300.0
    _report(6, ok, f"4 lemmas x 12 grid points, Delta in I iff p <= n, "
                   f"{dt:.2f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_7_n3_relations():
    rep = verify_relations_n3(2)
    indices = [item["i"] for item in rep.witness["items"]]
    ok = (rep.verdict == "PROBABLE" and rep.bound <= BOUND_CAP
          and indices == [1, 2])
    _report(7, ok, f"2n = 6, q = 2, i in {{1, 2}}, bound {bound_text(rep.bound)}")


def test_criterion_8_property_suites():
    nodes = [
        "test_gf.py::test_field_axioms_exhaustive",
        "test_mpoly.py::test_freshman_dream_many_pairs",
        "test_groebner.py::test_reduced_basis_is_unique_under_shuffling",
        "test_groebner.py::test_membership_matches_linear_algebra_oracle",
        "test_groebner.py::test_membership_oracle_four_vars_through_degree_12",
        "test_invariants.py::test_dickson_gl_invariance_exact",
        "test_invariants.py::test_dickson_gl4_invariance_numeric",
        "test_invariants.py::test_xi_invariance_exact",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--no-header"]
        + [str(TESTS / node) for node in nodes],
        capture_output=True, text=True)
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else "no output"
    _report(8, ok, f"property suites ({len(nodes)} node ids): {tail}")


def test_criterion_9_mutation_robustness():
    verdicts = []
    for k in range(10):
        bad = mutated_c0_terms(3, random.Random(9000 + k))
        assert bad != C0_XI_TERMS[3]
        rep = verify_c0_expression(3, mode="probabilistic", terms=bad)
        verdicts.append(rep.verdict)
    ok = verdicts == ["REFUTED"] * 10
    _report(9, ok, f"10 mutated q = 3 expressions: {verdicts}")
