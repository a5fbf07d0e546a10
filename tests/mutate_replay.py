#!/usr/bin/env python3
"""Mutation check of the witness replay rules, the text they read (the
certificate parser included), the witness formatter a report runs on
first read, the report's bound rule, run_claim's parameter checks, the
alternating-group claim with its product normal form, the run
configuration's bounds, the element kernels each kind of GF(p^e) binds,
the field check of element operands, the modulus search, the embedding
rule of GF(p) coefficients, evaluation at a point, the nested sums of
substitute, the heap division loop, the shape rules of the staged
division plan and the order/field test that gates it, powering by
halving, the gate and slicing of the Kronecker product, and the
invariant bodies both readings run with the input rules and the field
check of the point reading.

    python3 tests/mutate_replay.py

Each mutant breaks one rule of a target function (TARGETS lists them by
file): it sets one `if` test (or conditional expression) to False, or
drops one operand of an `and`/`or` by putting True (for `and`) or False
(for `or`) in its place; a function in RETURN_TRUE also has each of its
return values set to True.  A target named Class lists every method of
the class, and Class.method one method.  A mutant is named by its
function, its rule text and, after #, its ordinal among the sites with
that text, so one name, and one EQUIVALENT entry, is one site.  The
mutant is written into a copy of src/, and the tests run against it:
first, under -x, the test modules TARGETS names for its file, then,
only if those pass, every module in TESTS.  A mutant that passes TESTS
survives, so the first run only saves time.  The run lists every
survivor and exits 1 when one is not in EQUIVALENT, the mutants that no
input can tell apart from the original.  Before any mutant runs, the
run stops when a name in TARGETS matches no function or an EQUIVALENT
entry matches no mutant (stale lists); tests/test_mutate_lists.py
checks the same in the test suite.  pytest does not collect this file
(its name does not start with test_).
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (file, target functions, the modules of TESTS that run first)
TARGETS = (
    ("src/invar/fsing.py", ("RunConfig.__post_init__", "VerificationReport.__post_init__",
                            "run_claim", "_replay", "_replay_rerun", "_replay_certificates",
                            "_proves", "_alt_params", "_alt_claim", "_delta_remainder",
                            "_witness_text"),
     ("tests/test_fsing.py",)),
    ("src/invar/groebner.py", ("MembershipCertificate.check", "normal_form_of_product",
                               "_divide_heap", "_triangular", "GroebnerBasis.plan"),
     ("tests/test_fsing.py", "tests/test_groebner.py")),
    ("src/invar/polyio.py", ("_parse_header", "parse_certificate_text", "_Tokens",
                             "_parse_term", "_gpoly_rep", "_parse_canonical"),
     ("tests/test_polyio.py",)),
    ("src/invar/gf.py", ("is_prime", "find_irreducible", "_Quotient._bind_prime",
                         "_Quotient._bind_slots", "_Quotient._bind_tables", "_Quotient._bind",
                         "_Quotient._tables", "check_embedding", "FieldElement._coerce",
                         "FieldElement.__eq__"),
     ("tests/test_gf.py",)),
    ("src/invar/mpoly.py", ("Polynomial.evaluate", "substitute", "_power", "_kronecker"),
     ("tests/test_mpoly.py", "tests/test_invariants.py")),
    ("src/invar/invariants.py", ("_point_ops", "_dickson", "_xi", "_relation_sides"),
     ("tests/test_invariants.py", "tests/test_fsing.py")),
)
# MembershipCertificate.check has no if, and or or to mutate
RETURN_TRUE = ("MembershipCertificate.check",)
TESTS = ("tests/test_fsing.py", "tests/test_byte_pin.py",
         "tests/test_acceptance.py", "tests/test_cli.py", "tests/test_polyio.py",
         "tests/test_gf.py", "tests/test_groebner.py", "tests/test_mpoly.py",
         "tests/test_invariants.py")

EQUIVALENT = {
    "_kronecker: if _SWAP -> False #1":
        "_SWAP holds only on a big-endian host, where the slots must be "
        "byteswapped; on a little-endian one the swap never runs",
    "_divide_heap: if entry[0] > key -> False #1":
        "a divisor whose leading key is above the key cannot divide it, so "
        "the divisibility test fails on every entry past that point: the "
        "break only ends the scan early",
}


def _targets(tree, names):
    """(name, node) for each function, class or Class.method of tree
    named in names, in source order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = f"{node.name}.{getattr(item, 'name', '')}"
                if isinstance(item, ast.FunctionDef) and name in names:
                    yield name, item


def _sites(tree, names):
    """(name, apply) for every rule of the named functions, in source
    order; apply() mutates tree in place.  A name is the function, the
    rule text and, after #, the rule's ordinal among the sites with the
    same text, so no two sites share one."""
    sites = []
    for func, top in _targets(tree, names):
        for node in ast.walk(top):
            if isinstance(node, (ast.If, ast.IfExp)):
                sites.append((f"{func}: if {ast.unparse(node.test)} -> False",
                              lambda node=node: setattr(node, "test",
                                                        ast.Constant(False))))
            elif isinstance(node, ast.BoolOp):
                neutral = isinstance(node.op, ast.And)
                for k, operand in enumerate(node.values):
                    sites.append((f"{func}: drop {ast.unparse(operand)}",
                                  lambda node=node, k=k, neutral=neutral:
                                  node.values.__setitem__(k, ast.Constant(neutral))))
            elif isinstance(node, ast.Return) and func in RETURN_TRUE:
                sites.append((f"{func}: return {ast.unparse(node.value)} -> True",
                              lambda node=node: setattr(node, "value",
                                                        ast.Constant(True))))
    named, seen = [], Counter()
    for text, apply in sites:
        seen[text] += 1
        named.append((f"{text} #{seen[text]}", apply))
    return named


def stale_names() -> list:
    """The TARGETS names that match no function and the EQUIVALENT
    entries that match no mutant site, as one list of messages."""
    stale, sites = [], set()
    for path, names, _ in TARGETS:
        tree = ast.parse((ROOT / path).read_text())
        found = {name for name, _ in _targets(tree, names)}
        stale += [f"{path}: no function {name}" for name in names if name not in found]
        sites.update(name for name, _ in _sites(tree, names))
    return stale + [f"EQUIVALENT: no mutant {name!r}" for name in EQUIVALENT
                    if name not in sites]


def _passes(env, tests=TESTS) -> bool:
    """Do the tests pass?  A run past the timeout counts as a fail."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, capture_output=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    if not all(set(own) <= set(TESTS) for _, _, own in TARGETS):
        raise SystemExit("a target's own test modules must be among TESTS")
    stale = stale_names()
    if stale:
        raise SystemExit("stale lists:\n  " + "\n  ".join(stale))
    survivors, count = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        loaded = subprocess.run(
            [sys.executable, "-c", "import invar; print(invar.__file__)"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(loaded).is_relative_to(tmp):
            raise SystemExit(f"the mutants would not be imported: {loaded}")
        sources = {path: (ROOT / path).read_text() for path, _, _ in TARGETS}
        for path, source in sources.items():
            (Path(tmp) / path).write_text(ast.unparse(ast.parse(source)) + "\n")
        if not _passes(env):
            raise SystemExit("the tests fail on the unmutated code")
        for path, names, own in TARGETS:
            target = Path(tmp) / path
            for k in range(len(_sites(ast.parse(sources[path]), names))):
                tree = ast.parse(sources[path])
                name, apply = _sites(tree, names)[k]
                apply()
                target.write_text(ast.unparse(tree) + "\n")
                alive = _passes(env, own) and _passes(env)
                count += 1
                print(f"{'SURVIVED' if alive else 'killed  '} {name}", flush=True)
                if alive:
                    survivors.append(name)
            target.write_text(ast.unparse(ast.parse(sources[path])) + "\n")
    unexplained = [s for s in survivors if s not in EQUIVALENT]
    print(f"{count} mutants, {count - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - len(unexplained)} "
          f"listed as equivalent)")
    for name in survivors:
        print(f"  {name}: {EQUIVALENT.get(name, 'NOT EXPLAINED')}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
