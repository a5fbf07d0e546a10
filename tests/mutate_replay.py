#!/usr/bin/env python3
"""Mutation check of the witness replay rules.

    python3 tests/mutate_replay.py

Each mutant of src/invar/fsing.py breaks one rule of a replay function:
it sets one `if` test (or conditional expression) to False, or drops one
operand of an `and`/`or` by putting True (for `and`) or False (for `or`)
in its place.  The mutant is written into a copy of src/, and the replay
tests run against it; a mutant that passes them all survives.  The run
lists every survivor and exits 1 when one is not in EQUIVALENT, the
mutants that no input can tell apart from the original.  pytest does not
collect this file (its name does not start with test_).
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = ("_replay", "_replay_identity", "_replay_closure", "_replay_exponents",
             "_replay_certificates", "_replay_normal_form", "_proves")
TESTS = ("tests/test_fsing.py", "tests/test_byte_pin.py",
         "tests/test_acceptance.py", "tests/test_cli.py")

EQUIVALENT = {
    "_replay_exponents: if any((tuple(t) not in sols for t in full)) -> False":
        "a full tuple that passes every check solves the equation, and the "
        "digit search finds every solution",
    "_replay_exponents: if q >= 4 * n - 4 and (sols or lam['solutions']) -> False":
        "for q >= 4n-4 the theorem leaves sols empty and lambda(q+1) = "
        "2nq-2n-q+3 has no solution in [1, 2n-2]",
    "_replay_exponents: drop sols":
        "for q >= 4n-4 both sols and the lambda solutions are empty",
    "_replay_exponents: drop lam['solutions']":
        "for q >= 4n-4 both sols and the lambda solutions are empty",
}


def _sites(tree):
    """(name, apply) for every rule of the replay functions, in source
    order; apply() mutates tree in place."""
    sites = []
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name in FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.If, ast.IfExp)):
                sites.append((f"{func.name}: if {ast.unparse(node.test)} -> False",
                              lambda node=node: setattr(node, "test",
                                                        ast.Constant(False))))
            elif isinstance(node, ast.BoolOp):
                neutral = isinstance(node.op, ast.And)
                for k, operand in enumerate(node.values):
                    sites.append((f"{func.name}: drop {ast.unparse(operand)}",
                                  lambda node=node, k=k, neutral=neutral:
                                  node.values.__setitem__(k, ast.Constant(neutral))))
    return sites


def _passes(env) -> bool:
    """Do the replay tests pass?  A run past the timeout counts as a fail."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *TESTS], cwd=ROOT, env=env, capture_output=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    path = ROOT / "src" / "invar" / "fsing.py"
    source = path.read_text()
    count = len(_sites(ast.parse(source)))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        target = Path(tmp) / "src" / "invar" / "fsing.py"
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        loaded = subprocess.run(
            [sys.executable, "-c", "import invar.fsing; print(invar.fsing.__file__)"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        if Path(loaded) != target:
            raise SystemExit(f"the mutants would not be imported: {loaded}")
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        if not _passes(env):
            raise SystemExit("the tests fail on the unmutated code")
        for k in range(count):
            tree = ast.parse(source)
            name, apply = _sites(tree)[k]
            apply()
            target.write_text(ast.unparse(tree) + "\n")
            alive = _passes(env)
            print(f"{'SURVIVED' if alive else 'killed  '} {name}", flush=True)
            if alive:
                survivors.append(name)
    unexplained = [s for s in survivors if s not in EQUIVALENT]
    print(f"{count} mutants, {count - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - len(unexplained)} "
          f"listed as equivalent)")
    for name in survivors:
        print(f"  {name}: {EQUIVALENT.get(name, 'NOT EXPLAINED')}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
