"""One cold set-up of an in-process workload, for timing from outside.

    python3 perfbench/setup_probe.py {sampling,exact} SEED

Imports invar, runs ops.setup, prints ``ready`` and exits.  run.py times
it from process start to that line.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402

ops.setup(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
