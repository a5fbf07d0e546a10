"""Run the invar CLI with the benchmark's tracing installed.

    python3 perfbench/trace_cli.py {spans,counts} OUT_JSON CLI_ARGS...

``spans`` records layer spans for the whole command (one op, id "cli");
``counts`` counts FieldElement operators instead.  The record is written
to OUT_JSON when the command exits; the exit status is the CLI's.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402,F401  (puts the checkout's invar first on sys.path)
import tracing  # noqa: E402
import invar.cli  # noqa: E402

mode, out_path = sys.argv[1], sys.argv[2]
sys.argv = ["invar"] + sys.argv[3:]
if mode == "spans":
    recorder = tracing.Tracer()
    recorder.install()
    recorder.op = "cli"
else:
    recorder = tracing.ElementCounter()
    recorder.install()
    recorder.active = True
try:
    invar.cli.main()
finally:
    recorder.uninstall()
    if mode == "spans":
        recorder.dump(out_path)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.counts, fh)
