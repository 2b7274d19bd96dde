"""Rewrite bench/reference.json from the library as it is now.

Usage: python3 bench/make_reference.py

Run it only when a change is meant to move the reference values, and say so
in the change; every benchmark run compares against the stored file.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workdir = BENCH.parent / ".bench_tmp" / "reference"
workdir.mkdir(parents=True, exist_ok=True)
try:
    values = {name: workloads.reference_values(name, workdir) for name in workloads.WORKLOADS}
finally:
    shutil.rmtree(workdir.parent, ignore_errors=True)
(BENCH / "reference.json").write_text(json.dumps(values, indent=1) + "\n")
