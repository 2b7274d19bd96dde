"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD ARG_JSON

Prints the CPU seconds (see speed.py) spent on ``import commspectra`` plus
the workload's first operation, whose input ARG_JSON comes from ``probe_arg``. That includes lazy
set-up such as importing jsonschema and loading the report schema. The
parent pins the BLAS thread count in the environment this process inherits.
"""
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
name, arg = sys.argv[1], json.loads(sys.argv[2])
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.process_time()
import commspectra  # noqa: E402,F401
import workloads  # noqa: E402

workload = workloads.WORKLOADS[name]
try:
    workload.run(workload.from_probe_arg(arg))
except Exception:  # a failed first operation still paid the set-up
    pass
print(time.process_time() - t0)
