"""Rewrite bench/ascent_pool.json: the library seeds the ascent workload uses.

Usage: python3 bench/make_ascent_pool.py

Candidate seed ``j`` is ``op_seed(POOL_ROOT, j)``. Each candidate runs the
ascent operation once; the ones that complete with a correct result form the
pool, and the ones that raise are recorded under ``failing`` with their error
class. A benchmark run draws its timed ascent inputs from the pool (in an
order set by ``--seed``) and runs every ``failing`` seed as an untimed probe,
so the known failures are reported on every run but do not make the timed
loop's failure count depend on how many operations fit in the time limit.

Run it only when a change is meant to move the pool, and say so in the
change. Then rerun bench/make_reference.py, whose ascent value reads the pool.
"""
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

POOL_ROOT = 7
CANDIDATES = 640
# found while building the benchmark: LAPACK zheevd does not converge on the
# step-(b) matrix M of this ascent (zheevr and zheev do)
KNOWN_FAILING = (41524744,)

wl = workloads.Ascent.__new__(workloads.Ascent)
seeds, failing = [], []
for seed in [workloads.op_seed(POOL_ROOT, j) for j in range(CANDIDATES)] + list(KNOWN_FAILING):
    try:
        wl.check(seed, workloads.Ascent.run(seed))
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        failing.append({"seed": seed, "error": type(exc).__name__})
    else:
        if seed not in KNOWN_FAILING:
            seeds.append(seed)
pool = {"root": POOL_ROOT, "candidates": CANDIDATES, "seeds": seeds, "failing": failing}
(BENCH / "ascent_pool.json").write_text(json.dumps(pool, indent=1) + "\n")
print(f"{len(seeds)} seeds in the pool, {len(failing)} failing: {failing}")
