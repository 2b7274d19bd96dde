"""Benchmark of commspectra: one workload per run, closed loop, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload {sweep,spectrum,ascent,cli,all} \
        --seed N --seconds T --trace {0,1}

A run builds its inputs from ``--seed``, warms up, then times operations for
``--seconds`` (and at least MIN_SAMPLES of them) and checks every output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations on the same inputs and reports
per-layer metrics from the tracer plus the tracing overhead. The last line
of stdout is one JSON object ``{correct, attempted, failed, metrics}``;
the lines before it are a readable table and the environment block.
``--workload all`` runs every workload in its own fresh process.

The BLAS thread count is pinned to 1 before numpy is imported.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "spectrum", "ascent", "cli")
MIN_SAMPLES = 100  # op_ms.p90 needs at least ten samples above it
MAX_LOOP_SECONDS = 120.0  # stop even if MIN_SAMPLES is not reached
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import metric_units

    return {**metric_units(), "traced_op_s": "s/op", "trace_overhead_share": "ratio"}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        ref = head.removeprefix("ref: ")
        commit = (ROOT / ".git" / ref).read_text().strip() if ref != head else head
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_op(wl, x, tracer=None):
    """Time one operation and check its output.

    Returns (wall seconds, CPU seconds, error); error is None, the
    exception the library raised, or the failed check.
    """
    from workloads import CheckFailed

    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out, error = wl.run(x), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, error = None, exc
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        try:
            wl.check(x, out)
        except CheckFailed as exc:
            error = exc
    return wall, cpu, error


def setup_seconds(wl, x) -> float:
    """Median of import plus first op over SETUP_REPEATS fresh interpreters.

    Each probe's CPU time is speed-corrected by the reference kernel timed
    in this (warm) process right before and after the probe; a kernel timed
    inside the fresh interpreter itself reads too unsteadily.
    """
    import speed

    def reference():
        return statistics.median(speed.reference_seconds() for _ in range(3))

    cmd = [sys.executable, str(BENCH / "setup_probe.py"), wl.name, json.dumps(wl.probe_arg(x))]
    times = []
    after = reference()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        before, after = after, reference()
        times.append(speed.corrected(float(proc.stdout.split()[-1]), (before + after) / 2))
    return statistics.median(times)


class Failures:
    """Failed operations by class; prints the first traceback of each."""

    def __init__(self):
        self.by_class = Counter()

    def add(self, error: Exception) -> None:
        name = type(error).__name__
        if not self.by_class[name]:
            traceback.print_exception(error, file=sys.stderr)
        self.by_class[name] += 1

    @property
    def total(self) -> int:
        return sum(self.by_class.values())


class Samples:
    """Per-operation times of one run: raw, traced, and speed-corrected."""

    def __init__(self):
        self.raw, self.traced, self.fixed, self.rates = [], [], [], []


def measure(wl, seconds: float, trace: bool):
    """The timed closed loop. Op 0 is the untimed warm-up.

    The speed reference kernel runs between operations; an untraced
    operation's corrected time is its CPU time scaled by the mean of the
    kernel times on its two sides (see speed.py).
    """
    import speed
    import tracer as tracing

    tr = tracing.Tracer() if trace else None
    samples = Samples()
    failures = Failures()
    attempted = 0
    reference = speed.reference_seconds()
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(samples.raw) >= MIN_SAMPLES) or elapsed >= MAX_LOOP_SECONDS:
            break
        x = wl.make_input(i)
        # in a traced run, alternate which of the pair runs first
        modes = (None, tr) if not trace or i % 2 else (tr, None)
        for mode in modes if trace else (None,):
            dt, cpu, error = run_op(wl, x, mode)
            before, reference = reference, speed.reference_seconds()
            attempted += 1
            if error is not None:
                failures.add(error)
            elif mode is None:
                fixed = speed.corrected(cpu, (before + reference) / 2)
                samples.raw.append(dt)
                samples.fixed.append(fixed)
                samples.rates.append(wl.work(x) / fixed)
            else:
                samples.traced.append(dt)
        i += 1
    return tr, samples, attempted, failures


def known_failures(wl, trace: bool):
    """Run the workload's inputs that are known to fail today, untimed.

    They are kept out of the timed loop so that its failure count does not
    depend on how many operations fit in the time limit: on ``spectrum``
    the extreme-scale inputs (ROADMAP item 4), on ``ascent`` the pool's
    LAPACK non-convergence cases. The share that fails is printed, and the
    traced run counts the failures in ``spectra.failed`` / ``search.failed``.
    """
    import numpy as np
    import tracer as tracing

    probes = wl.probe_inputs()
    if not probes:
        return None, None, 0
    tr = tracing.Tracer() if trace else None
    failures = Counter()
    for x in probes:
        with np.errstate(all="ignore"):  # the overflow is the failure counted
            *_, error = run_op(wl, x, tr)
        if error is not None:
            failures[type(error).__name__] += 1
    return tr, failures, len(probes)


def run_workload(args) -> int:
    import workloads

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stored = json.loads((BENCH / "reference.json").read_text())
        reference_ok = workloads.reference_ok(args.workload, workdir, stored)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first = wl.make_input(0)
        setup = None if args.trace else setup_seconds(wl, first)
        *_, warm_error = run_op(wl, first)
        tr, samples, attempted, failures = measure(wl, args.seconds, bool(args.trace))
        attempted += 1
        if warm_error is not None:
            failures.add(warm_error)
        probe_tr, probe_failures, probes = known_failures(wl, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = tr.per_op(len(samples.traced))
        if probe_tr is not None:
            for name, count in probe_tr.failures().items():
                metrics[name] += count
        metrics["traced_op_s"] = statistics.fmean(samples.traced)
        metrics["trace_overhead_share"] = (
            statistics.median(samples.traced) / statistics.median(samples.raw) - 1.0
        )
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": setup,
            "op_ms.p50": 1e3 * statistics.median(samples.fixed),
            "op_ms.p90": 1e3 * statistics.quantiles(samples.fixed, n=10)[-1],
            "work_per_s": statistics.median(samples.rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload} ({wl.work_unit}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  ops attempted {attempted}, failed {failures.total} "
          f"{dict(failures.by_class)}, timed samples {len(samples.raw)}")
    if not args.trace:
        print(f"  raw wall time: op p50 {1e3 * statistics.median(samples.raw):.6g} ms, "
              f"op p90 {1e3 * statistics.quantiles(samples.raw, n=10)[-1]:.6g} ms "
              f"(time metrics below are speed-corrected, see speed.py)")
    print(f"  fail_share {failures.total / attempted:.6g} ratio")
    if probe_failures is not None:
        print(f"  known-failing probes ({wl.probe_label}, untimed): "
              f"{sum(probe_failures.values())}/{probes} failed "
              f"{dict(probe_failures)}")
    if tr is not None and tr.absent:
        print(f"  absent trace targets: {', '.join(tr.absent)}")
    print(f"  reference values match: {reference_ok}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        # exceptions count as failed operations; wrong outputs make the run incorrect
        "correct": bool(reference_ok and not failures.by_class["CheckFailed"]),
        "attempted": attempted,
        "failed": failures.total,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "commspectra" / "__init__.py").is_file():
        print(f"error: no commspectra sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
