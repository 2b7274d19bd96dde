"""Tests of the benchmark itself (not part of the library suite).

Run from the repository root: python3 -m pytest bench -q
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


@functools.lru_cache(maxsize=None)
def run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(name, trace, kind):
    result = run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared(kind)


def test_workloads_are_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_traced_op_time(name):
    metrics = {k: v["value"] for k, v in run(name, 1)["metrics"].items()}
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    op = metrics["traced_op_s"]
    # time outside every span is only the benchmark's glue around the call
    assert self_total <= op
    assert op - self_total <= op * max(metrics["trace_overhead_share"], 0.02)


def _inputs(name, seed, workdir, count=6):
    wl = workloads.WORKLOADS[name](seed, workdir)
    out = []
    for i in range(count):
        x = wl.make_input(i)
        out.append(json.dumps(wl.probe_arg(x)).replace(str(workdir), "<dir>"))
    if name == "cli":
        out.extend(sorted((p.name, p.read_bytes()) for p in workdir.iterdir() if p.name != "bundle.json"))
    out.extend(json.dumps(wl.probe_arg(x)) for x in wl.probe_inputs()[:3])
    return out


@pytest.mark.parametrize("name", NAMES)
def test_fixed_seed_reproduces_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(name, 11, dirs[0])
    assert first == _inputs(name, 11, dirs[1])
    assert first != _inputs(name, 12, dirs[2])


def test_reference_values_match(tmp_path):
    stored = json.loads((BENCH / "reference.json").read_text())
    for name in NAMES:
        assert workloads.reference_ok(name, tmp_path, stored), name


def test_absent_trace_target_does_not_crash(monkeypatch):
    import commspectra.lifted
    import commspectra.spectra

    monkeypatch.delattr(commspectra.lifted, "double_commutator_lift")
    t = tracer.Tracer()
    assert "lifted.double_commutator_lift" in t.absent
    X = np.eye(3, dtype=complex) + np.diag([1.0, 2.0], 1)
    t.install()
    try:
        commspectra.spectra.double_commutator_spectrum(X)
    finally:
        t.uninstall()
    assert t.calls["spectra"] >= 1 and t.calls["eigensolver"] == 1


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
