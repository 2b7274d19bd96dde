"""The ten acceptance criteria, one test each, with a PASS/FAIL line apiece.

Criteria 1-3 share one module-scoped ensemble of 10^4 seeded unit-norm
draws over orders 2..8. The 10^4-trial monitor sweep of criterion 8 is
split evenly over the four orders (2500 trials each).
"""
import itertools
import json
import time

import numpy as np
import pytest

from commspectra import (
    LAMBDA13_BOUND,
    SearchConfig,
    ascend,
    bound_report,
    center_normalize,
    check_lu_lemma,
    check_numbers_lemma,
    detect_equality_case,
    detect_rank_one,
    double_commutator_spectrum,
    normal_spectrum,
    random_normal_matrix,
    random_rank_one,
    rank_one_spectrum,
    read_bundle,
    reverify_bundle,
    save_matrix,
    sweep,
    trial_rng,
    unit_gaussian,
    write_bundle,
)
from conftest import random_traceless_embedded

ENSEMBLE_SEED = 20260822
ENSEMBLE_TRIALS = 10_000


def _verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"acceptance criterion {number} ({name}) failed{detail}"


@pytest.fixture(scope="module")
def ensemble():
    """10^4 seeded unit-norm draws, orders 2..8, alternating complex/real."""
    draws = []
    for t in range(ENSEMBLE_TRIALS):
        n = 2 + t % 7
        draws.append(unit_gaussian(trial_rng(ENSEMBLE_SEED, t), n, real=bool(t % 2)))

    t0 = time.monotonic()
    rows = []
    for X in draws:
        spec = double_commutator_spectrum(X)
        trace_target = (
            2.0 * spec.order - 2.0 * abs(np.trace(X)) ** 2 / spec.norm_scale
        )
        rows.append(
            {
                "values": spec.values,
                "clusters": spec.clusters,
                "trace_residual": abs(spec.values.sum() - trace_target),
                "spectrum": spec,
            }
        )
    spectrum_seconds = time.monotonic() - t0

    for X, row in zip(draws, rows):
        br = bound_report(X, spectrum=row["spectrum"])
        row["all_proven_hold"] = br.all_proven_hold
        row["min_slack"] = min(br.slacks.values())
    return {"rows": rows, "spectrum_seconds": spectrum_seconds}


def test_acceptance_1_trace_identity(ensemble, capsys):
    worst = max(row["trace_residual"] for row in ensemble["rows"])
    seconds = ensemble["spectrum_seconds"]
    ok = worst < 1e-9 and seconds < 60.0
    _verdict(
        capsys, 1, "trace identity", ok,
        f" [max residual {worst:.3e}, {seconds:.1f}s for {ENSEMBLE_TRIALS} draws]",
    )


def test_acceptance_2_even_pairing(ensemble, capsys):
    failures = 0
    worst_gap = 0.0
    for row in ensemble["rows"]:
        vals = row["values"]
        for value, mult in row["clusters"]:
            if value > 1e-6 and mult % 2 != 0:
                failures += 1
        for i in range(vals.size // 2):
            if vals[2 * i] > 1e-6:
                gap = abs(vals[2 * i] - vals[2 * i + 1])
                worst_gap = max(worst_gap, gap)
                if gap >= 1e-6:
                    failures += 1
    ok = failures == 0
    _verdict(
        capsys, 2, "even pairing", ok,
        f" [{failures} failures, worst pair gap {worst_gap:.3e}]",
    )


def test_acceptance_3_proven_bound_ladder(ensemble, capsys):
    failures = sum(
        1
        for row in ensemble["rows"]
        if not (row["all_proven_hold"] and row["min_slack"] >= -1e-8)
    )
    worst = min(row["min_slack"] for row in ensemble["rows"])
    ok = failures == 0
    _verdict(
        capsys, 3, "proven bound ladder", ok,
        f" [{failures} failures over {ENSEMBLE_TRIALS} draws, min slack {worst:.3e}]",
    )


def test_acceptance_4_closed_forms(capsys):
    worst_normal = 0.0
    worst_rank_one = 0.0
    failures = 0
    for t in range(500):
        n = 2 + t % 5
        X = random_normal_matrix(trial_rng(ENSEMBLE_SEED, 4, 0, t), n)
        dense = double_commutator_spectrum(X).values
        err = float(np.abs(dense - normal_spectrum(X)).max())
        worst_normal = max(worst_normal, err)
        if err >= 1e-8:
            failures += 1
    for t in range(500):
        n = 2 + t % 5
        X = random_rank_one(trial_rng(ENSEMBLE_SEED, 4, 1, t), n)
        is_r1, trace_abs_sq = detect_rank_one(X)
        dense = double_commutator_spectrum(X).values
        closed = rank_one_spectrum(n, trace_abs_sq)
        err = float(np.abs(dense - closed).max())
        worst_rank_one = max(worst_rank_one, err)
        profile_ok = (
            is_r1
            and abs(closed[0] - (2.0 - trace_abs_sq)) < 1e-12
            and abs(closed[1] - (2.0 - trace_abs_sq)) < 1e-12
            and np.allclose(closed[2 : 2 * n - 2], 1.0, atol=1e-12)
            and np.allclose(closed[2 * n - 2 :], 0.0, atol=1e-12)
        )
        if err >= 1e-8 or not profile_ok:
            failures += 1
    ok = failures == 0
    _verdict(
        capsys, 4, "closed forms", ok,
        f" [max diff normal {worst_normal:.3e}, rank-one {worst_rank_one:.3e}]",
    )


def test_acceptance_5_equality_characterization(capsys):
    failures = 0
    for t in range(200):
        n = 2 + t % 5
        X = random_traceless_embedded(trial_rng(ENSEMBLE_SEED, 5, 0, t), n)
        spec = double_commutator_spectrum(X)
        witness = detect_equality_case(X, spec)
        if not (
            abs(spec.values[0] - 2.0) <= 1e-8
            and witness is not None
            and witness.embedding_residual < 1e-7
        ):
            failures += 1
    accepted = 0
    t = 0
    while accepted < 200 and t < 5000:
        n = 2 + t % 5
        X = unit_gaussian(trial_rng(ENSEMBLE_SEED, 5, 1, t), n)
        t += 1
        spec = double_commutator_spectrum(X)
        if spec.values[0] < 1.99:
            accepted += 1
            if detect_equality_case(X, spec) is not None:
                failures += 1
    ok = failures == 0 and accepted == 200
    _verdict(
        capsys, 5, "equality characterization", ok,
        f" [{failures} failures, {accepted} random draws below 1.99]",
    )


def test_acceptance_6_reference_example(run_cli, capsys):
    t0 = time.monotonic()
    proc = run_cli("verify-paper-example", "--json")
    seconds = time.monotonic() - t0
    ok = proc.returncode == 0
    err_sum = err_cert = float("nan")
    if ok:
        section = json.loads(proc.stdout)["reference_check"]
        err_sum = abs(section["first_four_sum"] - 5.9814)
        err_cert = abs(section["certificate"] - 7.0554)
        ok = err_sum <= 5e-4 and err_cert <= 5e-4 and seconds < 1.0
    _verdict(
        capsys, 6, "reference example", ok,
        f" [errors {err_sum:.2e}/{err_cert:.2e}, {seconds:.2f}s]",
    )


def test_acceptance_7_search_sharpness(run_cli, capsys, tmp_path):
    t0 = time.monotonic()
    proc = run_cli(
        "search", "--n", 2, "--k", 1, "--restarts", 8, "--seed", 0, "--json",
        cwd=tmp_path,
    )
    ok = proc.returncode == 0
    best2 = float("nan")
    if ok:
        section = json.loads(proc.stdout)["search"]
        best2 = section["best_objective"]
        ok = abs(best2 - 4.0) <= 1e-6 and best2 <= section["proven_bound"] + 1e-8

    result = ascend(SearchConfig(order=3, k=2, restarts=200, seed=7))
    best3 = result.best_objective
    under_cap = best3 <= result.proven_bound + 1e-8 and all(
        trace.last_objective <= result.proven_bound + 1e-8
        for trace in result.restarts
    )
    seconds = time.monotonic() - t0
    ok = ok and abs(best3 - 6.0) <= 1e-3 and under_cap and seconds < 300.0
    _verdict(
        capsys, 7, "search sharpness", ok,
        f" [n=2 best {best2:.9f}, n=3 best {best3:.9f}, {seconds:.1f}s]",
    )


def test_acceptance_8_conjecture_monitors(capsys, tmp_path):
    report = sweep([2, 3, 4, 5], trials=2500, seed=ENSEMBLE_SEED)
    violations = sum(len(row["violations"]) for row in report["rows"])
    violations += len(report["majorization_violations"])

    # bundle machinery: force one violation of each monitored kind, then
    # re-verify from the serialized JSON alone
    forced = sweep([2], trials=1, seed=1, tol=-100.0)
    machinery_ok = True
    for bundle, cid in [
        (forced["rows"][0]["violations"][0], "C2A"),
        (forced["majorization_violations"][0], "C4"),
    ]:
        path = tmp_path / f"forced-{cid}.json"
        write_bundle(path, bundle)
        verdict = reverify_bundle(read_bundle(path))
        machinery_ok = machinery_ok and verdict.conjecture_id == cid and verdict.satisfied

    ok = violations == 0 and machinery_ok
    _verdict(
        capsys, 8, "conjecture monitors", ok,
        f" [{violations} violations in 10000 trials, bundle re-verify "
        f"{'ok' if machinery_ok else 'BROKEN'}]",
    )


def test_acceptance_9_scalar_lemma_oracles(capsys):
    # exhaustive sqrt(m)/2 inequality at 2x2: all 16 patterns, squares on a
    # 0.05 grid over the simplex
    t0 = time.monotonic()
    patterns = [
        np.array(bits, dtype=float).reshape(2, 2)
        for bits in itertools.product((0.0, 1.0), repeat=4)
    ]
    grid_points = 0
    failures = 0
    for a in range(21):
        for b in range(21 - a):
            for c in range(21 - a - b):
                d = 20 - a - b - c
                etas = np.sqrt(np.array([a, b]) / 20.0)
                omegas = np.sqrt(np.array([c, d]) / 20.0)
                grid_points += 1
                for R in patterns:
                    if not check_numbers_lemma(etas, omegas, R).satisfied:
                        failures += 1
    numbers_seconds = time.monotonic() - t0

    t0 = time.monotonic()
    for t in range(10_000):
        rng = trial_rng(ENSEMBLE_SEED, 9, t)
        m = 2 + t % 7
        etas = center_normalize(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        r = np.triu(rng.uniform(0.0, 1.0, size=(m, m)), k=1)
        if not check_lu_lemma(etas, r).satisfied:
            failures += 1
    lu_seconds = time.monotonic() - t0

    ok = (
        failures == 0
        and grid_points == 1771
        and numbers_seconds < 30.0
        and lu_seconds < 30.0
    )
    _verdict(
        capsys, 9, "scalar-lemma oracles", ok,
        f" [{grid_points}x16 grid checks in {numbers_seconds:.1f}s, "
        f"10000 random trials in {lu_seconds:.1f}s, {failures} failures]",
    )


def test_acceptance_10_determinism(run_cli, capsys, tmp_path):
    X = unit_gaussian(trial_rng(ENSEMBLE_SEED, 10), 3)
    matrix = tmp_path / "x.json"
    save_matrix(matrix, X)
    # (argv, expected exit code): a violation exits 1, everything else 0.
    commands = [
        (("spectrum", matrix, "--json", "--seed", 7), 0),
        (("bounds", matrix, "--json"), 0),
        (("check", "conj4", matrix, "--json", "--seed", 1), 0),
        (("check", "conj4", matrix, "--json", "--tol", "-1"), 1),  # violation path
        (("closed-form", matrix, "--json"), 0),
        (("search", "--n", 2, "--k", 1, "--restarts", 3, "--seed", 5, "--json"), 0),
        (
            (
                "search", "--objective", "sweep", "--n", "2,3", "--trials", 3,
                "--seed", 2, "--json",
            ),
            0,
        ),
        (("verify-paper-example", "--json"), 0),
    ]
    mismatches = []
    for argv, expected_code in commands:
        first = run_cli(*argv, cwd=tmp_path)
        second = run_cli(*argv, cwd=tmp_path)
        problems = []
        if first.returncode != expected_code or second.returncode != expected_code:
            problems.append(f"expected exit {expected_code}")
        if first.stdout != second.stdout or first.returncode != second.returncode:
            problems.append("reruns differ")
        if not first.stdout.strip():
            problems.append("no JSON")
        if problems:
            stderr = (first.stderr.strip().splitlines() or [""])[0]
            mismatches.append(
                f"{argv[0]} ({', '.join(problems)}; exit {first.returncode}/"
                f"{second.returncode}, stderr: {stderr!r})"
            )
    ok = not mismatches
    _verdict(
        capsys, 10, "determinism", ok,
        f" [{len(commands)} commands re-run byte-identically]"
        if ok
        else f" [mismatched: {mismatches}]",
    )
