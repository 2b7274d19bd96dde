"""Command-line interface: exit codes, report schema, determinism, bundles."""
import dataclasses
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from commspectra import (
    gaussian_matrix,
    haar_unitary,
    read_bundle,
    reverify_bundle,
    save_matrix,
    trial_rng,
    unit_gaussian,
    unvec,
    vec,
)
from commspectra import cli, ensembles, matrixio, search, spectra
from commspectra.search import VIOLATION_MARGIN
from commspectra.verdicts import HYPOTHESIS_TOL, make_bundle
from conftest import assert_report_valid, make_maximal_pair


@pytest.fixture
def matrix_file(tmp_path):
    X = unit_gaussian(trial_rng(90, 0), 3)
    path = tmp_path / "x.json"
    save_matrix(path, X)
    return path


def test_spectrum_human_output(run_cli, matrix_file):
    proc = run_cli("spectrum", matrix_file)
    assert proc.returncode == 0
    assert "values:" in proc.stdout
    assert "clusters:" in proc.stdout
    assert "pairing_ok: True" in proc.stdout


def test_spectrum_json_report_is_schema_valid(run_cli, matrix_file):
    proc = run_cli("spectrum", matrix_file, "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert_report_valid(report)
    assert report["command"] == "spectrum"
    assert report["exit_code"] == 0
    assert report["timing"] is None
    assert report["inputs"][0]["sha256"] == hashlib.sha256(matrix_file.read_bytes()).hexdigest()
    assert len(report["spectrum"]["values"]) == 9
    assert report["spectrum"]["trace_residual"] < 1e-9


def test_reports_are_byte_identical_across_reruns(run_cli, matrix_file):
    a = run_cli("spectrum", matrix_file, "--json", "--seed", 3)
    b = run_cli("spectrum", matrix_file, "--json", "--seed", 3)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_file_matches_stdout_json(run_cli, matrix_file, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("spectrum", matrix_file, "--json", "--out", out)
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_out_file_written_even_without_json_flag(run_cli, matrix_file, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("bounds", matrix_file, "--out", out)
    assert proc.returncode == 0
    assert_report_valid(json.loads(out.read_text()))
    assert "all proven bounds hold: True" in proc.stdout


def test_bounds_json(run_cli, matrix_file):
    proc = run_cli("bounds", matrix_file, "--json")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert report["bounds"]["all_proven_hold"] is True
    assert set(report["bounds"]["bounds"]) == {
        "bw", "norm22", "cx", "min_bound", "k1_entrywise",
        "lambda13_weak", "partial_sum_weak",
    }


def test_check_conj2_satisfied_at_equality(run_cli, tmp_path):
    X, Y = make_maximal_pair(2)
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    save_matrix(px, X)
    save_matrix(py, Y)
    proc = run_cli("check", "conj2", px, py, "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    verdict = report["verdicts"][0]
    assert verdict["satisfied"] is True
    assert verdict["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert verdict["rhs"] == pytest.approx(2.0, abs=1e-9)
    assert report["bundle_path"] is None


def test_check_forced_violation_writes_reverifiable_bundle(run_cli, matrix_file, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    proc = run_cli(
        "check", "conj4", matrix_file, "--tol", "-1", "--json",
        "--bundle-out", bundle_path,
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["exit_code"] == 1
    assert report["bundle_path"] == str(bundle_path)
    verdict = reverify_bundle(read_bundle(bundle_path))
    assert verdict.conjecture_id == "C4"
    assert verdict.satisfied  # the breach was forced by the negative tolerance


def test_check_lu_and_numbers_payloads(run_cli, tmp_path):
    r = 1.0 / np.sqrt(2.0)
    lu = tmp_path / "lu.json"
    lu.write_text(json.dumps({"etas": [r, -r], "r": [[0.0, 2.0], [0.0, 0.0]]}))
    proc = run_cli("check", "lu", lu, "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"][0]["lhs"] == pytest.approx(4.0)

    num = tmp_path / "num.json"
    num.write_text(json.dumps({"etas": [r], "omegas": [r], "r": [[1.0]]}))
    proc = run_cli("check", "numbers", num)
    assert proc.returncode == 0
    assert "satisfied" in proc.stdout


def test_check_isotropic_family_files(run_cli, tmp_path, isotropic_family):
    X = unit_gaussian(trial_rng(91, 0), 2)
    fam = isotropic_family(X, 2, trial_rng(91, 1))
    paths = [tmp_path / "x.json", tmp_path / "w1.json", tmp_path / "w2.json"]
    for path, M in zip(paths, [X] + fam):
        save_matrix(path, M)
    proc = run_cli("check", "isotropic", *paths, "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"][0]["satisfied"] is True


def test_check_hypothesis_failure_is_input_error(run_cli, tmp_path):
    # non-orthonormal family: the hypotheses do not hold, so the verdict is not trusted
    X = unit_gaussian(trial_rng(92, 0), 2)
    paths = [tmp_path / "x.json", tmp_path / "w1.json", tmp_path / "w2.json"]
    for path, M in zip(paths, [X, X, X]):
        save_matrix(path, M)
    proc = run_cli("check", "isotropic", *paths)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "/nonexistent/matrix.json"),
        ("check", "conj2", "/nonexistent/x.json"),
        ("search", "--n", "abc"),
        ("search", "--n", "2,3", "--objective", "partial-sum"),
        # lambda13 is the k = 2 ascent: an order above the lift limit (64) is refused
        ("search", "--objective", "lambda13", "--n", "65",
         "--restarts", "1", "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "3", "--trials", "0", "--json"),
        # lambda13 is the k = 2 ascent: a conflicting --k is refused, not ignored
        ("search", "--objective", "lambda13", "--n", "3", "--k", "3",
         "--restarts", "1", "--seed", "1"),
        # a list that names no order
        ("search", "--objective", "sweep", "--n", ",", "--trials", "2", "--seed", "1"),
        # a flag the objective cannot use is refused, not ignored
        ("search", "--objective", "sweep", "--n", "2", "--init", "rank_one", "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "2", "--restarts", "5", "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "2", "--max-iters", "5", "--seed", "1"),
        ("search", "--n", "2", "--trials", "5", "--restarts", "1", "--seed", "1"),
        ("search", "--objective", "lambda13", "--n", "2", "--trials", "5",
         "--restarts", "1", "--seed", "1"),
        # an order named twice would repeat its rows and bundles
        ("search", "--objective", "sweep", "--n", "2,3,2", "--trials", "2", "--seed", "1"),
        # the ascent judges breaches at its own fixed margin: --tol is refused
        ("search", "--n", "3", "--k", "1", "--restarts", "2", "--seed", "5", "--tol", "-100"),
        ("search", "--objective", "lambda13", "--n", "2", "--restarts", "1", "--seed", "1",
         "--tol", "1e-3"),
        # an error bound below zero can never hold: refused, not a numerical failure
        ("verify-paper-example", "--tol", "-1"),
    ],
)
def test_input_errors_exit_2(run_cli, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_bad_token_file_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 nonsense\n2 3\n")
    proc = run_cli("spectrum", path)
    assert proc.returncode == 2


def test_zero_matrix_exits_2(run_cli, tmp_path):
    path = tmp_path / "zero.json"
    save_matrix(path, np.zeros((2, 2)))
    proc = run_cli("spectrum", path)
    assert proc.returncode == 2


def test_negative_seed_rejected_by_parser(run_cli, matrix_file):
    proc = run_cli("spectrum", matrix_file, "--seed", "-1")
    assert proc.returncode == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ("check", "conj4", "MATRIX"),
        ("search", "--objective", "sweep", "--n", "2", "--trials", "2", "--seed", "1"),
        ("verify-paper-example",),
    ],
    ids=["check", "sweep", "verify"],
)
def test_non_finite_tol_exits_2(run_cli, matrix_file, tmp_path, command, tol):
    # before, nan turned every verdict into a violation and inf passed all
    work = tmp_path / "work"
    work.mkdir()
    argv = [matrix_file if a == "MATRIX" else a for a in command]
    proc = run_cli(*argv, f"--tol={tol}", "--json", cwd=work)
    assert proc.returncode == 2
    assert "tolerance must be finite" in proc.stderr
    assert proc.stdout == "" and not list(work.iterdir())  # no report, no bundle


def test_search_sweep_refuses_a_matrix_file(run_cli, matrix_file, tmp_path):
    # before, the file was listed in the report's inputs and then ignored
    proc = run_cli(
        "search", "--objective", "sweep", "--n", "2", "--trials", "2", "--seed", "1",
        "--matrix", matrix_file, "--json", cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "--objective sweep does not use --matrix" in proc.stderr
    assert proc.stdout == ""


def test_verify_example_default_tolerance(run_cli):
    proc = run_cli("verify-paper-example", "--json")
    assert proc.returncode == 0
    section = json.loads(proc.stdout)["reference_check"]
    assert section["ok"] is True
    assert section["max_abs_error"] < 1e-3
    assert section["first_four_expected"] == 5.9814
    assert section["certificate_expected"] == 7.0554


def test_verify_example_strict_tolerance_exits_3(run_cli):
    proc = run_cli("verify-paper-example", "--tol", "1e-9")
    assert proc.returncode == 3


def test_search_single_order(run_cli, tmp_path):
    proc = run_cli(
        "search", "--n", 2, "--k", 1, "--restarts", 4, "--seed", 0, "--json",
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["search"]["best_objective"] == pytest.approx(4.0, abs=1e-6)
    assert report["search"]["violation"] is None
    assert report["seed"] == 0


def test_search_lambda13_objective(run_cli, tmp_path):
    proc = run_cli(
        "search", "--n", 2, "--objective", "lambda13", "--restarts", 3,
        "--max-iters", 40, "--seed", 1, "--json", cwd=tmp_path,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["search"]["objective"] == "lambda13"
    assert report["search"]["best_objective"] == pytest.approx(2.0, abs=1e-6)


def test_search_sweep_rows_and_determinism(run_cli, tmp_path):
    argv = (
        "search", "--objective", "sweep", "--n", "2,3", "--trials", 4,
        "--seed", 1, "--json",
    )
    a = run_cli(*argv, cwd=tmp_path)
    b = run_cli(*argv, cwd=tmp_path)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    rows = report["sweep"]["rows"]
    assert [(r["n"], r["k"]) for r in rows] == [(2, 1), (2, 2)] + [
        (3, k) for k in range(1, 5)
    ]
    assert report["sweep"]["majorization_violations"] == []
    assert report["bundle_path"] is None


def test_search_entropy_seed_when_omitted(run_cli, tmp_path):
    proc = run_cli(
        "search", "--n", 2, "--restarts", 1, "--max-iters", 20, "--json",
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert "entropy" in proc.stderr
    assert isinstance(json.loads(proc.stdout)["seed"], int)


def test_search_user_matrix_init(run_cli, tmp_path):
    X, _ = make_maximal_pair(2)
    path = tmp_path / "x.json"
    save_matrix(path, X)
    proc = run_cli(
        "search", "--n", 2, "--init", "user_matrix", "--matrix", path,
        "--restarts", 2, "--seed", 0, "--json", cwd=tmp_path,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["search"]["restarts"][0]["first_objective"] == pytest.approx(
        4.0, abs=1e-9
    )
    assert report["inputs"][0]["path"] == str(path)


def test_closed_form_classifications(run_cli, tmp_path):
    normal = tmp_path / "normal.json"
    save_matrix(normal, np.diag([2.0, -1.0, -1.0]) / np.sqrt(6.0))
    proc = run_cli("closed-form", normal, "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["closed_form"]["classification"] == "normal"
    assert "normal_closed_form" in report["closed_form"]

    rank_one = tmp_path / "rank1.json"
    u = np.zeros((3, 1), dtype=complex)
    u[0] = 1.0
    v = np.array([[0.5], [np.sqrt(0.75)], [0.0]], dtype=complex)
    save_matrix(rank_one, u @ v.conj().T)
    proc = run_cli("closed-form", rank_one, "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["closed_form"]["classification"] == "rank_one"

    generic = tmp_path / "generic.json"
    save_matrix(generic, unit_gaussian(trial_rng(93, 0), 3))
    proc = run_cli("closed-form", generic)
    assert proc.returncode == 0
    assert "classification: none" in proc.stdout


def test_closed_form_on_a_normal_matrix_with_a_repeated_eigenvalue(run_cli, tmp_path):
    # the Hermitian part has a twofold eigenvalue on which the skew part vanishes
    U = haar_unitary(trial_rng(94, 0), 3)
    path = tmp_path / "normal.json"
    save_matrix(path, U @ np.diag([1, 1, 1j]) @ U.conj().T)
    proc = run_cli("closed-form", path, "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["closed_form"]
    assert report["classification"] == "normal"
    assert report["normal_closed_form"]["max_abs_diff"] < 1e-12


def test_closed_form_accepts_an_order_one_matrix(run_cli, tmp_path):
    # a nonzero 1x1 matrix is rank one, but the rank-one closed form starts at n = 2
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "re": [[2]], "im": [[0]]}))
    proc = run_cli("closed-form", path, "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert_report_valid(report)
    assert report["closed_form"]["dense_values"] == [0.0]
    assert "rank_one_closed_form" not in report["closed_form"]


def test_closed_form_reports_equality_witness(run_cli, tmp_path):
    X, _ = make_maximal_pair(3)
    path = tmp_path / "max.json"
    save_matrix(path, X)
    proc = run_cli("closed-form", path, "--json")
    assert proc.returncode == 0
    eq = json.loads(proc.stdout)["closed_form"]["equality"]
    assert eq["detected"] is True
    assert eq["witness_valid"] is True
    assert eq["lambda1"] == pytest.approx(2.0, abs=1e-9)


def test_check_default_bundle_name(run_cli, matrix_file, tmp_path):
    proc = run_cli("check", "conj4", matrix_file, "--tol", "-1", cwd=tmp_path)
    assert proc.returncode == 1
    assert "violation bundle written to violation-c4.json" in proc.stdout
    bundle = tmp_path / "violation-c4.json"
    assert bundle.exists()
    assert reverify_bundle(read_bundle(bundle)).conjecture_id == "C4"


def test_main_reused_in_one_process_matches_subprocess_runs(
    run_cli, matrix_file, tmp_path, capsys
):
    bundle = tmp_path / "bundle.json"
    calls = [
        ("spectrum", str(matrix_file), "--json"),
        ("spectrum",),
        ("check", "conj4", str(matrix_file), "--tol", "-100",
         "--bundle-out", str(bundle), "--json"),
        ("spectrum", str(matrix_file), "--json"),
    ]
    results = []
    for argv in calls:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        results.append((code, out, err))
    bundle_bytes = bundle.read_bytes()
    bundle.unlink()

    assert [code for code, _, _ in results] == [0, 2, 1, 0]
    assert results[0][1] == results[3][1]
    assert results[1][2].startswith("usage: commspectra spectrum")
    for argv, (code, out, err) in zip(calls, results):
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert proc.stdout == out
        assert proc.stderr == err
    assert bundle.read_bytes() == bundle_bytes


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


@pytest.fixture
def cli_main(capsys, monkeypatch, tmp_path):
    """``cli_main(*argv)`` runs ``cli.main`` in this process from the empty
    working directory ``tmp_path / "work"``; returns (exit code, stdout, stderr)."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)

    def run(*argv):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse refusals
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.fixture
def exact_files(tmp_path):
    """Input files with exactly representable entries, by name."""
    def unit(i, j, n=3):
        M = np.zeros((n, n))
        M[i, j] = 1.0
        return M

    u = np.zeros((3, 1), dtype=complex)
    u[0] = 1.0
    v = np.array([[0.5], [np.sqrt(0.75)], [0.0]], dtype=complex)
    matrices = {
        "e12": unit(0, 1),
        "e11": unit(0, 0),
        "e21": unit(1, 0),
        "jordan": unit(0, 1) + unit(1, 2),
        "diag": np.diag([1.0, -1.0, 0.0]),
        "normal": np.diag([2.0, -1.0, -1.0]) / np.sqrt(6.0),
        "rank_one": u @ v.conj().T,
    }
    files = {}
    for name, M in matrices.items():
        files[name] = tmp_path / f"{name}.json"
        save_matrix(files[name], M)
    r = 1.0 / np.sqrt(2.0)
    payloads = {
        "lu": {"etas": [r, -r], "r": [[0.0, 2.0], [0.0, 0.0]]},
        "numbers": {"etas": [r], "omegas": [r], "r": [[1.0]]},
    }
    for name, payload in payloads.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(payload))
    return files


# Text output line by line, as the report-only renderers must reproduce it. A
# line ending in "..." pins its prefix: rounding-level residuals and the
# ascent and sweep floats.
PINNED_TEXT = [
    (("spectrum", "e12"), 0, [
        "order 3, norm scale 1 (eigenvalues refer to X / ||X||)",
        "values: 2 2 1 1 0 0 0 0 0",
        "clusters: 2 x2, 1 x2, 0 x5",
        "pairing_ok: True",
        "trace identity residual: ...",
        "partial sums: 2 4 5 6 6 6 6 6 6",
    ]),
    (("bounds", "e12"), 0, [
        "lambda_1 = 2 (norm scale 1)",
        "bw: bound 2, slack 0",
        "norm22: bound 2, slack 0",
        "cx: bound 2, slack 0",
        "min_bound: bound 2, slack 0",
        "lambda13_weak: bound 3.58113883, slack 0.5811388301",
        "k1_entrywise: min slack 0",
        "partial_sum_weak: min slack 1",
        "all proven bounds hold: True",
    ]),
    (("check", "conj2", "e12", "e11"), 0, [
        "C2: lhs 1 vs rhs 2 -> satisfied",
        "hypotheses residual: 0",
    ]),
    (("check", "conj4", "e12", "--tol", "-100"), 1, [
        "C4: lhs 2 vs rhs 2 -> VIOLATED",
        "hypotheses residual: 0",
        "violation bundle written to violation-c4.json",
    ]),
    (("check", "conj2", "e12", "e11", "e11"), 2, [
        "C2: lhs 2 vs rhs 3 -> satisfied",
        "hypotheses residual: 1",
        "hypotheses residual exceeds the tolerance; verdict not trusted",
    ]),
    (("closed-form", "jordan"), 0, [
        "order 3, classification: none",
        "normal: False, rank one: False",
        "extremal equality lambda_1 = 2: not attained",
    ]),
    (("closed-form", "normal"), 0, [
        "order 3, classification: normal",
        "normal: True, rank one: False",
        "normal closed form matches dense spectrum to ...",
        "extremal equality lambda_1 = 2: not attained",
    ]),
    (("closed-form", "rank_one"), 0, [
        "order 3, classification: rank_one",
        "normal: False, rank one: True",
        "rank-one closed form (|Tr X|^2 = 0.25) matches dense spectrum to ...",
        "extremal equality lambda_1 = 2: not attained",
    ]),
    (("closed-form", "diag"), 0, [
        "order 3, classification: normal",
        "normal: True, rank one: False",
        "normal closed form matches dense spectrum to ...",
        "extremal equality attained: lambda_1 = 2, witness residual ...",
    ]),
    (("verify-paper-example",), 0, [
        "first-four eigenvalue sum: 5.981388706 (expected 5.9814, error ...",
        "certificate 4(s1^2+s2^2)+phi: 7.055432047 (expected 7.0554, error ...",
        "within tolerance 0.001: True",
    ]),
    (("verify-paper-example", "--tol", "1e-9"), 3, [
        "first-four eigenvalue sum: 5.981388706 (expected 5.9814, error ...",
        "certificate 4(s1^2+s2^2)+phi: 7.055432047 (expected 7.0554, error ...",
        "within tolerance 1e-09: False",
    ]),
    (("search", "--n", "2", "--k", "1", "--restarts", "3", "--seed", "5"), 0, [
        "objective partial_sum (order 2, k 1): best = ...",
        "conjectured bound 4, proven bound 4, gap to conjecture ...",
        "monotone ascent: True, restarts: 3",
    ]),
    (("search", "--objective", "lambda13", "--n", "2", "--restarts", "3", "--max-iters", "40",
      "--seed", "1"), 0, [
        "objective lambda13 (order 2, k 2): best = ...",
        "conjectured bound 3, proven bound 3.58113883, gap to conjecture ...",
        "monotone ascent: True, restarts: 3",
    ]),
    (("search", "--objective", "sweep", "--n", "2", "--trials", "2", "--seed", "1",
      "--tol", "-100"), 1, [
        "sweep over orders [2], 2 trials each (unit gaussian, alternating complex/real)",
        "n=2 k=1: max f = ...",
        "n=2 k=2: max f = ...",
        "majorization violations: 2",
        "violation bundle written to violation-c2a.json",
    ]),
]


@pytest.mark.parametrize(
    "argv, code, lines", PINNED_TEXT, ids=[" ".join(argv) for argv, _, _ in PINNED_TEXT]
)
def test_text_output_is_pinned(cli_main, exact_files, argv, code, lines):
    got_code, out, _ = cli_main(*[exact_files.get(a, a) for a in argv])
    assert got_code == code
    got = out.splitlines()
    assert len(got) == len(lines), out
    for have, want in zip(got, lines):
        if want.endswith("..."):
            assert have.startswith(want[:-3]), (have, want)
        else:
            assert have == want


@pytest.mark.parametrize(
    "argv", [argv for argv, _, _ in PINNED_TEXT], ids=[" ".join(argv) for argv, _, _ in PINNED_TEXT]
)
def test_text_mode_serializes_no_report(cli_main, exact_files, monkeypatch, argv):
    # without --json or --out the report is rendered as text, never dumped
    argv = [exact_files.get(a, a) for a in argv]
    want = cli_main(*argv)
    serialize = matrixio.json_text

    def refuse_reports(obj):  # a violation bundle is still written
        assert "schema_version" not in obj, "report serialized in text mode"
        return serialize(obj)

    monkeypatch.setattr(matrixio, "json_text", refuse_reports)
    assert cli_main(*argv) == want


def test_bounds_exits_3_when_a_proven_bound_fails(cli_main, exact_files, monkeypatch, tmp_path):
    # a proven bound is an invariant: broken numerics, not a violation bundle
    real = spectra.bound_report

    def failing(X, spectrum=None):
        br = real(X, spectrum=spectrum)
        return dataclasses.replace(br, slacks={**br.slacks, "bw": -1.0}, all_proven_hold=False)

    monkeypatch.setattr(spectra, "bound_report", failing)
    code, out, err = cli_main("bounds", exact_files["e12"], "--json", "--out", "report.json")
    assert code == 3
    assert err.startswith("error: ")
    assert out == ""
    assert not list((tmp_path / "work").iterdir())


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_bounds_decides_the_ladder_at_proven_tol(cli_main, exact_files, monkeypatch, factor):
    # E12 attains lambda_1 = 2: raising lambda_1 by d leaves a smallest slack of -d
    real = spectra.double_commutator_spectrum

    def raised_top(X):
        spec = real(X)
        values = spec.values.copy()
        values[0] += factor * 1e-8  # PROVEN_TOL
        return dataclasses.replace(spec, values=values)

    monkeypatch.setattr(spectra, "double_commutator_spectrum", raised_top)
    code, out, err = cli_main("bounds", exact_files["e12"], "--json")
    if factor < 1:
        assert code == 0
        assert json.loads(out)["bounds"]["all_proven_hold"] is True
    else:
        assert code == 3
        assert err.startswith("error: a proven bound failed: smallest slack -1.0")


@pytest.mark.parametrize("command", ["spectrum", "bounds", "closed-form"])
def test_commands_that_judge_nothing_refuse_tol(cli_main, exact_files, command):
    code, out, err = cli_main(command, exact_files["e12"], "--tol", "1e-3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_near_scalar_input_is_accepted(cli_main, tmp_path):
    # the lift of a unit matrix this close to scalar is a sum of cancelling
    # O(1) terms; its rounding (~1e-17) is large against its norm (~3e-12)
    X = (1 + 2j) * np.eye(2) + 1e-6 * gaussian_matrix(trial_rng(1, 0), 2)
    path = tmp_path / "near_scalar.json"
    save_matrix(path, X)
    # each report is checked against the schema as it is built (conftest)
    reports = {}
    for command in ("spectrum", "bounds", "closed-form"):
        code, out, err = cli_main(command, path, "--json")
        assert (code, err) == (0, "")
        reports[command] = json.loads(out)
    # the order-2 closed form {2 - |Tr X^|^2 (twice), 0, 0}
    top = 2.0 - abs(np.trace(X / np.linalg.norm(X))) ** 2
    values = reports["spectrum"]["spectrum"]["values"]
    np.testing.assert_allclose(values, [top, top, 0.0, 0.0], rtol=0, atol=1e-12)


def test_report_tol_is_the_tolerance_applied(cli_main, exact_files):
    def tol(*argv):
        code, out, _ = cli_main(*argv, "--json")
        assert code == 0
        return json.loads(out)["tol"]

    e12 = exact_files["e12"]
    for command in ("spectrum", "bounds", "closed-form"):
        assert tol(command, e12) is None
    assert tol("check", "conj4", e12) == 1e-8
    assert tol("check", "conj4", e12, "--tol", "0.5") == 0.5
    assert tol("verify-paper-example") == 1e-3
    assert tol("search", "--objective", "sweep", "--n", "2", "--trials", "2", "--seed", "1") == 1e-8
    assert tol("search", "--n", "2", "--restarts", "1", "--max-iters", "20", "--seed", "1") == (
        VIOLATION_MARGIN
    )


# Inputs of every check kind, by exact_files name: the right number, and a
# wrong one.
CHECK_INPUTS = {
    "conj1": (["e12"], []),
    "conj2": (["e12", "e11"], ["e12"]),
    "conj2c": (["e12", "e11"], ["e12"]),
    "conj4": (["e12"], ["e12", "e11"]),
    "lu": (["lu"], ["lu", "lu"]),
    "numbers": (["numbers"], ["numbers", "numbers"]),
    "isotropic": (["e12", "e12", "e11"], ["e12"]),
}


@pytest.mark.parametrize("kind", list(cli.CHECK_KINDS))
def test_check_bundle_reverifies_through_the_checker_table(cli_main, exact_files, kind):
    right, wrong = CHECK_INPUTS[kind]
    code, out, _ = cli_main(
        "check", kind, *[exact_files[name] for name in right],
        "--tol", "-100", "--bundle-out", "bundle.json", "--json",
    )
    assert code == 1
    verdict = json.loads(out)["verdicts"][0]
    again = reverify_bundle(read_bundle("bundle.json"))
    assert again.conjecture_id == verdict["conjecture_id"] == cli.CHECK_KINDS[kind]
    assert again.lhs == pytest.approx(verdict["lhs"], abs=1e-9)
    assert again.rhs == pytest.approx(verdict["rhs"], abs=1e-9)

    code, out, err = cli_main("check", kind, *[exact_files[name] for name in wrong], "--json")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("kind", ["conj2", "conj2c"])
def test_check_pivot_beyond_the_square_range_reports_like_conj1(cli_main, tmp_path, kind):
    # ||B||^2 of a pivot above about 1e154 saturates to inf, as C1's sums do:
    # exit 0 with the overflowed sums, not a crash, and its bundle reverifies
    B = np.zeros((2, 2))
    B[0, 1] = 1e160
    files = [tmp_path / "big.json", tmp_path / "e21.json"]
    save_matrix(files[0], B)
    save_matrix(files[1], B.T / 1e160)
    for k in ("conj1", kind):
        code, out, err = cli_main("check", k, *files, "--json")
        assert (code, "Traceback" in err) == (0, False)
        v = json.loads(out)["verdicts"][0]
        assert (v["lhs"], v["rhs"], v["satisfied"]) == (np.inf, np.inf, True)
    bundle = make_bundle(cli.CHECK_KINDS[kind], [B, B.T / 1e160], np.inf, np.inf, 0.0, None)
    assert reverify_bundle(bundle).rhs == np.inf


def test_check_conj1_at_large_scale_is_satisfied_without_a_bundle(cli_main, tmp_path):
    # a 1e160-scaled member once made B_1 B_1 - B_1 B_1 read inf - inf: NaN
    # against inf, a false violation (exit 1) and a bundle in the working directory
    files = [tmp_path / "big.json", tmp_path / "y.json"]
    save_matrix(files[0], 1e160 * unit_gaussian(trial_rng(1, 0), 3))
    save_matrix(files[1], unit_gaussian(trial_rng(1, 1), 3))
    code, out, err = cli_main("check", "conj1", *files, "--json")
    assert (code, err) == (0, "")
    v = json.loads(out)["verdicts"][0]
    assert (v["lhs"], v["rhs"], v["satisfied"], v["witness"]) == (np.inf, np.inf, True, None)
    assert not list(Path().glob("violation-*.json"))


# Per check kind, a family that meets its side conditions and one that does
# not. The scale multiplies every matrix, or X alone for isotropic.
SCALE_CASES = [
    ("conj1", True), ("conj1", False), ("conj2", True), ("conj2", False),
    ("conj2c", True), ("conj2c", False), ("isotropic", True), ("isotropic", False),
]


def _scale_case(kind, meets, isotropic_family):
    """(scaled, unscaled) matrices of one case."""
    g = [unit_gaussian(trial_rng(95, t), 3) for t in range(4)]
    if kind == "isotropic":
        X = unit_gaussian(trial_rng(95, 4), 2)
        return [X], isotropic_family(X, 2, trial_rng(95, 5)) if meets else [X, X]
    if not meets:
        return g[:3], []
    if kind != "conj2c":  # by cyclicity of the trace, two C1 members or one
        return g[:2], []    # C2 member (an orthogonal family) meet the trace conditions
    Q, _ = np.linalg.qr(np.stack([vec(M) for M in g[1:3]], axis=1))
    return [g[0], *(unvec(q, 3) for q in Q.T)], []  # an orthonormal family


@pytest.mark.parametrize("kind, meets", SCALE_CASES, ids=[f"{k}-{m}" for k, m in SCALE_CASES])
def test_hypotheses_verdict_is_scale_free(
    cli_main, tmp_path, isotropic_family, kind, meets
):
    # the residual reads unit matrices, so a scale moves neither it nor the exit code
    scaled, fixed = _scale_case(kind, meets, isotropic_family)
    seen = []
    for scale in (1e-4, 1.0, 1e4):
        paths = []
        for i, M in enumerate([scale * M for M in scaled] + fixed):
            paths.append(tmp_path / f"{scale:g}_{i}.json")
            save_matrix(paths[-1], M)
        code, out, _ = cli_main("check", kind, *paths, "--json")
        seen.append((code, json.loads(out)["verdicts"][0]["hypotheses_residual"]))
    assert [code for code, _ in seen] == [0 if meets else 2] * 3
    residuals = [r for _, r in seen]
    assert (max(residuals) <= HYPOTHESIS_TOL) == meets
    assert max(residuals) - min(residuals) <= 1e-12


# Inputs that break a continuous side condition, by exact_files name, or as
# a payload for the scalar lemmas.
UNMET_HYPOTHESES = {
    "conj1": ["e12", "e21", "e11"],  # Tr(E11 [E12, E21]) = 1
    "conj2": ["e12", "e11", "e11"],  # <E11, E11> = 1
    "conj2c": ["e12", "e11", "e11"],
    "isotropic": ["e12", "e12", "e12"],
    "lu": {"etas": [1.0, 0.0], "r": [[0.0, 1.0], [0.0, 0.0]]},  # not centered
    "numbers": {"etas": [1.0], "omegas": [1.0], "r": [[1.0]]},  # square sum 2
}


@pytest.mark.parametrize("kind", list(UNMET_HYPOTHESES))
def test_unmet_hypotheses_exit_2_with_a_report_and_no_bundle(cli_main, exact_files, kind):
    inputs = UNMET_HYPOTHESES[kind]
    if isinstance(inputs, dict):
        Path("payload.json").write_text(json.dumps(inputs))
        paths = ["payload.json"]
    else:
        paths = [exact_files[name] for name in inputs]
    for tol in ([], ["--tol", "-100"]):  # even a forced breach writes no bundle
        code, out, _ = cli_main("check", kind, *paths, *tol, "--bundle-out", "b.json", "--json")
        assert code == 2
        report = json.loads(out)
        assert_report_valid(report)
        verdict = report["verdicts"][0]
        assert verdict["hypotheses_residual"] > HYPOTHESIS_TOL
        assert verdict["witness"] is None and report["bundle_path"] is None
        assert not Path("b.json").exists()
        assert not list(Path().glob("violation-*.json"))


# Every command that builds a lift, with the inputs it takes: the matrix X
# and, for check isotropic, the one-member isotropic family {E11}.
ORDER_LIMIT_ARGV = {
    "spectrum": ("spectrum", "x.json"),
    "bounds": ("bounds", "x.json"),
    "closed-form": ("closed-form", "x.json"),
    "conj4": ("check", "conj4", "x.json"),
    "isotropic": ("check", "isotropic", "x.json", "w.json"),
    "partial-sum": ("search", "--n", "N", "--k", "1", "--restarts", "1", "--max-iters", "1"),
    "lambda13": ("search", "--objective", "lambda13", "--n", "N", "--restarts", "1",
                 "--max-iters", "1"),
    "sweep": ("search", "--objective", "sweep", "--n", "N", "--k", "1", "--trials", "1"),
}


@pytest.mark.parametrize("argv", ORDER_LIMIT_ARGV.values(), ids=ORDER_LIMIT_ARGV)
def test_one_order_limit_for_every_command(cli_main, argv):
    for n in (17, 65):
        X = unit_gaussian(trial_rng(96, n), n)
        w = np.zeros((n, n))
        w[0, 0] = 1.0
        save_matrix("x.json", X)
        save_matrix("w.json", w)
        tracemalloc.start()
        try:
            code, out, err = cli_main(*[str(n) if a == "N" else a for a in argv], "--seed", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if n == 17:  # accepted with no flag
            assert code == 0, err
        else:  # refused before any lift is allocated (an order-65 lift takes 285 MB)
            assert code == 2 and "order 65" in err and not out
            assert peak < 16 * 2**20


def test_max_order_flag_is_gone(cli_main, exact_files):
    code, _, err = cli_main("spectrum", exact_files["e12"], "--max-order", "17")
    assert code == 2 and "unrecognized arguments: --max-order" in err


def test_order_17_sweep_bundle_reverifies_from_the_file(cli_main):
    code, _, _ = cli_main(
        "search", "--objective", "sweep", "--n", "17", "--trials", "1", "--k", "1",
        "--tol", "-100", "--seed", "1", "--bundle-out", "b.json",
    )
    assert code == 1
    bundle = read_bundle("b.json")
    verdict = reverify_bundle(bundle)
    assert verdict.conjecture_id == bundle["conjecture_id"] == "C2A"
    assert abs(verdict.lhs - bundle["lhs"]) <= 1e-9
    assert abs(verdict.rhs - bundle["rhs"]) <= 1e-9


@pytest.mark.parametrize("argv", [("bounds",), ("check", "conj4", "--tol", "-100")])
def test_order_one_is_refused_by_the_ladder_and_the_c4_profile(cli_main, argv):
    # both need n >= 2: exit 2 with no report, and no bundle even where a
    # negative --tol would force one
    Path("one.json").write_text('{"n": 1, "re": [[2]], "im": [[0]]}\n')
    code, out, err = cli_main(*argv, "one.json", "--json")
    assert (code, out) == (2, "") and "needs n >= 2, got 1" in err
    assert sorted(p.name for p in Path().iterdir()) == ["one.json"]


def test_sweep_across_a_chunk_boundary_matches_one_chunk(cli_main, monkeypatch):
    # order-2 chunks hold 4096 trials, so 4100 trials break once; each trial
    # is drawn once, and the report is the one a single 4100-trial chunk
    # gives, at the largest u64 seed
    argv = ("search", "--objective", "sweep", "--n", "2", "--trials", "4100", "--seed", 2**64 - 1, "--json")
    assert search._chunk_size(2) == 4096
    chunks, draw = [], ensembles.gaussian_trials

    def recorded(rng, seed, n, trials):
        chunks.append(list(trials))
        return draw(rng, seed, n, trials)

    monkeypatch.setattr(ensembles, "gaussian_trials", recorded)
    code, chunked, err = cli_main(*argv)
    assert code == 0, err
    assert chunks == [list(range(4096)), list(range(4096, 4100))]
    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", 4100 * 2**4)
    assert search._chunk_size(2) == 4100
    assert cli_main(*argv) == (0, chunked, "")


def test_each_input_is_read_once_and_digested_as_parsed(cli_main, tmp_path, monkeypatch):
    X = unit_gaussian(trial_rng(97, 0), 3)
    lines = [" ".join(repr(complex(z)).strip("()") for z in row) for row in X]
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    opened = []
    real_open = io.open  # what pathlib opens files with

    def counting_open(file, *args, **kwargs):
        opened.append(file if isinstance(file, int) else Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    for argv in (("spectrum",), ("check", "conj4")):
        texts = []
        for path in (lf, crlf):
            opened.clear()
            code, out, _ = cli_main(*argv, path, "--json")
            assert code == 0 and opened.count(path.name) == 1
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert json.loads(out)["inputs"] == [{"path": str(path), "sha256": digest}]
            texts.append(out.replace(str(path), "PATH").replace(digest, "DIGEST"))
        # both files hold the same matrix: the report bytes differ only in the input entry
        assert texts[0] == texts[1]


@pytest.mark.parametrize("name", ["x.json", "x.txt"])
def test_spectrum_reads_a_file_with_a_byte_order_mark(cli_main, tmp_path, name):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    if name.endswith(".json"):
        save_matrix(plain, unit_gaussian(trial_rng(97, 1), 3))
    else:
        plain.write_text("1 2+1i 0\n-3i 4 1\n0 1 -2j\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    texts = []
    for path in (plain, marked):
        code, out, err = cli_main("spectrum", path, "--json")
        assert code == 0, err
        digest = hashlib.sha256(path.read_bytes()).hexdigest()  # of the raw bytes, mark and all
        assert json.loads(out)["inputs"] == [{"path": str(path), "sha256": digest}]
        texts.append(out.replace(str(path), "PATH").replace(digest, "DIGEST"))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("bundle_out", ["r.json", None])
def test_out_naming_the_bundle_file_writes_neither(cli_main, matrix_file, bundle_out):
    # the report written over the bundle would lose the counterexample: the
    # paths are compared after resolving, so an absolute --out is caught too
    target = Path(bundle_out or "violation-c4.json")
    argv = ["check", "conj4", matrix_file, "--tol", "-100", "--out", target.resolve()]
    if bundle_out:
        argv += ["--bundle-out", bundle_out]
    code, out, err = cli_main(*argv)
    assert (code, out) == (2, "") and f"--out and the violation bundle both name {target}" in err
    assert not list(Path().iterdir())


def test_out_and_bundle_out_alone_write_what_they_did(cli_main, matrix_file):
    # --out alone: the bundle goes to its default path, the report to --out
    code, out, _ = cli_main("check", "conj4", matrix_file, "--tol", "-100", "--out", "r.json")
    assert code == 1 and out.endswith("violation bundle written to violation-c4.json\n")
    assert json.loads(Path("r.json").read_text())["bundle_path"] == "violation-c4.json"
    assert read_bundle("violation-c4.json")["conjecture_id"] == "C4"
    # --bundle-out alone: the bundle goes there and no report file is written
    Path("r.json").unlink()
    Path("violation-c4.json").unlink()
    code, out, _ = cli_main("check", "conj4", matrix_file, "--tol", "-100", "--bundle-out", "r.json")
    assert code == 1 and out.endswith("violation bundle written to r.json\n")
    assert read_bundle("r.json")["conjecture_id"] == "C4"
    assert sorted(p.name for p in Path().iterdir()) == ["r.json"]
    # a run without a violation writes no bundle, so --out may name its path
    for extra in (("--bundle-out", "r.json"), ()):
        name = "r.json" if extra else "violation-c4.json"
        code, _, _ = cli_main("check", "conj4", matrix_file, "--out", name, *extra)
        assert code == 0 and json.loads(Path(name).read_text())["bundle_path"] is None
