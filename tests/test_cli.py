"""Command-line interface: exit codes, report schema, determinism, bundles."""
import json

import numpy as np
import pytest

from commspectra import (
    make_maximal_pair,
    random_isotropic_family,
    read_bundle,
    reverify_bundle,
    save_matrix,
    sha256_digest,
    trial_rng,
    unit_gaussian,
)
from commspectra import cli
from commspectra.reporting import validate_report


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
    validate_report(report)
    assert report["command"] == "spectrum"
    assert report["exit_code"] == 0
    assert report["timing"] is None
    assert report["inputs"][0]["sha256"] == sha256_digest(matrix_file)
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
    validate_report(json.loads(out.read_text()))
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


def test_check_isotropic_family_files(run_cli, tmp_path):
    X = unit_gaussian(trial_rng(91, 0), 2)
    fam = random_isotropic_family(X, 2, trial_rng(91, 1))
    paths = [tmp_path / "x.json", tmp_path / "w1.json", tmp_path / "w2.json"]
    for path, M in zip(paths, [X] + fam):
        save_matrix(path, M)
    proc = run_cli("check", "isotropic", *paths, "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"][0]["satisfied"] is True


def test_check_hypothesis_failure_is_input_error(run_cli, tmp_path):
    # non-orthonormal family: the checker refuses rather than misreporting
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
        # the one ascent config carries --max-order to both objectives
        ("search", "--objective", "lambda13", "--n", "3", "--max-order", "2",
         "--restarts", "1", "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "3", "--trials", "0", "--json"),
        # lambda13 is the k = 2 ascent: a conflicting --k is refused, not ignored
        ("search", "--objective", "lambda13", "--n", "3", "--k", "3",
         "--restarts", "1", "--seed", "1"),
        # a list that names no order
        ("search", "--objective", "sweep", "--n", ",", "--trials", "2", "--seed", "1"),
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
