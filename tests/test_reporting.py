"""Report assembly, schema conformance, and deterministic serialization."""
import json

import jsonschema
import numpy as np
import pytest

from commspectra import (
    SearchConfig,
    __version__,
    ascend,
    bound_report,
    check_lu_lemma,
    center_normalize,
    double_commutator_spectrum,
    trial_rng,
    unit_gaussian,
)
from commspectra.matrixio import json_text
from commspectra.reporting import (
    SCHEMA_VERSION,
    build_report,
    fmt,
    jsonable,
    spectrum_section,
)
import conftest
from conftest import REPORT_SCHEMA, assert_report_valid, make_maximal_pair, report_validator

X0 = unit_gaussian(trial_rng(80, 0), 3)
INPUTS = [{"path": "in.json", "sha256": "0" * 64}]


def test_jsonable_scalar_conversions():
    assert jsonable(np.int64(3)) == 3
    assert jsonable(np.float64(0.5)) == 0.5
    assert jsonable(np.bool_(True)) is True
    assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert jsonable(np.complex128(1j)) == {"re": 0.0, "im": 1.0}
    assert jsonable(None) is None
    assert jsonable("s") == "s"


def test_jsonable_arrays_and_nesting():
    assert jsonable(np.arange(3.0)) == [0.0, 1.0, 2.0]
    out = jsonable({"M": np.eye(2, dtype=complex), "xs": (np.int32(1), 2.0)})
    assert out == {"M": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, "xs": [1, 2.0]}
    json.dumps(out)  # everything is JSON-native
    with pytest.raises(TypeError):
        jsonable(object())
    with pytest.raises(TypeError):
        jsonable(np.longdouble(0.5))  # no Python scalar holds it
    with pytest.raises(TypeError):
        jsonable(SearchConfig)  # a dataclass type, not an instance


def test_spectrum_section_contents():
    spec = double_commutator_spectrum(X0)
    section = jsonable(spectrum_section(spec))
    assert section["order"] == 3
    assert len(section["values"]) == 9
    assert section["trace_residual"] < 1e-9
    assert section["partial_sums"][-1] == pytest.approx(sum(section["values"]), abs=1e-9)
    assert sum(m for _, m in section["clusters"]) == 9
    json.dumps(section)


def test_bounds_and_verdict_sections():
    # the sections are the result dataclasses, serialized field by field
    spec = double_commutator_spectrum(X0)
    bounds = build_report(
        "bounds", INPUTS, None, 1e-8, 0,
        {"spectrum": spectrum_section(spec), "bounds": bound_report(X0, spectrum=spec)},
    )
    b = bounds["bounds"]
    assert set(b) == {"lambda1", "norm_scale", "bounds", "slacks", "all_proven_hold"}
    assert b["all_proven_hold"] is True
    assert set(b["bounds"]) == set(b["slacks"])
    verdict = check_lu_lemma(center_normalize([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]])
    check = build_report(
        "check", INPUTS, None, 1e-8, 0,
        {"kind": "lu", "verdicts": [verdict], "bundle_path": None},
    )
    v = jsonable(verdict)
    assert check["verdicts"] == [v]
    assert v["conjecture_id"] == "LU_LEMMA" and v["satisfied"] is True
    assert v["witness"] is None
    json.dumps(v)


def test_search_section_round_trips_through_json():
    result = ascend(SearchConfig(order=2, k=1, restarts=2, seed=0, max_iters=30))
    report = build_report(
        "search", INPUTS, 0, 1e-8, 0, {"search": result, "bundle_path": None}
    )
    dumped = json.loads(json_text(report))["search"]
    assert dumped == jsonable(result)
    assert dumped["best_objective"] == pytest.approx(4.0, abs=1e-6)
    assert dumped["violation"] is None
    assert len(dumped["restarts"]) == 2
    assert dumped["restarts"][0] == {
        "index": 0,
        "first_objective": result.restarts[0].first_objective,
        "last_objective": result.restarts[0].last_objective,
        "iterations": result.restarts[0].iterations,
    }
    assert set(dumped["best_matrix"]) == {"re", "im"}


def test_build_report_produces_schema_valid_documents():
    spec = double_commutator_spectrum(X0)
    report = build_report(
        command="spectrum",
        inputs=INPUTS,
        seed=None,
        tol=1e-8,
        exit_code=0,
        sections={"spectrum": spectrum_section(spec)},
    )
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["version"] == __version__
    assert report["timing"] is None
    assert_report_valid(report)


def test_every_report_shape_passes_the_stock_validator(tmp_path, monkeypatch, capsys):
    from commspectra import cli, save_matrix

    monkeypatch.chdir(tmp_path)  # forced violations write their bundle here
    e12, e11 = np.zeros((3, 3)), np.zeros((3, 3))
    e12[0, 1] = e11[0, 0] = 1.0
    X, Y = make_maximal_pair(3)
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = [[1 + 0.5j, 2.0], [-0.7j, -1 - 0.5j]]  # traceless: lambda_1 = 2
    rank_one = np.outer([1.0, -2.0, 0.5], [0.3, 1.0, 2.0])
    matrices = {
        "x0": X0, "e12": e12, "e11": e11, "x": X, "y": Y, "diag": np.diag([1.0, -1.0, 0.0]),
        "block": block, "rank_one": rank_one,
    }
    for name, M in matrices.items():
        save_matrix(f"{name}.json", M)
    r = 1.0 / np.sqrt(2.0)
    (tmp_path / "lu.json").write_text(json.dumps({"etas": [r, -r], "r": [[0.0, 2.0], [0.0, 0.0]]}))
    (tmp_path / "numbers.json").write_text(json.dumps({"etas": [r], "omegas": [r], "r": [[1.0]]}))
    check_inputs = {
        "conj1": ["x0"],
        "conj2": ["x", "y"],
        "conj2c": ["e12", "e11"],
        "conj4": ["x0"],
        "lu": ["lu"],
        "numbers": ["numbers"],
        "isotropic": ["e12", "e12", "e11"],
    }
    commands = [
        ("spectrum", "x0.json"),
        ("bounds", "x0.json"),
        *[("check", kind, *[f"{name}.json" for name in names], *tol)
          for kind, names in check_inputs.items() for tol in ((), ("--tol", "-100"))],
        ("closed-form", "x0.json"),
        ("closed-form", "diag.json"),
        ("closed-form", "rank_one.json"),
        ("closed-form", "block.json"),
        ("search", "--n", "2", "--k", "1", "--restarts", "2", "--max-iters", "20", "--seed", "5"),
        ("search", "--objective", "lambda13", "--n", "2", "--restarts", "2", "--max-iters", "20",
         "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "2,3", "--trials", "2", "--seed", "1", "--tol", "-100"),
        ("verify-paper-example",),
        ("verify-paper-example", "--tol", "0"),  # the reference check fails: exit 3
    ]
    shapes = set()
    reports = {}
    for argv in commands:
        code = cli.main([*argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == code
        assert_report_valid(report)  # also checked as it was built (conftest)
        shapes.add((report["command"], report.get("kind")))
        reports[argv] = report
    assert len(shapes) == 5 + len(check_inputs)
    assert reports[("closed-form", "rank_one.json")]["closed_form"]["classification"] == "rank_one"
    assert reports[("closed-form", "block.json")]["closed_form"]["equality"]["witness_valid"] is True
    assert reports[("verify-paper-example", "--tol", "0")]["exit_code"] == 3


def test_the_schema_refuses_malformed_reports():
    # assert_report_valid is not vacuous: the shipped schema refuses each of
    # these breakages of a valid report
    good = build_report(
        "spectrum", INPUTS, None, 1e-8, 0, {"spectrum": spectrum_section(double_commutator_spectrum(X0))}
    )
    breakages = [
        {"schema_version": 1}, {"command": "meditate"}, {"exit_code": 7}, {"timing": 1.5},
        {"inputs": [{"path": "x"}]}, {"extra_top_level": True},
        *[{"spectrum": {**good["spectrum"], key: [0.5, bad]}}
          for key in ("values", "partial_sums") for bad in ("0.5", True, None, [0.5])],
        *[{"spectrum": {**good["spectrum"], "clusters": [[0.5, 2], bad]}}
          for bad in ([1.0, 2, 3], [1.0], [1.0, True], [1.0, 2.5], ["1.0", 2])],
    ]
    for breakage in breakages:
        with pytest.raises(jsonschema.ValidationError):
            assert_report_valid({**good, **breakage})


def _spectrum_breakage(spectrum: dict, kind: str) -> dict:
    values, sums = list(spectrum["values"]), list(spectrum["partial_sums"])
    clusters = [list(c) for c in spectrum["clusters"]]
    if kind == "short_values":
        values.pop()
    elif kind == "short_partial_sums":
        sums.pop()
    elif kind == "nan_value":
        values[1] = float("nan")
    elif kind == "infinite_partial_sum":
        sums[-1] = float("inf")
    elif kind == "increasing_values":
        values[0], values[-1] = values[-1], values[0]
    elif kind == "decreasing_partial_sums":
        sums[0], sums[-1] = sums[-1], sums[0]
    elif kind == "multiplicities_off":
        clusters[0][1] += 1
    return {**spectrum, "values": values, "partial_sums": sums, "clusters": clusters}


@pytest.mark.parametrize(
    "kind",
    [
        "short_values", "short_partial_sums", "nan_value", "infinite_partial_sum",
        "increasing_values", "decreasing_partial_sums", "multiplicities_off",
    ],
)
def test_the_content_check_refuses_inconsistent_spectra(kind):
    # each breakage passes the schema; assert_report_valid refuses it on content
    good = build_report(
        "spectrum", INPUTS, None, 1e-8, 0, {"spectrum": spectrum_section(double_commutator_spectrum(X0))}
    )
    assert_report_valid(good)
    bad = {**good, "spectrum": _spectrum_breakage(good["spectrum"], kind)}
    conftest._REPORT_VALIDATOR.validate(bad)
    with pytest.raises(AssertionError):
        assert_report_valid(bad)


def test_schema_loads_once_and_declares_draft():
    # the shipped schema is package data, read once for the whole suite; it
    # declares draft 2020-12 and the schema version the library writes
    assert conftest._REPORT_VALIDATOR.schema is REPORT_SCHEMA
    assert REPORT_SCHEMA["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    assert REPORT_SCHEMA["properties"]["schema_version"] == {"const": SCHEMA_VERSION}


def test_validator_checks_the_schema_against_its_metaschema():
    # the shipped schema passes the draft 2020-12 metaschema; the suite's
    # validator refuses a schema that does not
    assert type(report_validator(REPORT_SCHEMA)) is jsonschema.Draft202012Validator
    with pytest.raises(jsonschema.SchemaError):
        report_validator({**REPORT_SCHEMA, "type": 12})


# Every command, once, with the files it reads (x.json is a complex order-3
# matrix) and a forced C4 violation, so the bundle writer runs too.
NO_JSONSCHEMA_ARGV = [
    ("spectrum", "x.json"),
    ("spectrum", "x.json", "--json"),
    ("bounds", "x.json", "--json", "--out", "bounds.json"),
    ("check", "conj4", "x.json", "--tol", "-100", "--bundle-out", "c4.json", "--json"),
    ("check", "isotropic", "e12.json", "e12.json", "e11.json", "--json"),
    ("closed-form", "x.json", "--json"),
    ("search", "--n", "2", "--k", "1", "--restarts", "1", "--max-iters", "5", "--seed", "5", "--json"),
    ("search", "--objective", "lambda13", "--n", "2", "--restarts", "1", "--max-iters", "5",
     "--seed", "1", "--json"),
    ("search", "--objective", "sweep", "--n", "2", "--trials", "1", "--seed", "1", "--json"),
    ("verify-paper-example", "--json"),
]

# python -c NO_JSONSCHEMA ARGV... runs ``python -m commspectra ARGV...`` with
# jsonschema unimportable
NO_JSONSCHEMA = (
    "import runpy, sys; sys.modules['jsonschema'] = None; sys.argv[0] = 'commspectra'; "
    "runpy.run_module('commspectra', run_name='__main__')"
)


def test_no_command_loads_jsonschema(tmp_path, monkeypatch, capsys, run_python):
    from commspectra import cli, save_matrix

    e12, e11 = np.zeros((3, 3)), np.zeros((3, 3))
    e12[0, 1] = e11[0, 0] = 1.0
    normal, blocked = tmp_path / "normal", tmp_path / "blocked"
    for directory in (normal, blocked):
        directory.mkdir()
        for name, M in {"x": X0, "e12": e12, "e11": e11}.items():
            save_matrix(directory / f"{name}.json", M)
    monkeypatch.chdir(normal)
    for argv in NO_JSONSCHEMA_ARGV:
        code = cli.main(list(argv))
        proc = run_python("-c", NO_JSONSCHEMA, *argv, cwd=blocked)
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stdout == capsys.readouterr().out, argv
    # the reports written with --out and the bundle, byte for byte
    assert {p.name: p.read_bytes() for p in blocked.iterdir()} == {
        p.name: p.read_bytes() for p in normal.iterdir()
    }


def test_report_json_is_byte_deterministic_and_sorted():
    spec = double_commutator_spectrum(X0)
    r1 = build_report(
        "spectrum", INPUTS, 5, 1e-8, 0, {"spectrum": spectrum_section(spec)}
    )
    r2 = build_report(
        "spectrum", INPUTS, 5, 1e-8, 0, {"spectrum": spectrum_section(spec)}
    )
    s1, s2 = json_text(r1), json_text(r2)
    assert s1 == s2
    assert s1.endswith("\n")
    keys = list(json.loads(s1))
    assert keys == sorted(keys)


def test_fmt_precision():
    assert fmt(2.0) == "2"
    assert fmt(1.0 / 3.0) == "0.3333333333"
    assert fmt(np.float64(1e-12)) == "1e-12"
