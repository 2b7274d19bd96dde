"""Report assembly, schema validation, and deterministic serialization."""
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from commspectra import (
    InvariantViolationError,
    SearchConfig,
    ascend,
    bound_report,
    check_lu_lemma,
    center_normalize,
    double_commutator_spectrum,
    trial_rng,
    unit_gaussian,
)
from commspectra.reporting import (
    SCHEMA_VERSION,
    TOOL_VERSION,
    build_report,
    fmt,
    jsonable,
    load_schema,
    report_json,
    spectrum_section,
    validate_report,
)

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
    dumped = json.loads(report_json(report))["search"]
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
    assert report["version"] == TOOL_VERSION
    assert report["timing"] is None
    validate_report(report)  # idempotent


# Breakages of the arrays the validator checks in one pass: (key of the
# spectrum section, the element at index 1 replaced by this value).
ARRAY_BREAKAGES = [
    *[(key, bad) for key in ("values", "partial_sums") for bad in ("0.5", True, None, [0.5])],
    ("clusters", [1.0, 2, 3]),
    ("clusters", [1.0]),
    ("clusters", [1.0, True]),
    ("clusters", [1.0, 2.5]),
    ("clusters", ["1.0", 2]),
]


def _spectrum_report():
    spec = double_commutator_spectrum(X0)
    return build_report("spectrum", INPUTS, None, 1e-8, 0, {"spectrum": spectrum_section(spec)})


def _with_element(report, key, value, index=1):
    """A copy of ``report`` whose spectrum[key][index] is ``value``."""
    array = list(report["spectrum"][key])
    array[index] = value
    return {**report, "spectrum": {**report["spectrum"], key: array}}


def test_validate_report_rejects_malformed_documents():
    good = _spectrum_report()
    bad_documents = [
        {**good, **breakage}
        for breakage in (
            {"schema_version": 1},
            {"command": "meditate"},
            {"exit_code": 7},
            {"timing": 1.5},
            {"inputs": [{"path": "x"}]},
            {"extra_top_level": True},
        )
    ] + [_with_element(good, key, bad) for key, bad in ARRAY_BREAKAGES]
    for bad in bad_documents:
        # the message is the error jsonschema.validate itself picks
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(instance=bad, schema=load_schema())
        with pytest.raises(InvariantViolationError) as got:
            validate_report(bad)
        assert str(got.value) == f"report failed schema validation: {want.value.message}"


def _stock_validator():
    schema = load_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def test_types_outside_the_one_pass_check_fall_back_to_jsonschema():
    # an integral float multiplicity and numpy floats are valid JSON Schema
    # instances that the one-pass check leaves to jsonschema
    good = _spectrum_report()
    for doc in (
        _with_element(good, "clusters", [good["spectrum"]["clusters"][1][0], 2.0]),
        _with_element(good, "clusters", [np.float64(0.5), 2]),
        _with_element(good, "values", np.float64(0.5)),
        _with_element(good, "partial_sums", np.float64(0.5)),
    ):
        validate_report(doc)
        _stock_validator().validate(doc)


def test_every_report_shape_passes_the_fast_and_the_stock_validator(tmp_path, monkeypatch, capsys):
    from commspectra import cli, make_maximal_pair, save_matrix

    monkeypatch.chdir(tmp_path)  # forced violations write their bundle here
    e12, e11 = np.zeros((3, 3)), np.zeros((3, 3))
    e12[0, 1] = e11[0, 0] = 1.0
    X, Y = make_maximal_pair(3)
    matrices = {"x0": X0, "e12": e12, "e11": e11, "x": X, "y": Y, "diag": np.diag([1.0, -1.0, 0.0])}
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
        ("search", "--n", "2", "--k", "1", "--restarts", "2", "--max-iters", "20", "--seed", "5"),
        ("search", "--objective", "lambda13", "--n", "2", "--restarts", "2", "--max-iters", "20",
         "--seed", "1"),
        ("search", "--objective", "sweep", "--n", "2,3", "--trials", "2", "--seed", "1", "--tol", "-100"),
        ("verify-paper-example",),
    ]
    shapes = set()
    for argv in commands:
        cli.main([*argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        _stock_validator().validate(report)
        shapes.add((report["command"], report.get("kind")))
    assert len(shapes) == 5 + len(check_inputs)


def test_validator_checks_the_schema_against_its_metaschema(monkeypatch):
    from commspectra import reporting

    broken = {**load_schema(), "type": 12}
    reporting._validator.cache_clear()
    try:
        monkeypatch.setattr(reporting, "load_schema", lambda: broken)
        with pytest.raises(jsonschema.SchemaError):
            validate_report({})
    finally:
        reporting._validator.cache_clear()


def test_importing_the_package_does_not_load_jsonschema():
    from conftest import SRC

    # the CLI imports reporting; jsonschema loads on the first validation
    code = "import sys, commspectra, commspectra.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"


def test_report_json_is_byte_deterministic_and_sorted():
    spec = double_commutator_spectrum(X0)
    r1 = build_report(
        "spectrum", INPUTS, 5, 1e-8, 0, {"spectrum": spectrum_section(spec)}
    )
    r2 = build_report(
        "spectrum", INPUTS, 5, 1e-8, 0, {"spectrum": spectrum_section(spec)}
    )
    s1, s2 = report_json(r1), report_json(r2)
    assert s1 == s2
    assert s1.endswith("\n")
    keys = list(json.loads(s1))
    assert keys == sorted(keys)


def test_schema_loads_once_and_declares_draft():
    schema = load_schema()
    assert schema is load_schema()  # cached
    assert "2020-12" in schema["$schema"]


def test_fmt_precision():
    assert fmt(2.0) == "2"
    assert fmt(1.0 / 3.0) == "0.3333333333"
    assert fmt(np.float64(1e-12)) == "1e-12"
