"""Run reports: JSON-ready sections, schema validation, deterministic dumps.

The ``bounds``, ``verdicts`` and ``search`` sections are the result
dataclasses themselves (``BoundReport``, ``ConjectureVerdict``,
``SearchResult``): :func:`jsonable` serializes any dataclass field by field,
so their keys are the fields. :func:`spectrum_section` stays a function
because it derives fields the ``Spectrum`` does not hold.

Every command-line invocation assembles one report dict, validated against
the schema shipped as ``report_schema.json`` (bump ``SCHEMA_VERSION`` on
any field change). The validator is built once per process: the schema is
checked against its metaschema on first use, not on every report, and
``jsonschema`` is imported only then, not by ``import commspectra``.
Reports are deterministic for fixed inputs and seed: keys are sorted,
floats keep full precision, and ``timing`` is always null so repeated runs
are byte-identical.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from importlib import resources

import numpy as np

from . import __version__
from .errors import InvariantViolationError
from .spectra import Spectrum, partial_sums
from .verdicts import matrix_payload

SCHEMA_VERSION = 1
TOOL_VERSION = __version__


@functools.cache
def load_schema() -> dict:
    text = resources.files("commspectra").joinpath("report_schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The schema's validator, checked against its metaschema once."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses into plain
    JSON values.

    Complex arrays and scalars become ``{re, im}`` payloads; real arrays
    become nested float lists; a dataclass becomes a dict of its fields.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_payload(obj)
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def spectrum_section(X: np.ndarray, spec: Spectrum) -> dict:
    n = spec.order
    trace_target = 2.0 * n - 2.0 * abs(np.trace(X)) ** 2 / spec.norm_scale
    return {
        "order": n,
        "values": spec.values.tolist(),
        "clusters": [[float(v), int(m)] for v, m in spec.clusters],
        "pairing_ok": bool(spec.pairing_ok),
        "norm_scale": float(spec.norm_scale),
        "trace_residual": float(abs(spec.values.sum() - trace_target)),
        "partial_sums": partial_sums(spec).tolist(),
    }


def build_report(
    command: str,
    inputs: list[dict],
    seed: int | None,
    tol: float,
    exit_code: int,
    sections: dict,
) -> dict:
    """Assemble and validate one run report.

    ``sections`` holds the per-command payloads (spectrum, bounds, verdicts,
    closed_form, search, sweep, reference_check, kind, bundle_path).
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": TOOL_VERSION,
        "command": command,
        "inputs": inputs,
        "seed": None if seed is None else int(seed),
        "tol": float(tol),
        "timing": None,
        "exit_code": int(exit_code),
    }
    report.update(jsonable(sections))
    validate_report(report)
    return report


def validate_report(report: dict) -> None:
    """Schema-check a report; a failure here is a library bug."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(report))
    if error is not None:
        raise InvariantViolationError(f"report failed schema validation: {error.message}")


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def fmt(x: float) -> str:
    """Render a float at the report precision (10 significant digits)."""
    return f"{float(x):.10g}"
