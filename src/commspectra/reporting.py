"""Run reports: JSON-ready sections, schema validation, deterministic dumps.

The ``bounds``, ``verdicts`` and ``search`` sections are the result
dataclasses themselves (``BoundReport``, ``ConjectureVerdict``,
``SearchResult``): :func:`jsonable` serializes any dataclass field by field,
so their keys are the fields. :func:`spectrum_section` stays a function
because it derives fields the ``Spectrum`` does not hold (order, cluster
lists, partial sums) and leaves out its unit matrix.

Every command-line invocation assembles one report dict, validated against
the full schema shipped as ``report_schema.json`` (bump ``SCHEMA_VERSION``
on any field change). The validator is built once per process: the schema
is checked against its metaschema on first use, not on every report, and
``jsonschema`` is imported only then, not by ``import commspectra``. Arrays
of leaf-typed items (``values``, ``partial_sums``, the ``clusters`` pairs)
are checked in one pass each, with jsonschema's own results (see
:func:`_validator`).
Reports are deterministic for fixed inputs and seed: they are written by
the one JSON serialization of :mod:`commspectra.matrixio` (sorted keys, full
float precision), complex arrays take its ``{re, im}`` encoding, and
``timing`` is always null so repeated runs are byte-identical.
"""
from __future__ import annotations

import dataclasses
import functools
from importlib import resources

import numpy as np

from . import __version__
from .errors import InvariantViolationError
from .matrixio import json_text, matrix_payload, read_json
from .spectra import Spectrum, partial_sums

SCHEMA_VERSION = 3
TOOL_VERSION = __version__
report_json = json_text  # reports, bundles and matrix files share one serialization


@functools.cache
def load_schema() -> dict:
    path = resources.files("commspectra").joinpath("report_schema.json")
    return read_json(path, path.read_text())


# item schemas whose arrays _validator checks in one pass
_NUMBER = {"type": "number"}
_CLUSTER = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "integer"}],
    "minItems": 2,
    "maxItems": 2,
}
_NUMBER_TYPES = {float, int}


@functools.cache
def _validator():
    """The schema's validator, checked against its metaschema once.

    Its ``items`` accepts a ``values``, ``partial_sums`` or ``clusters`` array
    in one pass when every element has an exact JSON type (``float`` or
    ``int``, never ``bool`` or a numpy scalar). Any other array, and any
    other item schema, goes to the stock ``items``, so the accepted reports
    and the error ``best_match`` picks are jsonschema's own.
    """
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    stock_items = cls.VALIDATORS["items"]

    def items(validator, item_schema, instance, schema):
        if type(instance) is list:
            if item_schema == _NUMBER and set(map(type, instance)) <= _NUMBER_TYPES:
                return
            if item_schema == _CLUSTER and all(
                type(p) is list and len(p) == 2 and type(p[0]) in _NUMBER_TYPES and type(p[1]) is int
                for p in instance
            ):
                return
        yield from stock_items(validator, item_schema, instance, schema)

    return jsonschema.validators.extend(cls, {"items": items})(schema)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses into plain
    JSON values.

    Complex arrays and scalars become ``{re, im}`` payloads; real arrays
    become nested float lists; a dataclass becomes a dict of its fields.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
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


def spectrum_section(spec: Spectrum) -> dict:
    return {
        "order": spec.order,
        "values": spec.values.tolist(),
        "clusters": [[float(v), int(m)] for v, m in spec.clusters],
        "pairing_ok": bool(spec.pairing_ok),
        "norm_scale": float(spec.norm_scale),
        "trace_residual": spec.trace_residual,
        "partial_sums": partial_sums(spec).tolist(),
    }


def build_report(
    command: str,
    inputs: list[dict],
    seed: int | None,
    tol: float | None,
    exit_code: int,
    sections: dict,
) -> dict:
    """Assemble and validate one run report.

    ``tol`` is the verdict tolerance the command applied (None if it judged
    no statement). ``sections`` holds the per-command payloads (spectrum,
    bounds, verdicts, closed_form, search, sweep, reference_check, kind,
    bundle_path).
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": TOOL_VERSION,
        "command": command,
        "inputs": inputs,
        "seed": None if seed is None else int(seed),
        "tol": None if tol is None else float(tol),
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


def fmt(x: float) -> str:
    """Render a float at the report precision (10 significant digits)."""
    return f"{float(x):.10g}"
