"""Run reports: JSON-ready sections and deterministic dumps.

The ``bounds``, ``verdicts`` and ``search`` sections are the result
dataclasses themselves: the ladder of one matrix (the ``BoundReport`` that
``bound_report`` returns), ``ConjectureVerdict`` and ``SearchResult``.
:func:`jsonable` serializes any dataclass field by field, so their keys are
the fields. The ``sweep`` section is the dict ``search.sweep`` returns, its
rows holding data (each argmax unit matrix an array) that :func:`jsonable`
encodes. :func:`spectrum_section` stays a function because it derives
fields the ``Spectrum`` does not hold as fields (order, cluster lists,
partial sums) and leaves out its unit matrix.

Every command-line invocation assembles one report dict. Its shape is the
contract published as ``report_schema.json`` (package data; bump
``SCHEMA_VERSION`` on any field change). Reports are not re-checked at run
time: the shape is fixed by this module, so the test suite checks every
report it builds against the schema with a stock jsonschema validator.
Reports are deterministic for fixed inputs and seed: they are written by
the one JSON serialization of :mod:`commspectra.matrixio` (sorted keys, full
float precision), complex arrays take its ``{re, im}`` encoding, and
``timing`` is always null so repeated runs are byte-identical.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import __version__
from .matrixio import matrix_payload
from .spectra import Spectrum

SCHEMA_VERSION = 3


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses into plain
    JSON values.

    Complex arrays and scalars become ``{re, im}`` payloads; real arrays
    become nested float lists; a dataclass becomes a dict of its fields.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        item = obj.item()  # a Python scalar, except for extended precision
        if not isinstance(item, np.generic):
            return jsonable(item)
    if isinstance(obj, complex):
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
        "partial_sums": spec.partial_sums.tolist(),
    }


def build_report(
    command: str,
    inputs: list[dict],
    seed: int | None,
    tol: float | None,
    exit_code: int,
    sections: dict,
) -> dict:
    """Assemble one run report.

    ``tol`` is the verdict tolerance the command applied (None if it judged
    no statement). ``sections`` holds the per-command payloads (spectrum,
    bounds, verdicts, closed_form, search, sweep, reference_check, kind,
    bundle_path).
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "seed": None if seed is None else int(seed),
        "tol": None if tol is None else float(tol),
        "timing": None,
        "exit_code": int(exit_code),
    }
    report.update(jsonable(sections))
    return report


def fmt(x: float) -> str:
    """Render a float at the report precision (10 significant digits)."""
    return f"{float(x):.10g}"
