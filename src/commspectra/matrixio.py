"""File formats and the library's one JSON codec.

Every JSON file the library reads or writes (matrix files, check payloads,
violation bundles, run reports) goes through this module:
:func:`matrix_payload` is the one ``{"re": [[...]], "im": [[...]]}`` encoder,
:func:`payload_matrix` the one decoder (``im`` optional, bits kept as
written), :func:`read_json` the one reader and :func:`write_json` the one
writer of the one serialization, :func:`json_text`. Any defect of a file
(unreadable, invalid JSON, a missing or non-numeric field, re/im shapes
that differ, a non-finite entry) raises ``ParseError``. :func:`read_input`
reads a file once: its UTF-8 text, less a leading byte-order mark, and the
SHA-256 of all its bytes; the loaders take that text, so a digest names the
bytes that were parsed.

:func:`load_matrix` tells its two formats apart by content, not extension:
JSON ``{"n": int, "re": ..., "im": ...}`` (a payload with its order, written
by :func:`save_matrix`) starts with ``{``; otherwise each line is a matrix
row of ``a+bi`` tokens (``i``, ``I`` or ``j`` mark the imaginary unit).
Scalar-lemma check payloads are documented in :func:`load_check_payload`.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from .errors import ParseError


def _finite(M: np.ndarray, where) -> np.ndarray:
    if not np.isfinite(M).all():
        raise ParseError(f"{where}: non-finite entries are not accepted")
    return M


def _numeric(obj, key: str, where) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: missing or non-numeric field {key!r}") from exc


def matrix_payload(M) -> dict:
    """JSON-ready {re, im} encoding of a complex matrix (or row vector)."""
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def payload_matrix(obj, where, flat: bool = False) -> np.ndarray:
    """Decode a ``{re, im}`` payload into a complex matrix, or into a vector
    with ``flat`` (both parts raveled); ``im`` absent or null reads as zeros.

    :raises ParseError: on a missing or non-numeric field, re/im shapes
        that differ or do not make a matrix, or a non-finite entry
    """
    re = _numeric(obj, "re", where)
    im = np.zeros_like(re) if obj.get("im") is None else _numeric(obj, "im", where)
    if flat:
        re, im = re.ravel(), im.ravel()
    if re.shape != im.shape or re.ndim != (1 if flat else 2):
        raise ParseError(f"{where}: bad re/im shapes {re.shape}/{im.shape}")
    M = np.empty(re.shape, dtype=np.complex128)
    M.real, M.imag = re, im  # not re + 1j * im, which loses the sign of a zero
    return _finite(M, where)


def read_input(path) -> tuple[str, str]:
    """A file's UTF-8 text, less a leading byte-order mark, and the hex
    SHA-256 of all its bytes, from one read."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_json(path, text: str | None = None):
    """The JSON value of a file, parsed from ``text`` if it was read already.

    :raises ParseError: if the file cannot be read or is not valid JSON
    """
    try:
        return json.loads(read_input(path)[0] if text is None else text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def json_text(obj) -> str:
    """Deterministic JSON text: sorted keys, indent 2, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_text(obj))


def _token_to_complex(token: str, path, row: int, col: int) -> complex:
    # only the imaginary unit (the last letter, before any closing parenthesis)
    # becomes j: the i of inf or infinity stays, so those reach the non-finite
    # refusal as nan does
    try:
        return complex(re.sub(r"[iI](\)?)$", r"j\1", token))
    except ValueError as exc:
        raise ParseError(
            f"{path}: row {row + 1}, entry {col + 1}: cannot parse {token!r}"
        ) from exc


def _matrix_from_text(text: str, path) -> np.ndarray:
    rows = [
        [_token_to_complex(tok, path, r, c) for c, tok in enumerate(line.split())]
        for r, line in enumerate(line for line in text.splitlines() if line.strip())
    ]
    if not rows:
        raise ParseError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have unequal lengths")
    if len(rows) != width:
        raise ParseError(f"{path}: matrix must be square, got {len(rows)}x{width}")
    return _finite(np.asarray(rows, dtype=np.complex128), path)


def load_matrix(path, text: str | None = None) -> np.ndarray:
    """Load a square complex matrix from a JSON or text matrix file, parsed
    from ``text`` if it was read already (:func:`read_input`).

    :raises ParseError: on any structural or numeric problem, including an
        ``n`` that is not an integer (a boolean, or a float with a fraction)
    """
    if text is None:
        text = read_input(path)[0]
    if not text.lstrip().startswith("{"):
        return _matrix_from_text(text, path)
    obj = read_json(path, text)  # text starting with "{" parses to an object
    raw = obj.get("n")
    try:
        n = int(raw)  # an integral float or a numeral string is accepted
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: missing or bad field 'n'") from exc
    if isinstance(raw, bool) or (isinstance(raw, float) and n != raw):
        raise ParseError(f"{path}: n must be an integer, got {raw!r}")
    if n < 1:
        raise ParseError(f"{path}: n must be positive, got {n}")
    M = payload_matrix(obj, path)
    if M.shape != (n, n):
        raise ParseError(f"{path}: array shape {M.shape} does not match n = {n}")
    return M


def save_matrix(path, X) -> None:
    """Write a matrix in the JSON ``{n, re, im}`` format."""
    M = np.atleast_2d(np.asarray(X, dtype=np.complex128))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError(f"only square matrices are saved, got shape {M.shape}")
    write_json(path, {"n": int(M.shape[0]), **matrix_payload(M)})


def _real_vector(obj, key: str, path) -> np.ndarray:
    return _finite(_numeric(obj, key, path).ravel(), path)


def _weight_matrix(obj, path) -> np.ndarray:
    R = _numeric(obj, "r", path)
    if R.ndim != 2:
        raise ParseError(f"{path}: 'r' must be a 2-D array")
    return _finite(R, path)


def load_check_payload(path, kind: str, text: str | None = None):
    """Load a scalar-lemma payload file, parsed from ``text`` if it was read already.

    * ``kind="lu"``: ``{"etas": ..., "r": [[...]]}`` where ``etas`` is a
      list of reals or ``{"re": [...], "im": [...]}`` for complex values;
      returns ``(etas, r)``. The etas must already be centered and unit
      (see :func:`commspectra.conjectures.center_normalize`).
    * ``kind="numbers"``: ``{"etas": [...], "omegas": [...], "r": [[...]]}``
      with real entries; returns ``(etas, omegas, r)``.
    """
    obj = read_json(path, text)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if kind == "lu":
        raw = obj.get("etas")
        if isinstance(raw, dict):
            etas = payload_matrix(raw, f"{path}: etas", flat=True)
        else:
            etas = _real_vector(obj, "etas", path).astype(np.complex128)
        return etas, _weight_matrix(obj, path)
    if kind == "numbers":
        return (
            _real_vector(obj, "etas", path),
            _real_vector(obj, "omegas", path),
            _weight_matrix(obj, path),
        )
    raise ParseError(f"unknown payload kind {kind!r}")
