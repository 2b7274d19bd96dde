"""Conjecture verdicts and portable violation bundles.

Every statement checked has the shape "lhs <= rhs under hypotheses", and one
rule decides all of them: the statement holds when ``lhs <= rhs + tol``.
:func:`holds` applies the rule (elementwise on arrays, for batched
decisions) and :func:`judge` turns one decision into a
:class:`ConjectureVerdict`, the only place a verdict is built. A change of
the rule, such as error-bounded three-valued verdicts (ROADMAP item 6),
edits these two functions only.

The hypotheses hold when the scale-free ``hypotheses_residual`` is at most
:data:`HYPOTHESIS_TOL`, whatever the verdict tolerance
(:attr:`ConjectureVerdict.hypotheses_hold`); only then is a violation a
counterexample with a bundle.

A violation bundle is a JSON object holding everything needed to re-verify
the claimed violation from the file alone:

    {conjecture_id, n, m, matrices: [{re: [[...]], im: [[...]]}],
     lhs, rhs, hypotheses_residual, seed}

``m`` is len(matrices) and ``n`` is the order of matrices[0]. Payloads that
are really vectors (the scalar lemmas) are stored as 1 x k row matrices; the
per-id layout is documented in :mod:`commspectra.conjectures`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError

CONJECTURE_IDS = (
    "C1",            # family commutator-energy bound
    "C2",            # pivot family bound, orthogonality + trace conditions
    "C2A",           # partial sums of the lifted spectrum <= 2k + 2
    "C2C",           # pivot family bound, orthogonality only, doubled max
    "C4",            # weak majorization against the rank-one profile
    "LU_LEMMA",      # centered scalar inequality (proven)
    "NUMBERS_LEMMA", # sqrt(m)/2 pairing inequality (proven)
    "ISOTROPIC",     # isotropic-subspace trace bound (proven)
)

# one threshold for every id and scale: the residuals are scale-free (conjectures.py)
HYPOTHESIS_TOL = 1e-10


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of one inequality check.

    ``hypotheses_residual`` reports how well the inputs satisfied the
    statement's side conditions; ``witness`` carries a violation bundle when
    the inequality failed under hypotheses that hold, else None.
    """

    conjecture_id: str
    hypotheses_residual: float
    lhs: float
    rhs: float
    satisfied: bool
    witness: dict | None = field(default=None)

    @property
    def hypotheses_hold(self) -> bool:
        """Whether the side conditions held: residual <= HYPOTHESIS_TOL."""
        return self.hypotheses_residual <= HYPOTHESIS_TOL


def matrix_payload(M) -> dict:
    """JSON-ready {re, im} encoding of a complex matrix (or row vector)."""
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def payload_matrix(obj: dict) -> np.ndarray:
    re = np.asarray(obj.get("re"), dtype=np.float64)
    im_raw = obj.get("im")
    im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=np.float64)
    if re.shape != im.shape or re.ndim != 2:
        raise ParseError(f"bad matrix payload shapes: re {re.shape}, im {im.shape}")
    M = re + 1j * im
    if not np.isfinite(M).all():
        raise ParseError("matrix payload contains non-finite entries")
    return M


def make_bundle(
    conjecture_id: str,
    matrices: list[np.ndarray],
    lhs: float,
    rhs: float,
    hypotheses_residual: float,
    seed: int | None,
) -> dict:
    if conjecture_id not in CONJECTURE_IDS:
        raise ParseError(f"unknown conjecture id {conjecture_id!r}")
    if not matrices:
        raise ParseError("a bundle needs at least one matrix")
    first = np.atleast_2d(np.asarray(matrices[0]))
    return {
        "conjecture_id": conjecture_id,
        "n": int(first.shape[-1]),
        "m": len(matrices),
        "matrices": [matrix_payload(M) for M in matrices],
        "lhs": float(lhs),
        "rhs": float(rhs),
        "hypotheses_residual": float(hypotheses_residual),
        "seed": None if seed is None else int(seed),
    }


def holds(lhs, rhs, tol):
    """The verdict rule ``lhs <= rhs + tol``; elementwise on arrays."""
    return lhs <= rhs + tol


def judge(
    conjecture_id: str,
    matrices: list[np.ndarray],
    lhs: float,
    rhs: float,
    hypotheses_residual: float,
    tol: float,
    seed: int | None,
) -> ConjectureVerdict:
    """Decide one statement; a violation whose hypotheses hold carries its bundle."""
    lhs, rhs, resid = float(lhs), float(rhs), float(hypotheses_residual)
    verdict = ConjectureVerdict(conjecture_id, resid, lhs, rhs, bool(holds(lhs, rhs, tol)))
    if verdict.satisfied or not verdict.hypotheses_hold:
        return verdict
    return replace(verdict, witness=make_bundle(conjecture_id, matrices, lhs, rhs, resid, seed))


def bundle_matrices(bundle: dict) -> list[np.ndarray]:
    mats = bundle.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ParseError("bundle has no matrices")
    if len(mats) != bundle.get("m"):
        raise ParseError("bundle m does not match len(matrices)")
    return [payload_matrix(obj) for obj in mats]


def write_bundle(path, bundle: dict) -> None:
    Path(path).write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")


def read_bundle(path) -> dict:
    try:
        bundle = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(bundle, dict) or "conjecture_id" not in bundle:
        raise ParseError("bundle is missing conjecture_id")
    return bundle
