"""Conjecture verdicts, proven invariants and portable violation bundles.

Every statement checked has the shape "lhs <= rhs", decided by one rule,
:func:`holds`: ``lhs <= rhs + tol`` (elementwise on arrays). Its uses and
their tolerances all live here, so error-bounded three-valued verdicts
(ROADMAP item 6) change the rule in this module only:

* verdicts, at the caller's ``tol`` (:data:`DEFAULT_TOL`, 1e-8): :func:`judge`
  is the only place a verdict is built and the only caller of
  :func:`make_bundle`, so every bundle is a verdict's witness;
* hypotheses, whose scale-free residual must be at most
  :data:`HYPOTHESIS_TOL` (1e-10) whatever ``tol`` is, before a violation
  counts and gets a bundle (:attr:`ConjectureVerdict.hypotheses_hold`);
* proven invariants, raised by :func:`require` and nowhere else: positivity
  and the trace identity at :data:`IDENTITY_TOL` (1e-9), the bound ladder
  and the ascent and lambda_1 + lambda_3 caps at :data:`PROVEN_TOL` (1e-8).

A violation bundle is a JSON object holding everything needed to re-verify
the claimed violation from the file alone:

    {conjecture_id, n, m, matrices: [{re: [[...]], im: [[...]]}],
     lhs, rhs, hypotheses_residual, seed}

``m`` is len(matrices) and ``n`` is the order of matrices[0]. Payloads that
are really vectors (the scalar lemmas) are stored as 1 x k row matrices; the
per-id layout is documented in :mod:`commspectra.conjectures`. The matrices
and the file go through the one JSON codec of :mod:`commspectra.matrixio`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolationError, ParseError
from .matrixio import matrix_payload, payload_matrix, read_json, write_json

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

DEFAULT_TOL = 1e-8
# one threshold for every id and scale: the residuals are scale-free (conjectures.py)
HYPOTHESIS_TOL = 1e-10
IDENTITY_TOL = 1e-9  # positivity of T_X and the trace identity
PROVEN_TOL = 1e-8  # the bound ladder, the ascent caps and the lambda_1 + lambda_3 cap


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


def require(ok, what: str) -> None:
    """Raise :class:`InvariantViolationError` (broken numerics, not a counterexample)
    with message ``what`` unless ``ok``, a :func:`holds` decision at a proven-invariant tolerance."""
    if not ok:
        raise InvariantViolationError(what)


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
    return [payload_matrix(obj, f"bundle matrix {i}") for i, obj in enumerate(mats)]


def write_bundle(path, bundle: dict) -> None:
    write_json(path, bundle)


def read_bundle(path) -> dict:
    """:raises ParseError: if the file cannot be read, is not JSON or has no conjecture_id"""
    bundle = read_json(path)
    if not isinstance(bundle, dict) or "conjecture_id" not in bundle:
        raise ParseError(f"{path}: bundle is missing conjecture_id")
    return bundle
