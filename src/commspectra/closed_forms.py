"""Closed-form spectra for special classes and the extremal-equality witness.

For unit Frobenius norm X:

* normal X with eigenvalues x_i: the lifted spectrum is {|x_i - x_j|^2}.
  The x_i come from one general eigensolve: the eigenvalues of a normal
  matrix are perfectly conditioned, so a backward-stable solve gives them
  to rounding, repeated eigenvalues included;
* rank-one X with t = |Tr X|^2: the spectrum is
  {2 - t, 2 - t} + {1 x (2n - 4)} + {0 x ((n-1)^2 + 1)};
* lambda_1 = 2 exactly when X = U diag(X0, 0) U* with Tr X0 = 0. U is the
  eigenbasis of X X* + X* X, which is then the projector onto the joint
  support of X and X* (X0 X0* + X0* X0 = I for a traceless unit 2x2 X0),
  so its top two eigenvectors are separated from the rest by a gap of 1.

:func:`detect_rank_one` stays public though no library code calls it (the
``closed-form`` report classifies the unit matrix it already holds): the
benchmark's ``spectrum`` workload calls it (``bench/workloads.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .errors import DegenerateSupportError, PreconditionError
from .matrices import commutator, frobenius_norm, normalized
from .spectra import Spectrum, double_commutator_spectrum

NORMALITY_RTOL = 1e-10
RANK_ONE_RTOL = 1e-8
EQUALITY_THRESHOLD = 2.0 - 1e-6
WITNESS_RESIDUAL_TOL = 1e-7


def _normality_defect(Xh) -> float:
    return frobenius_norm(commutator(Xh, Xh.conj().T))


def _normal_values(Xh) -> np.ndarray:
    if _normality_defect(Xh) > NORMALITY_RTOL:
        raise PreconditionError("matrix is not normal")
    x = eigensolver.eigvals(Xh)
    diffs = np.abs(np.subtract.outer(x, x)) ** 2
    return np.sort(diffs.ravel())[::-1]


def _rank_one(Xh) -> tuple[bool, float]:
    s = eigensolver.svd(Xh)
    is_r1 = bool(s.size == 1 or s[1] <= RANK_ONE_RTOL * s[0])
    return is_r1, float(abs(np.trace(Xh)) ** 2)


def is_normal(X) -> bool:
    """True when ||[Xh, Xh*]|| <= ``NORMALITY_RTOL`` for Xh = X / ||X|| (X nonzero)."""
    return _normality_defect(normalized(X)) <= NORMALITY_RTOL


def normal_spectrum(X) -> np.ndarray:
    """Closed-form lifted spectrum {|x_i - x_j|^2} of a normal X, descending.

    Values refer to the unit-normalized matrix, matching
    :func:`commspectra.spectra.double_commutator_spectrum`.

    :raises PreconditionError: if X is not normal by :func:`is_normal` (rtol 1e-10)
    """
    return _normal_values(normalized(X))


def detect_rank_one(X) -> tuple[bool, float]:
    """(is rank one, |Tr Xhat|^2) using the s_2/s_1 < 1e-8 cutoff."""
    return _rank_one(normalized(X))


def rank_one_spectrum(n: int, trace_abs_sq: float) -> np.ndarray:
    """Closed-form lifted spectrum of a unit-norm rank-one matrix, descending.

    ``trace_abs_sq`` is |Tr X|^2 of the unit-normalized matrix, in [0, 1].
    """
    if n < 2:
        raise PreconditionError(f"rank-one closed form needs n >= 2, got {n}")
    t = float(trace_abs_sq)
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise PreconditionError(f"|Tr X|^2 = {t!r} outside [0, 1] for unit norm")
    t = min(max(t, 0.0), 1.0)
    values = [2.0 - t] * 2 + [1.0] * (2 * n - 4) + [0.0] * ((n - 1) ** 2 + 1)
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class EqualityWitness:
    """Certificate that lambda_1(T_X) attains the extremal value 2.

    ``unitary`` and ``block`` reconstruct the unit-normalized input as
    U diag(X0, 0) U*; ``embedding_residual`` is the Frobenius error of that
    reconstruction and ``trace_abs`` is |Tr X0| (zero in exact arithmetic).
    U's column phases are LAPACK's; the reconstruction holds for any phases,
    since X0 is read through the first two columns of the same U.
    """

    unitary: np.ndarray
    block: np.ndarray
    lambda1: float
    embedding_residual: float
    trace_abs: float


def detect_equality_case(X, spectrum: Spectrum | None = None) -> EqualityWitness | None:
    """Witness for lambda_1 = 2, or None when lambda_1 <= ``EQUALITY_THRESHOLD``.

    :raises DegenerateSupportError: if lambda_1 passes the threshold but no
        valid two-dimensional embedding exists at the residual tolerance
    """
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    lambda1 = float(spec.values[0])
    if lambda1 <= EQUALITY_THRESHOLD:
        return None
    Xh = spec.matrix
    Xs = Xh.conj().T
    rank = int((eigensolver.svd(np.hstack([Xh, Xs])) > 1e-8).sum())
    if rank != 2:
        raise DegenerateSupportError(
            f"joint support has dimension {rank}, expected 2 (lambda_1 = {lambda1!r})"
        )
    U = eigensolver.eigh(Xh @ Xs + Xs @ Xh).vectors
    Q = U[:, :2]
    X0 = Q.conj().T @ Xh @ Q
    residual = float(np.linalg.norm(Xh - Q @ X0 @ Q.conj().T))
    if residual > WITNESS_RESIDUAL_TOL:
        raise DegenerateSupportError(
            f"embedding residual {residual:.3e} exceeds {WITNESS_RESIDUAL_TOL:g} "
            f"(lambda_1 = {lambda1!r})"
        )
    return EqualityWitness(
        unitary=U,
        block=X0,
        lambda1=lambda1,
        embedding_residual=residual,
        trace_abs=float(abs(np.trace(X0))),
    )


def closed_form_summary(X) -> dict:
    """Classify X and compare every applicable closed form with the dense
    spectrum; used by the command-line ``closed-form`` report. Every test
    judges the dense spectrum's unit matrix ``spec.matrix``, which is
    :func:`normalized` of X bit for bit, so X is normalized once."""
    spec = double_commutator_spectrum(X)
    Xh = spec.matrix
    normal_flag = _normality_defect(Xh) <= NORMALITY_RTOL
    r1_flag, t = _rank_one(Xh)
    out: dict = {
        "order": spec.order,
        "is_normal": normal_flag,
        "is_rank_one": r1_flag,
        "classification": "rank_one" if r1_flag else ("normal" if normal_flag else "none"),
        "dense_values": spec.values,
        "norm_scale": spec.norm_scale,
    }
    if normal_flag:
        cf = _normal_values(Xh)
        out["normal_closed_form"] = {
            "values": cf,
            "max_abs_diff": float(np.abs(cf - spec.values).max()),
        }
    if r1_flag and spec.order >= 2:  # rank_one_spectrum is defined from n = 2
        cf = rank_one_spectrum(spec.order, t)
        out["rank_one_closed_form"] = {
            "trace_abs_sq": t,
            "values": cf,
            "max_abs_diff": float(np.abs(cf - spec.values).max()),
        }
    witness = None
    try:
        witness = detect_equality_case(X, spectrum=spec)
    except DegenerateSupportError as exc:
        out["equality"] = {"detected": True, "witness_valid": False, "detail": str(exc)}
    else:
        if witness is None:
            out["equality"] = {"detected": False}
        else:
            out["equality"] = {
                "detected": True,
                "witness_valid": True,
                "lambda1": witness.lambda1,
                "embedding_residual": witness.embedding_residual,
                "trace_abs": witness.trace_abs,
            }
    return out
