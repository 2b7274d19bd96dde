"""Checkers for commutator-norm inequalities, proven and conjectured.

Registry of ids (see :mod:`commspectra.verdicts` for the bundle format).
:data:`CHECKERS` gives each id its checker and the layout of its bundle
matrices; :func:`run_checker` and :func:`reverify_bundle` read it.

==============  ============================================================
id              statement checked
==============  ============================================================
C1              sum_{a,b} ||[B_a, B_b]||^2 <= (sum_a ||B_a||^2)^2 under
                Tr(B_a [B_c, B_b]) = 0 for all triples
C2              sum_a ||[B, B_a]||^2 <= (max_a ||B_a||^2 +
                sum_a ||B_a||^2) ||B||^2 under pairwise orthogonality of the
                family and Tr(B_a [B, B_b]) = 0
C2A             partial sums of the lifted spectrum <= 2k + 2 (monitored in
                :mod:`commspectra.spectra`)
C2C             like C2 with only the orthogonality condition and rhs
                coefficient 2 max + sum
C4              weak majorization by the rank-one profile (monitored in
                :mod:`commspectra.spectra`)
LU_LEMMA        sum_{i<j} |eta_i - eta_j|^2 r_ij <= sum r + max r for
                centered unit eta, r >= 0 (proven)
NUMBERS_LEMMA   sum eta_i omega_j r_ij <= sqrt(m)/2 for nonneg eta, omega
                with total square sum 1 and 0/1 r, m = sum r (proven)
ISOTROPIC       sum_i <T_X w_i, w_i> <= sum_i lambda_{2i-1}(T_X) for an
                orthonormal isotropic family {w_i} (proven)
==============  ============================================================
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, ParseError, PreconditionError
from .matrices import as_matrix, commutator, frobenius_inner, frobenius_norm
from .spectra import double_commutator_spectrum, monitor_majorization, monitor_partial_sums
from .verdicts import ConjectureVerdict, bundle_matrices, judge

HYPOTHESIS_TOL = 1e-8


def _family(Bs, min_size: int = 1) -> list[np.ndarray]:
    mats = [as_matrix(B, f"B[{i}]") for i, B in enumerate(Bs)]
    if len(mats) < min_size:
        raise PreconditionError(f"need at least {min_size} matrices, got {len(mats)}")
    n = mats[0].shape[0]
    for M in mats[1:]:
        if M.shape[0] != n:
            raise PreconditionError("family members must share one order")
    return mats


def check_conj1(Bs, tol: float = 1e-8, seed: int | None = None) -> ConjectureVerdict:
    """All-pairs commutator energy against total energy squared (id C1)."""
    mats = _family(Bs, min_size=1)
    resid = 0.0
    for Ba in mats:
        for Bb in mats:
            for Bc in mats:
                resid = max(resid, abs(np.trace(Ba @ commutator(Bc, Bb))))
    lhs = sum(
        float(np.linalg.norm(commutator(Ba, Bb)) ** 2) for Ba in mats for Bb in mats
    )
    total = sum(frobenius_norm(B) ** 2 for B in mats)
    return judge("C1", mats, lhs, total**2, resid, tol, seed)


def _pivot_family(B, Bs) -> tuple[np.ndarray, list[np.ndarray]]:
    B = as_matrix(B, "B")
    mats = _family(Bs, min_size=1)
    if mats[0].shape[0] != B.shape[0]:
        raise PreconditionError("pivot and family must share one order")
    if frobenius_norm(B) == 0.0 or any(frobenius_norm(M) == 0.0 for M in mats):
        raise DegenerateInputError("pivot and family members must be nonzero")
    return B, mats


def _pairwise_orth_residual(mats: list[np.ndarray]) -> float:
    resid = 0.0
    for i, Ba in enumerate(mats):
        for j, Bb in enumerate(mats):
            if i != j:
                resid = max(resid, abs(frobenius_inner(Ba, Bb)))
    return resid


def _check_pivot(cid: str, B, Bs, tol: float, seed: int | None) -> ConjectureVerdict:
    """sum_a ||[B, B_a]||^2 <= (c max_a ||B_a||^2 + sum_a ||B_a||^2) ||B||^2.

    C2 has c = 1 and both side conditions in the hypotheses residual; C2C
    has c = 2 and orthogonality only.
    """
    B, mats = _pivot_family(B, Bs)
    resid = _pairwise_orth_residual(mats)
    if cid == "C2":
        for Ba in mats:
            for Bb in mats:
                resid = max(resid, abs(np.trace(Ba @ commutator(B, Bb))))
    lhs = sum(float(np.linalg.norm(commutator(B, Ba)) ** 2) for Ba in mats)
    norms_sq = [frobenius_norm(Ba) ** 2 for Ba in mats]
    coef = 1.0 if cid == "C2" else 2.0
    rhs = (coef * max(norms_sq) + sum(norms_sq)) * frobenius_norm(B) ** 2
    return judge(cid, [B] + mats, lhs, rhs, resid, tol, seed)


def check_conj2(B, Bs, tol: float = 1e-8, seed: int | None = None) -> ConjectureVerdict:
    """Pivot commutator energy bound with both side conditions (id C2)."""
    return _check_pivot("C2", B, Bs, tol, seed)


def check_conj2c(B, Bs, tol: float = 1e-8, seed: int | None = None) -> ConjectureVerdict:
    """Pivot bound with orthogonality only and a doubled max term (id C2C)."""
    return _check_pivot("C2C", B, Bs, tol, seed)


def center_normalize(etas) -> np.ndarray:
    """Shift to zero sum and scale to unit square sum (check_lu_lemma inputs)."""
    e = np.asarray(etas, dtype=np.complex128).ravel()
    if e.size == 0:
        raise PreconditionError("need at least one scalar")
    e = e - e.mean()
    nrm = np.linalg.norm(e)
    if nrm == 0.0:
        raise DegenerateInputError("constant vectors center to zero")
    return e / nrm


def check_lu_lemma(etas, r, tol: float = 1e-8, seed: int | None = None) -> ConjectureVerdict:
    """Centered scalar inequality with nonnegative weights (id LU_LEMMA).

    lhs = sum_{i<j} |eta_i - eta_j|^2 r_ij, rhs = sum_{i<j} r_ij + max r_ij.
    Only the strict upper triangle of r is read.
    """
    e = np.asarray(etas, dtype=np.complex128).ravel()
    R = np.asarray(r, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] != e.size:
        raise PreconditionError(f"r must be {e.size}x{e.size}, got {R.shape}")
    if not (np.isfinite(e).all() and np.isfinite(R).all()):
        raise PreconditionError("non-finite input")
    if R[np.triu_indices_from(R, k=1)].min(initial=0.0) < 0.0:
        raise PreconditionError("weights must be nonnegative")
    center_resid = abs(e.sum())
    norm_resid = abs(np.linalg.norm(e) ** 2 - 1.0)
    if center_resid > 1e-10 or norm_resid > 1e-10:
        raise PreconditionError(
            f"eta must be centered and unit: |sum| = {center_resid:.3e}, "
            f"|1 - sum of squares| = {norm_resid:.3e}; see center_normalize()"
        )
    iu = np.triu_indices(e.size, k=1)
    w = R[iu]
    diffs = np.abs(e[iu[0]] - e[iu[1]]) ** 2
    lhs = (diffs * w).sum()
    rhs = w.sum() + (w.max() if w.size else 0.0)
    resid = max(center_resid, norm_resid)
    return judge("LU_LEMMA", [e.reshape(1, -1), R], lhs, rhs, resid, tol, seed)


def check_numbers_lemma(
    etas, omegas, r, tol: float = 1e-8, seed: int | None = None
) -> ConjectureVerdict:
    """Bipartite pairing inequality sum eta_i omega_j r_ij <= sqrt(m)/2."""
    e = np.asarray(etas, dtype=np.float64).ravel()
    o = np.asarray(omegas, dtype=np.float64).ravel()
    R = np.asarray(r, dtype=np.float64)
    if R.shape != (e.size, o.size):
        raise PreconditionError(f"r must be {e.size}x{o.size}, got {R.shape}")
    if not (np.isfinite(e).all() and np.isfinite(o).all() and np.isfinite(R).all()):
        raise PreconditionError("non-finite input")
    if e.min(initial=0.0) < -1e-12 or o.min(initial=0.0) < -1e-12:
        raise PreconditionError("eta and omega must be nonnegative")
    if not np.isin(R, (0.0, 1.0)).all():
        raise PreconditionError("r must be a 0/1 pattern")
    norm_resid = abs(e @ e + o @ o - 1.0)
    if norm_resid > 1e-10:
        raise PreconditionError(
            f"need sum of squares 1, off by {norm_resid:.3e}"
        )
    m = int(R.sum())
    lhs = np.clip(e, 0.0, None) @ R @ np.clip(o, 0.0, None)
    rhs = np.sqrt(m) / 2.0
    mats = [e.reshape(1, -1), o.reshape(1, -1), R]
    return judge("NUMBERS_LEMMA", mats, lhs, rhs, norm_resid, tol, seed)


def check_isotropic_trace_bound(
    X, W, tol: float = 1e-8, seed: int | None = None
) -> ConjectureVerdict:
    """Trace of T_X compressed to an isotropic subspace vs the odd-index
    eigenvalue sums (id ISOTROPIC, proven).

    ``W`` is an orthonormal family with <[X, w_i]*, w_j> = 0 for all pairs;
    lhs = sum ||[X, w_i]||^2 and rhs = lambda_1 + lambda_3 + ... up to the
    family size, on the scale of X as given.
    """
    X = as_matrix(X, "X")
    mats = _family(W, min_size=1)
    n = X.shape[0]
    if mats[0].shape[0] != n:
        raise PreconditionError("X and the family must share one order")
    m = len(mats)
    if 2 * m > n * n:
        raise PreconditionError(
            f"an isotropic family has at most {n * n // 2} members, got {m}"
        )
    orth = 0.0
    for i, wi in enumerate(mats):
        for j, wj in enumerate(mats):
            g = frobenius_inner(wi, wj)
            orth = max(orth, abs(g - (1.0 if i == j else 0.0)))
    if orth > HYPOTHESIS_TOL:
        raise PreconditionError(f"family is not orthonormal: residual {orth:.3e}")
    images = [commutator(X, wi).conj().T for wi in mats]
    iso = max(
        abs(frobenius_inner(img, wj)) for img in images for wj in mats
    )
    if iso > HYPOTHESIS_TOL:
        raise PreconditionError(f"family is not isotropic: residual {iso:.3e}")
    lhs = sum(float(np.linalg.norm(commutator(X, wi)) ** 2) for wi in mats)
    spec = double_commutator_spectrum(X)
    lam_raw = spec.norm_scale * spec.values
    rhs = lam_raw[0 : 2 * m : 2].sum()
    return judge("ISOTROPIC", [X] + mats, lhs, rhs, max(orth, iso), tol, seed)


def _real(M: np.ndarray, what: str) -> np.ndarray:
    if np.abs(M.imag).max(initial=0.0) > 1e-12:
        raise ParseError(f"{what} payload must be real")
    return M.real


@dataclass(frozen=True)
class Layout:
    """Where a checker's arguments sit in a bundle's list of matrices."""

    text: str  # the layout as error messages name it
    count: int  # matrices it needs; the least count when ``family`` is set
    family: bool  # whether a family of any length ends the list
    split: Callable[[list], tuple]  # the matrices -> the checker's positional arguments


_ONE = Layout("one matrix [X]", 1, False, lambda m: (m[0],))
_FAMILY = Layout("a family [B_1, ...]", 1, True, lambda m: (m,))
_PIVOT_FAMILY = Layout("a pivot and a family [B, B_1, ...]", 2, True, lambda m: (m[0], m[1:]))
_X_FAMILY = Layout("X and a family [X, w_1, ...]", 2, True, lambda m: (m[0], m[1:]))
_ETA_R = Layout("[eta row, r]", 2, False, lambda m: (m[0].ravel(), _real(m[1], "r")))
_ETA_OMEGA_R = Layout("[eta row, omega row, r]", 3, False, lambda m: (
    _real(m[0], "eta").ravel(), _real(m[1], "omega").ravel(), _real(m[2], "r")
))

# Every statement by id: its checker and the layout of its bundle matrices.
CHECKERS = {
    "C1": (check_conj1, _FAMILY),
    "C2": (check_conj2, _PIVOT_FAMILY),
    "C2A": (monitor_partial_sums, _ONE),
    "C2C": (check_conj2c, _PIVOT_FAMILY),
    "C4": (monitor_majorization, _ONE),
    "LU_LEMMA": (check_lu_lemma, _ETA_R),
    "NUMBERS_LEMMA": (check_numbers_lemma, _ETA_OMEGA_R),
    "ISOTROPIC": (check_isotropic_trace_bound, _X_FAMILY),
}


def run_checker(
    conjecture_id: str, matrices: list, tol: float = 1e-8, seed: int | None = None
) -> ConjectureVerdict:
    """Check one statement on matrices laid out as in its bundle."""
    if not isinstance(conjecture_id, str) or conjecture_id not in CHECKERS:
        raise ParseError(f"unknown conjecture id {conjecture_id!r}")
    checker, layout = CHECKERS[conjecture_id]
    m = len(matrices)
    if m < layout.count or (m > layout.count and not layout.family):
        raise ParseError(f"{conjecture_id} takes {layout.text}, got {m} matrices")
    return checker(*layout.split(matrices), tol=tol, seed=seed)


def reverify_bundle(bundle: dict) -> ConjectureVerdict:
    """Recompute a bundle's verdict from its serialized matrices alone."""
    mats = bundle_matrices(bundle)
    return run_checker(bundle.get("conjecture_id"), mats, seed=bundle.get("seed"))
