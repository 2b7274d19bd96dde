"""Checkers for commutator-norm inequalities, proven and conjectured.

Registry of ids (see :mod:`commspectra.verdicts` for the bundle format).
:data:`CHECKERS` gives each id its checker and the layout of its bundle
matrices; :func:`run_checker` and :func:`reverify_bundle` read it.

Each verdict's ``hypotheses_residual`` (res. below) says how far the inputs
are from the side conditions. It is scale-free: matrix conditions are read
on the unit matrices M^ = M / ||M||_F (:func:`~commspectra.matrices.normalized`),
so scaling a family moves lhs and rhs but not the residual. One threshold,
:data:`commspectra.verdicts.HYPOTHESIS_TOL`, decides whether the hypotheses
hold; a checker raises only for malformed input (shapes, non-finite entries,
negative weights, a non-0/1 pattern, an oversized isotropic family, a zero
C2/C2C pivot or member).

==============  ============================================================
id              statement checked; hypotheses residual
==============  ============================================================
C1              sum_{a,b} ||[B_a, B_b]||^2 <= (sum_a ||B_a||^2)^2 under
                Tr(B_a [B_c, B_b]) = 0 for all triples;
                res. max |Tr(B^_a [B^_c, B^_b])|, a zero member staying zero
C2              sum_a ||[B, B_a]||^2 <= (max_a ||B_a||^2 +
                sum_a ||B_a||^2) ||B||^2 under pairwise orthogonality of the
                family and Tr(B_a [B, B_b]) = 0;
                res. the C2C res. or max |Tr(B^_a [B^, B^_b])| if larger
C2A             partial sums of the lifted spectrum <= 2k + 2 (monitored in
                :mod:`commspectra.spectra`); res. 0
C2C             like C2 with only the orthogonality condition and rhs
                coefficient 2 max + sum; res. max_{a != b} |<B^_a, B^_b>|
C4              weak majorization by the rank-one profile (monitored in
                :mod:`commspectra.spectra`); res. 0
LU_LEMMA        sum_{i<j} |eta_i - eta_j|^2 r_ij <= sum r + max r for
                centered unit eta, r >= 0 (proven);
                res. max(|sum eta|, |sum |eta|^2 - 1|)
NUMBERS_LEMMA   sum eta_i omega_j r_ij <= sqrt(m)/2 for nonneg eta, omega
                with total square sum 1 and 0/1 r, m = sum r (proven);
                res. |sum eta^2 + sum omega^2 - 1|
ISOTROPIC       sum_i <T_X w_i, w_i> <= sum_i lambda_{2i-1}(T_X) for an
                orthonormal isotropic family {w_i} (proven); res. the max
                of |<w_i, w_j> - delta_ij| and |<[X^, w_i]*, w_j>|
==============  ============================================================
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, ParseError, PreconditionError
from .matrices import as_matrix, frobenius_norm, normalized
from .spectra import double_commutator_spectrum, monitor_majorization, monitor_partial_sums
from .verdicts import DEFAULT_TOL, ConjectureVerdict, bundle_matrices, judge


def _stack(Bs, lead: np.ndarray | None = None) -> np.ndarray:
    """The family as one (m, n, n) stack, m >= 1, of the order of ``lead`` if given."""
    mats = [as_matrix(B, f"B[{i}]") for i, B in enumerate(Bs)]
    if not mats:
        raise PreconditionError("need at least one family member")
    shape = mats[0].shape if lead is None else lead.shape
    if any(M.shape != shape for M in mats):
        raise PreconditionError(f"every matrix must have the shape {shape}")
    return np.stack(mats)


def _comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA over the leading axes: a matrix and a stack (b, n, n) give
    (b, n, n); ``_comm(A[:, None], B[None])`` gives every pair (a, b, n, n)."""
    return A @ B - B @ A


def _gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A_a, B_b> = Tr(A_a B_b*) for every a, b: stacks (a, n, n) and (b, n, n) give (a, b)."""
    return np.einsum("aij,bij->ab", A, B.conj())


def _trace(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Tr(A_a C_...) for a stack (a, n, n) and a stack (..., n, n), as (a, ...)."""
    return np.einsum("aij,...ji->a...", A, C)


def check_conj1(Bs, tol: float = DEFAULT_TOL, seed: int | None = None) -> ConjectureVerdict:
    """All-pairs commutator energy against total energy squared (id C1)."""
    B = _stack(Bs)
    norms = frobenius_norm(B)
    U = np.zeros_like(B)
    U[norms > 0] = normalized(B[norms > 0])
    resid = np.abs(_trace(U, _comm(U[:, None], U[None]))).max()
    lhs = (frobenius_norm(_comm(B[:, None], B[None])) ** 2).sum()
    return judge("C1", list(B), lhs, (norms**2).sum() ** 2, resid, tol, seed)


def _check_pivot(cid: str, B, Bs, tol: float, seed: int | None) -> ConjectureVerdict:
    """sum_a ||[B, B_a]||^2 <= (c max_a ||B_a||^2 + sum_a ||B_a||^2) ||B||^2.

    C2 has c = 1 and both side conditions in the hypotheses residual; C2C
    has c = 2 and orthogonality only.
    """
    B = as_matrix(B, "B")
    F = _stack(Bs, B)
    norms = frobenius_norm(F)
    if frobenius_norm(B) == 0.0 or not norms.all():
        raise DegenerateInputError("pivot and family members must be nonzero")
    U = normalized(F)
    G = _gram(U, U)
    resid = np.abs(G - np.diag(np.diag(G))).max()
    if cid == "C2":
        resid = max(resid, np.abs(_trace(U, _comm(normalized(B), U))).max())
    lhs = (frobenius_norm(_comm(B, F)) ** 2).sum()
    norms_sq = norms**2
    coef = 1.0 if cid == "C2" else 2.0
    # ||B||^2 saturates to inf beyond about 1e154 (np.square: a float's ** 2 raises there)
    with np.errstate(over="ignore"):
        rhs = (coef * norms_sq.max() + norms_sq.sum()) * np.square(frobenius_norm(B))
    return judge(cid, [B, *F], lhs, rhs, resid, tol, seed)


def check_conj2(B, Bs, tol: float = DEFAULT_TOL, seed: int | None = None) -> ConjectureVerdict:
    """Pivot commutator energy bound with both side conditions (id C2)."""
    return _check_pivot("C2", B, Bs, tol, seed)


def check_conj2c(B, Bs, tol: float = DEFAULT_TOL, seed: int | None = None) -> ConjectureVerdict:
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


def check_lu_lemma(etas, r, tol: float = DEFAULT_TOL, seed: int | None = None) -> ConjectureVerdict:
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
    iu = np.triu_indices(e.size, k=1)
    w = R[iu]
    diffs = np.abs(e[iu[0]] - e[iu[1]]) ** 2
    lhs = (diffs * w).sum()
    rhs = w.sum() + (w.max() if w.size else 0.0)
    resid = max(abs(e.sum()), abs(np.linalg.norm(e) ** 2 - 1.0))
    return judge("LU_LEMMA", [e.reshape(1, -1), R], lhs, rhs, resid, tol, seed)


def check_numbers_lemma(
    etas, omegas, r, tol: float = DEFAULT_TOL, seed: int | None = None
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
    m = int(R.sum())
    lhs = np.clip(e, 0.0, None) @ R @ np.clip(o, 0.0, None)
    rhs = np.sqrt(m) / 2.0
    mats = [e.reshape(1, -1), o.reshape(1, -1), R]
    return judge("NUMBERS_LEMMA", mats, lhs, rhs, norm_resid, tol, seed)


def check_isotropic_trace_bound(
    X, W, tol: float = DEFAULT_TOL, seed: int | None = None
) -> ConjectureVerdict:
    """Trace of T_X compressed to an isotropic subspace vs the odd-index
    eigenvalue sums (id ISOTROPIC, proven).

    ``W`` is an orthonormal family with <[X, w_i]*, w_j> = 0 for all pairs;
    lhs = sum ||[X, w_i]||^2 and rhs = lambda_1 + lambda_3 + ... up to the
    family size, on the scale of X as given.
    """
    X = as_matrix(X, "X")
    W = _stack(W, X)
    n, m = X.shape[0], W.shape[0]
    if 2 * m > n * n:
        raise PreconditionError(
            f"an isotropic family has at most {n * n // 2} members, got {m}"
        )
    spec = double_commutator_spectrum(X)
    images = _comm(spec.matrix, W)  # [X^, w_i]
    orth = np.abs(_gram(W, W) - np.eye(m)).max()
    iso = np.abs(_trace(W, images)).max()  # |<[X^, w_i]*, w_j>| = |Tr(w_j [X^, w_i])|
    lhs = spec.norm_scale * (frobenius_norm(images) ** 2).sum()
    rhs = (spec.norm_scale * spec.values)[0 : 2 * m : 2].sum()
    return judge("ISOTROPIC", [X, *W], lhs, rhs, max(orth, iso), tol, seed)


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
    conjecture_id: str, matrices: list, tol: float = DEFAULT_TOL, seed: int | None = None
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
