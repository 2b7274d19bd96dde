"""Deterministic Hermitian eigendecomposition, general eigenvalues and
singular values.

This is the only module that touches LAPACK (through numpy, and through
``ctypes`` for the subset solve); everything downstream consumes its
contracts:

* eigenvalues are returned in descending order;
* eigenvectors are orthonormal, and each column's phase is fixed by making
  its first significantly nonzero component real and positive;
* the max eigenpair residual ``||M v - w v||`` is computed and stored;
* identical input bits give identical output bits (fixed LAPACK build plus
  deterministic post-processing);
* :func:`eigvalsh` keeps a float64 (real symmetric) input float64, so LAPACK
  solves it in real arithmetic; every other input, and every input of
  :func:`eigh`, is solved in complex128;
* ``eigh(M, top=m)`` returns only the ``m`` largest eigenpairs under the
  same contract (residual over the returned columns). It asks LAPACK
  ``zheevr`` for that index range, a different driver from the full
  solve's ``zheevd``, so its bits belong to ``zheevr`` and the numpy build.
  Where numpy's LAPACK does not export ``zheevr`` it keeps the top ``m``
  columns of the full solve instead;
* :func:`eigvals` returns the eigenvalues of a general square matrix from
  LAPACK ``zgeev``, in LAPACK's order.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .matrices import as_matrix, as_stack

HERMITICITY_RTOL = 1e-10
LAPACK_COL_MAJOR = 102
# components below this fraction of the column norm do not anchor the phase
PHASE_ANCHOR_RTOL = 1e-6


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and phase-fixed orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-ordered stack (real or complex)."""
    flat = M.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", flat, flat))


def _require_hermitian(M: np.ndarray) -> np.ndarray:
    """Check each matrix of a stack (..., N, N) for Hermiticity; symmetrize.

    M* is written once into a C-ordered buffer; everything after that one
    strided pass runs in memory order.
    """
    Mh = np.conjugate(np.swapaxes(M, -1, -2), out=np.empty(M.shape, M.dtype))
    # ||M*|| = ||M|| and ||M - M*||, from the real and imaginary parts
    scale = _frobenius(Mh)
    dev = _frobenius(np.subtract(M, Mh, order="C"))
    bad = np.flatnonzero(dev > HERMITICITY_RTOL * np.maximum(scale, 1e-300))
    if bad.size:
        i = np.unravel_index(bad[0], dev.shape)
        raise PreconditionError(
            f"matrix is not Hermitian: ||M - M*|| = {dev[i]:.3e} vs ||M|| = {scale[i]:.3e}"
        )
    # symmetrize so LAPACK sees an exactly Hermitian input: (M + M*) / 2,
    # built in place in the buffer of M*
    Mh += M
    Mh *= 0.5
    return Mh


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its anchor component is real and positive.

    The anchor is the first component at least PHASE_ANCHOR_RTOL times the
    column's largest magnitude; an all-zero column is left as it is.
    """
    mags = np.abs(V)
    anchor = np.argmax(mags >= PHASE_ANCHOR_RTOL * mags.max(axis=0), axis=0)
    a = V[anchor, np.arange(V.shape[1])]
    phases = np.ones_like(a)
    nonzero = a != 0
    a = a[nonzero]
    # hypot is what scalar abs() computes; np.abs on an array may round
    # differently, and the phases should not depend on the layout
    phases[nonzero] = a.conj() / np.hypot(a.real, a.imag)
    return V * phases


@functools.cache
def _zheevr():
    """LAPACKE ``zheevr`` of the OpenBLAS that numpy links, or None.

    numpy 2.x wheels link ``scipy-openblas64``: 64-bit integers, symbols
    prefixed ``scipy_`` and suffixed ``64_``. numpy 1.x wheels, conda or
    system BLAS, and Windows do not export this symbol.
    """
    import ctypes

    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_zheevr64_
    except (OSError, AttributeError):
        return None
    i64, ptr, f64, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_char
    fn.restype = i64
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
    # m, w, z, ldz, isuppz
    fn.argtypes = [
        ctypes.c_int, char, char, char, i64, ptr, i64,
        f64, f64, i64, i64, f64, ptr, ptr, ptr, i64, ptr,
    ]
    return fn


def _top_pairs(H: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m largest eigenpairs of Hermitian H, values ascending.

    :raises np.linalg.LinAlgError: if the kernel fails or finds other than m
    """
    N = H.shape[0]
    zheevr = _zheevr()
    if zheevr is None:
        w, V = np.linalg.eigh(H)
        return w[N - m :], V[:, N - m :]
    a = np.array(H, dtype=np.complex128, order="F")  # zheevr overwrites its input
    w = np.empty(N)
    Z = np.empty((N, m), dtype=np.complex128, order="F")
    found = np.zeros(1, dtype=np.int64)
    isuppz = np.empty(2 * m, dtype=np.int64)
    info = zheevr(
        LAPACK_COL_MAJOR, b"V", b"I", b"L", N, a.ctypes.data, N,
        0.0, 0.0, N - m + 1, N, 0.0,
        found.ctypes.data, w.ctypes.data, Z.ctypes.data, N, isuppz.ctypes.data,
    )
    if info != 0 or found[0] != m:
        raise np.linalg.LinAlgError(
            f"zheevr failed (info {info}, {found[0]} of {m} eigenpairs)"
        )
    return w[:m], Z


def eigh(M, top: int | None = None) -> EigenDecomposition:
    """Hermitian eigendecomposition with the module's determinism contract.

    With ``top=m`` only the m largest eigenpairs are computed and returned.

    :raises PreconditionError: if M is not Hermitian to 1e-10 relative, or
        ``top`` is outside 1..N
    :raises ConvergenceError: if the LAPACK kernel fails to converge on M and
        on its exactly permuted copy
    """
    H = _require_hermitian(as_matrix(M, "M"))
    N = H.shape[0]
    if top is None:
        solve = np.linalg.eigh
    elif 1 <= top <= N:
        solve = functools.partial(_top_pairs, m=top)
    else:
        raise PreconditionError(f"top must be in 1..{N}, got {top}")
    try:
        w, V = solve(H)
    except np.linalg.LinAlgError:
        # LAPACK fails to converge on rare inputs. Retry once on
        # P H P^T, P the reversal: an exact similarity (no rounding) that
        # the kernel sees as a different matrix; P^T V' are H's vectors.
        try:
            w, V = solve(H[::-1, ::-1])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigh did not converge: {exc}") from exc
        V = V[::-1]
    w = w[::-1].copy()
    V = _fix_phases(V[:, ::-1])
    residual = float(np.linalg.norm(H @ V - V * w, axis=0).max()) if w.size else 0.0
    return EigenDecomposition(values=w, vectors=V, residual=residual)


def eigvalsh(M) -> np.ndarray:
    """Descending eigenvalues only (cheaper than :func:`eigh`).

    ``M`` is one Hermitian matrix or a stack (..., N, N); every matrix of a
    stack is checked on its own. A float64 ``M`` is solved as real
    symmetric, anything else as complex128.
    """
    H = _require_hermitian(as_stack(M, "M"))
    try:
        w = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc
    return w[..., ::-1].copy()


def eigvals(X) -> np.ndarray:
    """Eigenvalues of a general square matrix, solved in complex128 (``zgeev``)."""
    A = as_matrix(X)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvals did not converge: {exc}") from exc


def svd(X) -> np.ndarray:
    """Singular values, nonincreasing, of a (not necessarily square) complex
    matrix or of each matrix in a stack (..., M, N)."""
    A = np.asarray(X, dtype=np.complex128)
    if A.ndim < 2:
        raise PreconditionError(f"expected a 2-D array or a stack, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise PreconditionError("matrix contains non-finite entries")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"svd did not converge: {exc}") from exc
