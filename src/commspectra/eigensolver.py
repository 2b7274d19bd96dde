"""Deterministic Hermitian eigendecomposition, general eigenvalues and
singular values.

Every eigenvalue and singular-value solve of the library goes through this
module (through numpy, and through ``ctypes`` for LAPACK ``zheevr``); the
only other LAPACK call is the QR of ``ensembles.haar_unitary``. Everything
downstream consumes this module's contracts:

* :func:`eigh` and :func:`eigvalsh` solve the Hermitian matrix that the
  lower triangle of their input defines, unchecked: ``zheevr`` and
  numpy's solvers (the fallback included) read that triangle alone, never
  the strict upper triangle or the imaginary part of the diagonal. Every
  matrix the library passes to either one is Hermitian up to the rounding
  of its construction;
* eigenvalues are returned in descending order;
* eigenvectors are orthonormal, with the column phases LAPACK returns;
* identical input bits give identical output bits (fixed LAPACK build and
  BLAS thread count);
* :func:`eigvalsh` keeps a float64 (real symmetric) input float64, so LAPACK
  solves it in real arithmetic; every other input, and every input of
  :func:`eigh`, is solved in complex128;
* :func:`eigh` has one driver, LAPACK ``zheevr``, for all N eigenpairs as
  for the ``m`` largest (``top=m``).
  Where numpy's LAPACK does not export ``zheevr`` it keeps a copy of the
  top ``m`` columns of numpy's full solve instead;
* :func:`eigvals` returns the eigenvalues of a general square matrix from
  LAPACK ``zgeev``, in LAPACK's order.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .matrices import as_matrix, as_stack

LAPACK_COL_MAJOR = 102


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors, with LAPACK's phases."""

    values: np.ndarray
    vectors: np.ndarray


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
    """The m largest eigenpairs of the Hermitian matrix that the lower
    triangle of H defines, values ascending.

    :raises np.linalg.LinAlgError: if the kernel fails or finds other than m
    """
    N = H.shape[0]
    zheevr = _zheevr()
    if zheevr is None:
        w, V = np.linalg.eigh(H)
        # a copy, so the result does not pin all N eigenvectors
        return w[N - m :], V[:, N - m :].copy()
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
    """Eigendecomposition of the Hermitian matrix that the lower triangle of
    M defines, with the module's determinism contract.

    With ``top=m`` only the m largest eigenpairs are computed and returned;
    ``top=None`` is ``top=N``.

    :raises PreconditionError: if M has non-finite entries, or ``top`` is
        outside 1..N
    :raises ConvergenceError: if the LAPACK kernel fails to converge on
        that matrix and on its exactly permuted copy
    """
    M = as_matrix(M, "M")
    N = M.shape[0]
    m = N if top is None else top
    if not 1 <= m <= N:
        raise PreconditionError(f"top must be in 1..{N}, got {top}")
    try:
        w, V = _top_pairs(M, m)
    except np.linalg.LinAlgError:
        # LAPACK fails to converge on rare inputs. Retry once on P H P^T,
        # H the matrix solved and P the reversal: an exact similarity (no
        # rounding) that the kernel sees as a different matrix; P^T V' are
        # H's vectors. It is passed as P M* P^T, whose lower triangle is
        # M's, reversed: P M P^T would hand the kernel M's upper triangle.
        try:
            w, V = _top_pairs(M.conj().T[::-1, ::-1], m)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigh did not converge: {exc}") from exc
        V = V[::-1]
    return EigenDecomposition(values=w[::-1].copy(), vectors=V[:, ::-1])


def eigvalsh(M) -> np.ndarray:
    """Descending eigenvalues of the Hermitian matrix that the lower triangle
    of M defines (cheaper than :func:`eigh`); the strict upper triangle is
    not read.

    ``M`` is one square matrix or a stack (..., N, N). A float64 ``M`` is
    solved as real symmetric, anything else as complex128.
    """
    try:
        w = np.linalg.eigvalsh(as_stack(M, "M"))
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
