"""Core matrix operations: validation, the commutator, the Frobenius norm
and normalization, the Hermitian/skew split, and the column-major vec/unvec
maps.

Matrices are square complex128 numpy arrays, with one exception: the stack
validator :func:`as_stack` keeps a float64 input float64, so the
double-commutator lift and ``eigvalsh`` keep float64 for real input and
LAPACK solves it in real arithmetic. ``vec`` stacks columns (Fortran order),
the convention under which vec(A Y B) = (B^T kron A) vec(Y).

:func:`frobenius_norm` is the library's one ||X||_F and :func:`normalized`
its one X / ||X||; both take a matrix or a stack.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, OrderMismatchError, PreconditionError


def as_stack(X, name: str = "X") -> np.ndarray:
    """Validate and return a stack (..., n, n) of square matrices.

    A float64 input stays float64; anything else becomes complex128.

    :raises OrderMismatchError: if the last two axes are not square
    :raises PreconditionError: if entries are not finite
    """
    M = np.asarray(X)
    if M.dtype != np.float64:
        M = M.astype(np.complex128, copy=False)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise OrderMismatchError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise PreconditionError(f"{name} contains non-finite entries")
    return M


def as_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and return a square complex128 matrix.

    :param X: array-like, square
    :param name: label used in error messages
    :raises OrderMismatchError: if not square 2-D
    :raises PreconditionError: if entries are not finite
    """
    M = np.asarray(X, dtype=np.complex128)
    if M.ndim != 2:
        raise OrderMismatchError(f"{name} must be square, got shape {M.shape}")
    return as_stack(M, name)


def same_order(X: np.ndarray, Y: np.ndarray) -> int:
    if X.shape != Y.shape:
        raise OrderMismatchError(f"order mismatch: {X.shape} vs {Y.shape}")
    return X.shape[0]


def _power_of_two_scaled(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X 2^-e, e) per matrix, 2^e just above its largest |x_ij|: the scaled
    squares neither over- nor underflow, and ``ldexp`` is exact (signed zeros
    included), so results that did neither before keep their bits."""
    e = np.frexp(np.abs(X).max(axis=(-2, -1), initial=0.0))[1]
    shift = -e[..., None, None]
    if not np.iscomplexobj(X):
        return np.ldexp(X, shift), e
    Xs = np.empty_like(X)
    np.ldexp(X.real, shift, out=Xs.real)
    np.ldexp(X.imag, shift, out=Xs.imag)
    return Xs, e


def frobenius_norm(X):
    """||X||_F of a matrix (a float) or of each matrix of a stack (..., n, n), at any scale."""
    Xs, e = _power_of_two_scaled(np.asarray(X))
    nrm = np.ldexp(np.linalg.norm(Xs, axis=(-2, -1)), e)
    return float(nrm) if nrm.ndim == 0 else nrm


def normalized(X) -> np.ndarray:
    """X / ||X||_F (complex128) of a matrix or of each matrix of a stack, at any scale.

    :raises DegenerateInputError: if a matrix is zero
    """
    X = as_stack(np.asarray(X, dtype=np.complex128))
    Xs, _ = _power_of_two_scaled(X)
    nrm = np.linalg.norm(Xs, axis=(-2, -1))
    if not nrm.all():
        raise DegenerateInputError("cannot normalize the zero matrix")
    return Xs / nrm[..., None, None]


def commutator(X, Y) -> np.ndarray:
    """[X, Y] = XY - YX."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    same_order(X, Y)
    return X @ Y - Y @ X


def herm_skew_split(X) -> tuple[np.ndarray, np.ndarray]:
    """Split X = A + B into Hermitian A and skew-Hermitian B.

    The split is orthogonal: ||X||^2 = ||A||^2 + ||B||^2. X may also be a
    stack (..., n, n), split matrix by matrix; a float64 X gives float64
    parts (symmetric and antisymmetric).
    """
    X = as_stack(X)
    Xs = np.swapaxes(X, -1, -2).conj()
    return (X + Xs) / 2, (X - Xs) / 2


def vec(X) -> np.ndarray:
    """Column-major vectorization: columns of X stacked top to bottom."""
    return np.asarray(X, dtype=np.complex128).ravel(order="F")


def unvec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an order-n matrix."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size != n * n:
        raise OrderMismatchError(f"vector length {v.size} is not {n}^2")
    return v.reshape((n, n), order="F")
