"""Kronecker lifts of the commutator maps on order-n matrices.

With the column-major vec convention, the map Y -> [X, Y] becomes the
order-n^2 matrix

    L_X = I kron X - X^T kron I,

so the double-commutator operator T_X: Y -> [X*, [X, Y]] lifts to the
positive semidefinite Hermitian matrix L_X* L_X. That product splits as
G_X + C_X where

    G_X = I kron X*X + conj(X) X^T kron I      (the Gram part)
    C_X = -X^T kron X* - conj(X) kron X        (the cross part)

and the cross part is H + H* for the half H = -X^T kron X*. The analogous
lift of Y -> XY + YX is A_X = I kron X + X^T kron I, which satisfies
G_X - C_X = A_X* A_X >= 0.

:func:`double_commutator_lift` assembles G_X + C_X entry by entry, O(n^4)
work for n^4 entries, for one matrix or a whole stack; the O(n^6) product
L_X* L_X stays only as a test oracle. It keeps float64 for a float64 input
(the lift of a real X is real symmetric) and is complex128 otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .matrices import (
    DEFAULT_ORDER_CAP,
    as_matrix,
    as_stack,
    check_order_cap,
    commutator,
    kron,
    same_order,
    vec,
)


@dataclass(frozen=True)
class LiftedOperators:
    """The five order-n^2 lifts attached to one matrix X."""

    order: int
    commutator: np.ndarray
    gram: np.ndarray
    cross: np.ndarray
    cross_half: np.ndarray
    anticommutator: np.ndarray


def commutator_lift(X) -> np.ndarray:
    """Matrix of Y -> [X, Y] on column-major vec coordinates."""
    X = as_matrix(X)
    I = np.eye(X.shape[0], dtype=np.complex128)
    return kron(I, X) - kron(X.T, I)


def double_commutator_lift(X) -> np.ndarray:
    """Hermitian PSD matrix of T_X, namely L_X* L_X = G_X + C_X.

    ``X`` is one order-n matrix or a stack (..., n, n); the result is
    (..., n^2, n^2), float64 for a float64 ``X`` and complex128 otherwise.
    Row (i, k) and column (j, l), in vec order i n + k and j n + l, hold

        d_ij (X*X)_kl + (conj(X) X^T)_ij d_kl - (X^T)_ij (X*)_kl - conj(X)_ij X_kl.
    """
    X = as_stack(X)
    n = X.shape[-1]
    Xt = np.swapaxes(X, -1, -2)
    Xc = X.conj()
    Xs = Xt.conj()
    # C order, so the final reshape is a view (a plain product of the
    # transposed operands would not be C-contiguous)
    T = np.empty(X.shape[:-2] + (n, n, n, n), dtype=X.dtype)
    np.multiply(Xt[..., :, None, :, None], -Xs[..., None, :, None, :], out=T)
    T -= Xc[..., :, None, :, None] * X[..., None, :, None, :]
    d = np.arange(n)
    T[..., d, :, d, :] += Xs @ X
    T[..., :, d, :, d] += Xc @ X.swapaxes(-1, -2)
    return T.reshape(X.shape[:-2] + (n * n, n * n))


def build_lifted(X, max_order: int = DEFAULT_ORDER_CAP) -> LiftedOperators:
    """Assemble all five lifts; the lifted matrices have n^4 entries."""
    X = as_matrix(X)
    n = X.shape[0]
    check_order_cap(n, max_order)
    I = np.eye(n, dtype=np.complex128)
    Xs = X.conj().T
    Xc = X.conj()
    half = -kron(X.T, Xs)
    return LiftedOperators(
        order=n,
        commutator=kron(I, X) - kron(X.T, I),
        gram=kron(I, Xs @ X) + kron(Xc @ X.T, I),
        cross=half + half.conj().T,
        cross_half=half,
        anticommutator=kron(I, X) + kron(X.T, I),
    )


def verify_vec_identity(X, Y) -> float:
    """Residual ||L_X vec(Y) - vec([X, Y])||.

    Stays below 1e-12 * (1 + ||X|| ||Y||) in double precision.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    same_order(X, Y)
    return float(np.linalg.norm(commutator_lift(X) @ vec(Y) - vec(commutator(X, Y))))


def svd_lift_equivalence(X) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of L_X computed two ways.

    Directly, and through the SVD X = U diag(s) Vh: with Q = Vh U, the lift
    is unitarily equivalent to I kron diag(s) - (Q^T kron Q*)(diag(s) kron I).
    Both spectra are returned descending; they agree to 1e-9.
    """
    X = as_matrix(X)
    n = X.shape[0]
    direct = eigensolver.svd(commutator_lift(X)).values
    U, s, Vh = eigensolver.svd_full(X)
    Q = Vh @ U
    S = np.diag(s).astype(np.complex128)
    I = np.eye(n, dtype=np.complex128)
    lifted = kron(I, S) - kron(Q.T, Q.conj().T) @ kron(S, I)
    via_svd = eigensolver.svd(lifted).values
    return direct, via_svd
