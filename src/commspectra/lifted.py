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
G_X - C_X = A_X* A_X >= 0. That identity, and the unitary equivalence of
L_X to a lift built from the SVD of X, are test oracles in
``tests/test_lifted.py``; the library builds only :func:`double_commutator_lift`.

:func:`double_commutator_lift` assembles G_X + C_X entry by entry, O(n^4)
work for n^4 entries, for one matrix or a whole stack; the O(n^6) product
L_X* L_X stays only as a test oracle. It keeps float64 for a float64 input
and is complex128 otherwise. A real X's lift is exactly symmetric; a complex
lift is exactly Hermitian except where i = j or k = l, where the Gram part adds
the BLAS products X*X and conj(X) X^T, Hermitian only to a few ulps.

Every lift the library builds has n^4 entries. :func:`check_lift_order` refuses
orders above 64, whose lift would hold more than :data:`MAX_LIFT_ENTRIES`
entries (an order-64 complex lift takes 256 MiB), before anything that big exists.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .matrices import as_matrix, as_stack

MAX_LIFT_ENTRIES = 2**24


def check_lift_order(n: int) -> None:
    """:raises PreconditionError: if an order-n lift has more than MAX_LIFT_ENTRIES entries"""
    if n**4 > MAX_LIFT_ENTRIES:
        raise PreconditionError(f"order {n} is above 64: its lift would have {n**4} > 2**24 entries")


def commutator_lift(X) -> np.ndarray:
    """Matrix of Y -> [X, Y] on column-major vec coordinates."""
    X = as_matrix(X)
    check_lift_order(X.shape[0])
    I = np.eye(X.shape[0], dtype=np.complex128)
    return np.kron(I, X) - np.kron(X.T, I)


def double_commutator_lift(X) -> np.ndarray:
    """Hermitian PSD matrix of T_X, namely L_X* L_X = G_X + C_X.

    ``X`` is one order-n matrix or a stack (..., n, n); the result is
    (..., n^2, n^2), float64 for a float64 ``X`` and complex128 otherwise.
    Row (i, k) and column (j, l), in vec order i n + k and j n + l, hold

        d_ij (X*X)_kl + (conj(X) X^T)_ij d_kl - (X^T)_ij (X*)_kl - conj(X)_ij X_kl.
    """
    X = as_stack(X)
    n = X.shape[-1]
    check_lift_order(n)
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
