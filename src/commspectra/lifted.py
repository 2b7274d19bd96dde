"""Kronecker lifts of the commutator maps on order-n matrices.

With the column-major vec convention, the map Y -> [X, Y] becomes the
order-n^2 matrix

    L_X = I kron X - X^T kron I,

so the double-commutator operator T_X: Y -> [X*, [X, Y]] lifts to the
positive semidefinite Hermitian matrix L_X* L_X. The commutator energy
sum_j ||[X, Y_j]||^2 of a family {Y_j} is the same form in vec(X), with
matrix sum_j L_{Y_j}* L_{Y_j}; T_X's lift is that of the family {X}. The
form splits as G + C where

    G = sum_j (I kron Y_j*Y_j + conj(Y_j) Y_j^T kron I)    (the Gram part)
    C = -(S + S*)  for  S = sum_j Y_j^T kron Y_j*          (the cross part)

For one X the lift of Y -> XY + YX, A_X = I kron X + X^T kron I, satisfies
G - C = A_X* A_X >= 0. That identity, the unitary equivalence of L_X to
a lift built from the SVD of X, and L_X itself are test oracles
(``tests/test_lifted.py``, ``tests/conftest.py``).

:func:`family_lift` is the library's one assembly of these forms, entry by
entry, with S from one (n^2 x m)(m x n^2) product: the spectra's lifts are
its families of one (:func:`double_commutator_lift`), the ascent's step (b)
its families of top-2k eigenvectors. The O(n^6) L_X* L_X is only a test
oracle. A float64 input gives float64, anything else complex128. Real lifts
are exactly symmetric; the cross part is summed exactly Hermitian, so a
complex lift misses its adjoint only where i = j or k = l, where the Gram
part adds BLAS products, Hermitian to a few ulps.

Every lift the library builds has n^4 entries. :func:`check_lift_order` refuses
orders above 64, whose lift would hold more than :data:`MAX_LIFT_ENTRIES`
entries (an order-64 complex lift takes 256 MiB), before anything that big exists.
"""
from __future__ import annotations

import numpy as np

from .errors import OrderMismatchError, PreconditionError
from .matrices import as_stack

MAX_LIFT_ENTRIES = 2**24


def check_lift_order(n: int) -> None:
    """:raises PreconditionError: if an order-n lift has more than MAX_LIFT_ENTRIES entries"""
    if n**4 > MAX_LIFT_ENTRIES:
        raise PreconditionError(f"order {n} is above 64: its lift would have {n**4} > 2**24 entries")


def family_lift(Y) -> np.ndarray:
    """Hermitian PSD matrix sum_j L_{Y_j}* L_{Y_j} of each family {Y_j}.

    ``Y`` is a stack of families (..., m, n, n); the result is
    (..., n^2, n^2), float64 for a float64 ``Y`` and complex128 otherwise.
    Row (i, k) and column (j, l), in vec order i n + k and j n + l, hold

        sum_j [d_ij (Y_j*Y_j)_kl + (conj(Y_j) Y_j^T)_ij d_kl] - (S + S*)_(i k),(j l)

    with S = sum_j Y_j^T kron Y_j*, one (n^2 x m)(m x n^2) product.
    """
    Y = as_stack(Y)
    if Y.ndim < 3:
        raise OrderMismatchError(f"expected a stack of families (..., m, n, n), got shape {Y.shape}")
    *lead, m, n, _ = Y.shape
    check_lift_order(n)
    # the output before the product: allocated after it, the buffer takes
    # fresh pages on every call (about 40% more minor faults at order 16)
    T = np.empty((*lead, n, n, n, n), dtype=Y.dtype)
    left = Y.swapaxes(-3, -1).reshape(*lead, n * n, m)  # Y_j^T
    right = -Y.conj().swapaxes(-1, -2).reshape(*lead, m, n * n)  # -Y_j*
    H = (left @ right).reshape(*lead, n, n, n, n).swapaxes(-3, -2)  # -S, row (i, k), column (j, l)
    # the cross part H + H*: entry a + conj(b) against its mirror b + conj(a), exactly Hermitian
    np.conjugate(H.swapaxes(-4, -2).swapaxes(-3, -1), out=T)
    T += H
    rows = Y.reshape(*lead, m * n, n)  # the Y_j stacked vertically
    cols = Y.swapaxes(-3, -2).reshape(*lead, n, m * n)  # and side by side
    d = np.arange(n)
    T[..., d, :, d, :] += rows.conj().swapaxes(-1, -2) @ rows
    T[..., :, d, :, d] += cols.conj() @ cols.swapaxes(-1, -2)
    return T.reshape(*lead, n * n, n * n)


def double_commutator_lift(X) -> np.ndarray:
    """Hermitian PSD matrix L_X* L_X of T_X: the :func:`family_lift` of the family {X}.

    ``X`` is one order-n matrix or a stack (..., n, n); the result is
    (..., n^2, n^2), float64 for a float64 ``X`` and complex128 otherwise.
    """
    X = np.asarray(X)
    return family_lift(X[..., None, :, :] if X.ndim >= 2 else X)
