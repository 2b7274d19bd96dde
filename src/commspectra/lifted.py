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
entry, with S from one (n^2 x m)(m x n^2) product. Its callers are the
spectra's lifts, families of one (:func:`double_commutator_lift`), and
:meth:`FamilyForm.lift`, every step of an ascent below its size rule; a
Ritz-stepping restart builds only its certificate's lift. The O(n^6)
L_X* L_X is only a test oracle. A float64 input gives float64, anything
else complex128. Real lifts are exactly symmetric; the cross part is summed
exactly Hermitian, so a complex lift misses its adjoint only where i = j or
k = l, where the Gram part adds BLAS products, Hermitian to a few ulps.

:class:`FamilyForm` is what the ascent hands ``eigensolver.eigh`` on every
half-step. With a start block, ``eigh`` applies it matrix-free (L V and
L* W as commutators of order-n matrices) in a Rayleigh-Ritz step; with
none, it solves the form's :meth:`FamilyForm.lift`.

Every lift the library builds has n^4 entries. :func:`check_lift_order` refuses
orders above 64, whose lift would hold more than :data:`MAX_LIFT_ENTRIES`
entries (an order-64 complex lift takes 256 MiB), before anything that big exists.
"""
from __future__ import annotations

import functools

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


class FamilyForm:
    """The form F = sum_j L_{Y_j}* L_{Y_j} of a family {Y_j} (m, n, n), applied
    as commutators: the matrix-free twin of :func:`family_lift`.

    L is the stacked commutator map vec Z -> (vec [Y_j, Z])_j, so F = L* L.
    :meth:`commutators` applies L and :meth:`adjoint_sum` applies L*, each
    as two products of an (m n) x n or n x (m n) stack of the family with the
    block, for O(m n^3) flops per column against the lift's O(m n^4).
    ``shape`` is F's; :func:`eigensolver.eigh` reads the form only through
    it and these products, or :meth:`lift`, which builds F itself. The
    family is checked (:func:`matrices.as_stack`) once, where it is first
    read: by :func:`family_lift`, or by the first product.
    """

    def __init__(self, Y):
        self.family = np.asarray(Y)
        if self.family.ndim != 3:
            raise OrderMismatchError(f"expected a family (m, n, n), got shape {self.family.shape}")

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        # Y_j[b, e] at row (j, b), column e, the same for the Y_j^T, and their
        # adjoints; built on the first product, so a form only lifted skips them
        Y = as_stack(self.family, "family")
        m, n, _ = Y.shape
        rows, cols = Y.reshape(m * n, n), Y.swapaxes(-1, -2).reshape(m * n, n)
        return rows, cols, rows.conj().T, cols.conj().T

    @property
    def shape(self) -> tuple[int, int]:
        N = self.family.shape[-1] ** 2
        return N, N

    def commutators(self, V) -> np.ndarray:
        """L V for V (n^2, p): the (m n^2, p) block whose rows j n^2 to
        (j + 1) n^2 are vec [Y_j, Z_c] for the unvec'd columns Z_c of V."""
        m, n, _ = self.family.shape
        # in C order V reads as R[a, e, c] = Z_c[e, a], and the result as
        # [j, a, b, c] = [Y_j, Z_c][b, a]
        R = V.reshape(n, n, -1)
        p = R.shape[-1]
        rows, cols = self._stacks[:2]
        YZ = (rows @ R.swapaxes(0, 1).reshape(n, n * p)).reshape(m, n, n, p).swapaxes(1, 2)
        ZY = (cols @ R.reshape(n, n * p)).reshape(m, n, n, p)
        return (YZ - ZY).reshape(m * n * n, p)

    def adjoint_sum(self, W) -> np.ndarray:
        """L* W = sum_j vec [Y_j*, W_j] for W (m n^2, p), W_j its j-th row block:
        (n^2, p). ``adjoint_sum(commutators(V))`` is F V."""
        m, n, _ = self.family.shape
        R = W.reshape(m, n, n, -1)
        p = R.shape[-1]
        rows_h, cols_h = self._stacks[2:]
        YZ = (rows_h @ R.swapaxes(1, 2).reshape(m * n, n * p)).reshape(n, n, p).swapaxes(0, 1)
        ZY = (cols_h @ R.reshape(m * n, n * p)).reshape(n, n, p)
        return (YZ - ZY).reshape(n * n, p)

    def lift(self) -> np.ndarray:
        """F as a matrix: :func:`family_lift` of the family."""
        return family_lift(self.family)
