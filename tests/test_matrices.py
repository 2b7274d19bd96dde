"""Core matrix operations: commutators, Frobenius geometry, vec/unvec."""
import math

import numpy as np
import pytest

from commspectra import (
    DegenerateInputError,
    OrderMismatchError,
    PreconditionError,
    commutator,
    frobenius_norm,
    herm_skew_split,
    normalized,
    trial_rng,
    unvec,
    vec,
)
from commspectra.lifted import check_lift_order
from commspectra.matrices import as_matrix
from conftest import apply_double_commutator, frobenius_inner, same_order

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_commutator_of_unit_blocks():
    assert np.array_equal(commutator(E12, E21), E11 - E22)
    assert np.array_equal(commutator(E11, E11), np.zeros((2, 2)))
    # stacks broadcast as matmul does: every pair of two families at once
    rng = trial_rng(0, 2)
    A = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    B = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    pairs = commutator(A[:, None], B[None])
    assert pairs.shape == (3, 2, 4, 4)
    for a in range(3):
        for b in range(2):
            assert pairs[a, b].tobytes() == commutator(A[a], B[b]).tobytes()
    # a real input gives complex128
    assert commutator(A[0].real, B[0].real).dtype == np.complex128
    with pytest.raises(OrderMismatchError):
        commutator(np.eye(2), np.eye(3))


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(OrderMismatchError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(OrderMismatchError):
        as_matrix(np.zeros(4))
    with pytest.raises(PreconditionError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        as_matrix(np.array([[0, 1j * np.inf], [0, 0]]))


def test_same_order_and_cap():
    assert same_order(E11, E22) == 2
    with pytest.raises(OrderMismatchError):
        same_order(E11, np.eye(3))
    # the one order limit: an n^2 x n^2 lift of at most 2^24 entries
    check_lift_order(64)
    with pytest.raises(PreconditionError, match="order 65"):
        check_lift_order(65)


def test_frobenius_inner_sesquilinearity():
    rng = trial_rng(0, 1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # <A, B> = Tr(A B*), linear in A, conjugate-linear in B
    assert frobenius_inner(A, B) == pytest.approx(np.trace(A @ B.conj().T))
    assert frobenius_inner(2j * A, B) == pytest.approx(2j * frobenius_inner(A, B))
    assert frobenius_inner(A, 2j * B) == pytest.approx(-2j * frobenius_inner(A, B))
    assert frobenius_inner(A, A).real == pytest.approx(frobenius_norm(A) ** 2)


def test_normalized_unit_norm_and_zero_rejection():
    rng = trial_rng(0, 2)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert frobenius_norm(normalized(X)) == pytest.approx(1.0)
    with pytest.raises(DegenerateInputError):
        normalized(np.zeros((3, 3)))
    # a stack is normalized matrix by matrix, with the bits of each alone
    stack = np.stack([X, 3.0 * X.T, X.real])
    np.testing.assert_array_equal(frobenius_norm(stack), [frobenius_norm(M) for M in stack])
    for got, M in zip(normalized(stack), stack):
        assert got.tobytes() == normalized(M).tobytes()
    with pytest.raises(DegenerateInputError):
        normalized(np.stack([X, np.zeros((4, 4))]))


def test_norm_keeps_the_bits_of_np_linalg_norm_in_range():
    rng = trial_rng(0, 3)
    for n in (1, 2, 5, 16):
        for scale in (1e-100, 1e-3, 1.0, 1e100):
            X = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            X.imag[rng.random((n, n)) < 0.3] = -0.0  # signed zeros survive the prescale
            for M in (X, X.real):
                nrm = np.linalg.norm(M, axis=(-2, -1))
                assert frobenius_norm(M) == nrm
                assert normalized(M).tobytes() == (M.astype(complex) / nrm).tobytes()


@pytest.mark.parametrize("s", [1e300, 1e200, 1e-200, 1e-300, 1e-320])
def test_norm_and_normalization_at_any_finite_scale(s):
    # np.linalg.norm overflows or underflows here; the prescaled norm does not
    assert frobenius_norm(s * E12) == s
    assert frobenius_norm(np.stack([s * E12, 2.0 * E12])).tolist() == [s, 2.0]
    X = s * (E12 + 1j * E21)
    assert frobenius_norm(X) == pytest.approx(math.sqrt(2.0) * s, rel=1e-15)
    np.testing.assert_allclose(normalized(X), (E12 + 1j * E21) / math.sqrt(2.0), rtol=1e-15)


def test_double_commutator_is_psd_quadratic_form():
    # <T_X Y, Y> = ||[X, Y]||^2 for every pair
    for t in range(20):
        rng = trial_rng(1, t)
        n = 2 + t % 4
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = frobenius_inner(apply_double_commutator(X, Y), Y).real
        rhs = np.linalg.norm(commutator(X, Y)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_double_commutator_is_self_adjoint():
    for t in range(10):
        rng = trial_rng(2, t)
        n = 2 + t % 3
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = frobenius_inner(apply_double_commutator(X, Y), Z)
        b = frobenius_inner(Y, apply_double_commutator(X, Z))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_herm_skew_split_is_orthogonal():
    rng = trial_rng(3, 0)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A, B = herm_skew_split(X)
    assert np.allclose(A, A.conj().T)
    assert np.allclose(B, -B.conj().T)
    assert np.allclose(A + B, X)
    assert frobenius_norm(X) ** 2 == pytest.approx(
        frobenius_norm(A) ** 2 + frobenius_norm(B) ** 2
    )


def test_vec_is_column_major_and_invertible():
    M = np.array([[1, 3], [2, 4]], dtype=complex)
    assert np.array_equal(vec(M), np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(unvec(vec(M), 2), M)
    with pytest.raises(OrderMismatchError):
        unvec(np.zeros(5), 2)


def test_vec_kron_identity():
    # vec(A Y B) = (B^T kron A) vec(Y), the convention everything relies on
    for t in range(10):
        rng = trial_rng(4, t)
        n = 2 + t % 3
        A, Y, B = (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(3)
        )
        lhs = vec(A @ Y @ B)
        rhs = np.kron(B.T, A) @ vec(Y)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * (1 + np.linalg.norm(lhs))
