"""Kronecker lifts: block structure, algebraic identities, SVD equivalence."""
import numpy as np
import pytest

from commspectra import (
    PreconditionError,
    apply_double_commutator,
    build_lifted,
    commutator_lift,
    double_commutator_lift,
    herm_skew_split,
    svd_lift_equivalence,
    trial_rng,
    unvec,
    vec,
    verify_vec_identity,
)
from commspectra.matrices import kron


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_commutator_lift_block_form_for_e12():
    X = np.array([[0, 1], [0, 0]], dtype=complex)
    L = commutator_lift(X)
    I = np.eye(2)
    Z = np.zeros((2, 2))
    expected = np.block([[X, Z], [-I, X]])
    np.testing.assert_allclose(L, expected, atol=0)


def test_lift_reproduces_commutator_action():
    for t in range(15):
        rng = trial_rng(20, t)
        n = 2 + t % 4
        X, Y = _random_complex(rng, n), _random_complex(rng, n)
        resid = verify_vec_identity(X, Y)
        assert resid < 1e-12 * (1 + np.linalg.norm(X) * np.linalg.norm(Y))


def test_double_lift_matches_operator_action():
    for t in range(10):
        rng = trial_rng(21, t)
        n = 2 + t % 3
        X, Y = _random_complex(rng, n), _random_complex(rng, n)
        lhs = unvec(double_commutator_lift(X) @ vec(Y), n)
        rhs = apply_double_commutator(X, Y)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(rhs))


def test_build_lifted_identities():
    rng = trial_rng(22, 0)
    for n in (2, 3, 4):
        X = _random_complex(rng, n)
        ops = build_lifted(X)
        L, T = ops.commutator, double_commutator_lift(X)
        # T = L* L = gram + cross; cross = half + half*
        np.testing.assert_allclose(L.conj().T @ L, ops.gram + ops.cross, atol=1e-10)
        np.testing.assert_allclose(
            ops.cross, ops.cross_half + ops.cross_half.conj().T, atol=0
        )
        np.testing.assert_allclose(T, ops.gram + ops.cross, atol=1e-10)
        # gram - cross is the anticommutator Gram matrix, PSD
        A = ops.anticommutator
        np.testing.assert_allclose(ops.gram - ops.cross, A.conj().T @ A, atol=1e-10)
        w = np.linalg.eigvalsh(ops.gram - ops.cross)
        assert w.min() > -1e-10


def test_cross_part_from_canonical_split():
    # cross = 2 (B^T kron B - A^T kron A) for the split X = A + B
    for t in range(10):
        rng = trial_rng(23, t)
        n = 2 + t % 3
        X = _random_complex(rng, n)
        A, B = herm_skew_split(X)
        ops = build_lifted(X)
        expected = 2.0 * (kron(B.T, B) - kron(A.T, A))
        assert np.linalg.norm(ops.cross - expected) < 1e-12 * (
            1 + np.linalg.norm(expected)
        )


def test_lift_eigenpairs_are_operator_eigenpairs():
    rng = trial_rng(24, 0)
    n = 3
    X = _random_complex(rng, n)
    from commspectra.eigensolver import eigh

    dec = eigh(double_commutator_lift(X))
    for j in (0, 2, n * n - 1):
        Y = unvec(dec.vectors[:, j], n)
        resid = np.linalg.norm(apply_double_commutator(X, Y) - dec.values[j] * Y)
        assert resid < 1e-8 * (1 + np.linalg.norm(X) ** 2)


def test_svd_lift_equivalence_spectra_agree():
    for t in range(10):
        rng = trial_rng(25, t)
        n = 2 + t % 4
        direct, via = svd_lift_equivalence(_random_complex(rng, n))
        assert np.abs(direct - via).max() < 1e-9


def test_order_cap_guards_lifted_construction():
    with pytest.raises(PreconditionError):
        build_lifted(np.eye(17))
    ops = build_lifted(np.eye(17), max_order=17)
    assert ops.order == 17


@pytest.mark.parametrize("real", [False, True])
def test_assembled_lift_matches_product_oracle(real):
    # the O(n^4) assembly of G_X + C_X against the O(n^6) product L* L
    for n in range(2, 9):
        rng = trial_rng(26, n, int(real))
        X = rng.standard_normal((n, n)) if real else _random_complex(rng, n)
        L = commutator_lift(X)
        oracle = L.conj().T @ L
        T = double_commutator_lift(X)
        assert T.shape == (n * n, n * n)
        assert np.abs(T - oracle).max() <= 1e-13 * (1 + np.linalg.norm(X) ** 2)
        # a stack is lifted matrix by matrix, with the same bits
        stack = double_commutator_lift(np.stack([2.0 * X, X]))
        assert stack.shape == (2, n * n, n * n)
        assert np.array_equal(stack[1], T)
        assert np.abs(stack[0] - 4.0 * oracle).max() <= 4e-13 * (1 + np.linalg.norm(X) ** 2)


@pytest.mark.parametrize("n", [2, 5, 10, 16])
def test_real_lift_is_float64_and_matches_complex_lift(n, real_matrices):
    for name, X in real_matrices(n).items():
        T = double_commutator_lift(X)
        Tc = double_commutator_lift(X.astype(complex))
        assert T.dtype == np.float64 and Tc.dtype == np.complex128, name
        assert np.linalg.norm(T - Tc) <= 1e-15 * np.linalg.norm(Tc), name
        assert np.array_equal(T, T.T), name
    stack = double_commutator_lift(np.stack(list(real_matrices(n).values())))
    assert stack.dtype == np.float64
