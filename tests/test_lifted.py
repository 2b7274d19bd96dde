"""Kronecker lifts: block structure, algebraic identities, SVD equivalence."""
import numpy as np
import pytest

from commspectra import (
    commutator,
    commutator_lift,
    double_commutator_lift,
    herm_skew_split,
    trial_rng,
    unvec,
    vec,
)
from conftest import apply_double_commutator


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _gram_cross(X):
    """The Gram and cross parts G_X, C_X of L_X* L_X, from Kronecker products."""
    I = np.eye(X.shape[0])
    Xs = X.conj().T
    half = -np.kron(X.T, Xs)
    return np.kron(I, Xs @ X) + np.kron(X.conj() @ X.T, I), half + half.conj().T


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
        resid = np.linalg.norm(commutator_lift(X) @ vec(Y) - vec(commutator(X, Y)))
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
        L, T = commutator_lift(X), double_commutator_lift(X)
        gram, cross = _gram_cross(X)
        # T = L* L = gram + cross
        np.testing.assert_allclose(L.conj().T @ L, gram + cross, atol=1e-10)
        np.testing.assert_allclose(T, gram + cross, atol=1e-10)
        # gram - cross is the Gram matrix of the anticommutator lift, PSD
        I = np.eye(n)
        A = np.kron(I, X) + np.kron(X.T, I)
        np.testing.assert_allclose(gram - cross, A.conj().T @ A, atol=1e-10)
        w = np.linalg.eigvalsh(gram - cross)
        assert w.min() > -1e-10


def test_cross_part_from_canonical_split():
    # cross = 2 (B^T kron B - A^T kron A) for the split X = A + B
    for t in range(10):
        rng = trial_rng(23, t)
        n = 2 + t % 3
        X = _random_complex(rng, n)
        A, B = herm_skew_split(X)
        _, cross = _gram_cross(X)
        expected = 2.0 * (np.kron(B.T, B) - np.kron(A.T, A))
        assert np.linalg.norm(cross - expected) < 1e-12 * (
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
    # with X = U diag(s) Vh and Q = Vh U, L_X is unitarily equivalent to
    # I kron diag(s) - (Q^T kron Q*)(diag(s) kron I)
    for t in range(10):
        rng = trial_rng(25, t)
        n = 2 + t % 4
        X = _random_complex(rng, n)
        U, s, Vh = np.linalg.svd(X)
        Q = Vh @ U
        S, I = np.diag(s), np.eye(n)
        via = np.kron(I, S) - np.kron(Q.T, Q.conj().T) @ np.kron(S, I)
        direct = np.linalg.svd(commutator_lift(X), compute_uv=False)
        assert np.abs(direct - np.linalg.svd(via, compute_uv=False)).max() < 1e-9


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


def test_complex_lift_is_hermitian_up_to_its_gram_products():
    # the cross part is assembled exactly Hermitian; the Gram part's order-n
    # products X*X and conj(X) X^T may miss their adjoints by a few ulps, and
    # they add only where i = j or k = l (row (i, k), column (j, l))
    eps = np.finfo(np.float64).eps
    for n in range(2, 17):
        i, k, j, l = np.ogrid[:n, :n, :n, :n]
        off = np.broadcast_to((i != j) & (k != l), (n, n, n, n))
        for t in range(3):
            T = double_commutator_lift(_random_complex(trial_rng(27, n, t), n))
            D = (T - T.conj().T).reshape(n, n, n, n)
            assert not D[off].any()
            assert np.abs(D).max() <= 8 * eps * np.abs(T).max()
