"""Deterministic eigensolver contracts and classical spectral inequalities."""
import numpy as np
import pytest

from commspectra import (
    ConvergenceError,
    PreconditionError,
    double_commutator_lift,
    trial_rng,
    unit_gaussian,
)
from commspectra import eigensolver
from commspectra.eigensolver import eigh, eigvalsh, svd


def _random_hermitian(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2


def _lower_hermitian(M):
    """The Hermitian matrices that the lower triangles of a stack define."""
    L = np.tril(M, -1)
    H = L + np.swapaxes(L, -1, -2).conj()
    i = np.arange(M.shape[-1])
    H[..., i, i] = M[..., i, i].real
    return H


def _max_residual(M, dec):
    """max ||H v - w v|| over the eigenpairs of ``dec``, H the Hermitian
    matrix that the lower triangle of M defines."""
    H = _lower_hermitian(np.asarray(M, dtype=complex))
    return np.linalg.norm(H @ dec.vectors - dec.vectors * dec.values, axis=0).max()


def test_known_two_by_two_spectrum():
    M = np.array([[2, 1j], [-1j, 2]], dtype=complex)
    dec = eigh(M)
    np.testing.assert_allclose(dec.values, [3.0, 1.0], atol=1e-12)


def test_eigh_contract_descending_orthonormal_small_residual():
    for t in range(20):
        rng = trial_rng(10, t)
        n = 2 + t % 6
        H = _random_hermitian(rng, n)
        dec = eigh(H)
        assert np.all(np.diff(dec.values) <= 1e-12)
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.linalg.norm(gram - np.eye(n)) < 1e-12
        assert _max_residual(H, dec) < 1e-12 * max(1.0, np.linalg.norm(H))
        np.testing.assert_allclose(eigvalsh(H), dec.values, atol=1e-12)


def test_eigh_determinism_bit_for_bit():
    rng = trial_rng(12, 0)
    H = _random_hermitian(rng, 7)
    d1, d2 = eigh(H.copy()), eigh(H.copy())
    assert d1.values.tobytes() == d2.values.tobytes()
    assert d1.vectors.tobytes() == d2.vectors.tobytes()


def test_svd_values_are_descending_roots_of_gram_eigenvalues():
    rng = trial_rng(13, 0)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = svd(X)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    # singular values squared are the eigenvalues of X* X
    np.testing.assert_allclose(s**2, eigvalsh(X.conj().T @ X), atol=1e-10)


def test_svd_rejects_non_finite():
    with pytest.raises(PreconditionError):
        svd(np.array([[np.inf, 0], [0, 0]]))


def test_eigvals_of_a_general_matrix(monkeypatch):
    # upper triangular: the eigenvalues are the diagonal
    T = np.array([[1j, 5.0, 2.0], [0, -2.0, 3j], [0, 0, 0.5]])
    np.testing.assert_allclose(
        np.sort_complex(eigensolver.eigvals(T)), np.sort_complex(np.diag(T)), atol=1e-12
    )
    with pytest.raises(PreconditionError):
        eigensolver.eigvals(np.array([[np.nan, 0], [0, 0]]))

    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fails)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigensolver.eigvals(T)


def test_top_k_eigenvalue_sum_subadditivity():
    # sum of top-k eigenvalues is subadditive over Hermitian sums
    for t in range(20):
        rng = trial_rng(14, t)
        n = 3 + t % 4
        A, B = _random_hermitian(rng, n), _random_hermitian(rng, n)
        wa, wb, wab = eigvalsh(A), eigvalsh(B), eigvalsh(A + B)
        for k in range(1, n + 1):
            assert wab[:k].sum() <= wa[:k].sum() + wb[:k].sum() + 1e-9


def test_hermitian_part_eigenvalues_below_singular_values():
    # lambda_i of the Hermitian part never exceeds sigma_i of the matrix
    for t in range(50):
        rng = trial_rng(15, t)
        n = 2 + t % 5
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = eigvalsh((M + M.conj().T) / 2)
        sig = svd(M)
        assert np.all(lam <= sig + 1e-9)


def test_kronecker_product_eigenvalues_are_products():
    rng = trial_rng(16, 0)
    A, B = _random_hermitian(rng, 3), _random_hermitian(rng, 4)
    prod = np.sort(np.outer(eigvalsh(A), eigvalsh(B)).ravel())[::-1]
    direct = eigvalsh(np.kron(A, B))
    np.testing.assert_allclose(direct, prod, atol=1e-10)


def test_convergence_error_type_is_runtime():
    assert issubclass(ConvergenceError, RuntimeError)


def test_stacked_eigvalsh_and_svd_match_single_calls():
    rng = trial_rng(18, 0)
    Hs = np.stack([_random_hermitian(rng, 5) for _ in range(4)])
    w = eigvalsh(Hs)
    assert w.shape == (4, 5)
    Xs = Hs + 1j * np.stack([_random_hermitian(rng, 5) for _ in range(4)])
    s = svd(Xs)
    assert s.shape == (4, 5)
    for i in range(4):
        assert w[i].tobytes() == eigvalsh(Hs[i]).tobytes()
        assert s[i].tobytes() == svd(Xs[i]).tobytes()


def test_real_symmetric_input_is_solved_in_float64():
    rng = trial_rng(44, 0)
    G = rng.standard_normal((3, 7, 7))
    S = G + np.swapaxes(G, -1, -2)
    w = eigvalsh(S)
    assert w.dtype == np.float64 and w.shape == (3, 7)
    want = eigvalsh(S.astype(complex))
    assert np.abs(w - want).max() <= 1e-13 * np.abs(want).max()
    for i in range(3):
        assert w[i].tobytes() == eigvalsh(S[i]).tobytes()


def _numpy_hermitian_part(M):
    return (M + np.swapaxes(M, -1, -2).conj()) / 2


def test_eigvalsh_reads_the_lower_triangle_alone(monkeypatch):
    # one total contract: neither eigvalsh nor eigh (with zheevr and on its
    # fallback) reads the strict upper triangle or the imaginary part of
    # the diagonal
    rng = trial_rng(45, 1)
    real = rng.standard_normal((6, 6))
    complex_ = real + 1j * rng.standard_normal((6, 6))
    S = _numpy_hermitian_part(rng.standard_normal((6, 6)))
    stack = np.stack([S, S, real, S])  # one non-Hermitian member
    for M in (real, complex_, stack):
        H = _lower_hermitian(M)
        assert np.abs(H - _numpy_hermitian_part(M)).max() > 0.1
        assert eigvalsh(M).tobytes() == eigvalsh(H).tobytes()
    for fallback in (False, True):
        with monkeypatch.context() as patched:
            if fallback:
                patched.setattr(eigensolver, "_zheevr", lambda: None)
            for M in (real, complex_):
                H = _lower_hermitian(M)
                for top in (None, 3):
                    got, want = eigh(M, top=top), eigh(H, top=top)
                    assert got.values.tobytes() == want.values.tobytes()
                    assert got.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigvalsh_keeps_its_bits_in_any_layout(dtype):
    rng = trial_rng(46, 0)
    M = rng.standard_normal((4, 9, 9)).astype(dtype)
    if dtype == np.complex128:
        M += 1j * rng.standard_normal((4, 9, 9))
    M = M + np.swapaxes(M, -1, -2).conj() + 1e-13 * M  # Hermitian up to rounding
    for layout in (M, np.asfortranarray(M), np.swapaxes(M, -1, -2).conj()):
        assert eigvalsh(layout).tobytes() == eigvalsh(np.ascontiguousarray(layout)).tobytes()


def _projector(V):
    return V @ V.conj().T


@pytest.fixture(params=["live", "fallback"])
def subset_kernel(request, monkeypatch):
    """Run a test with ``zheevr`` as loaded, and with its fallback to the top
    columns of numpy's full solve (as on builds without ``zheevr``)."""
    if request.param == "fallback":
        monkeypatch.setattr(eigensolver, "_zheevr", lambda: None)
    return request.param


def _fail_subset_kernel(monkeypatch, failing):
    """Make the kernel under :func:`eigh` fail on the call numbers in
    ``failing``; returns the list of calls made."""
    calls = []
    zheevr = eigensolver._zheevr()
    if zheevr is None:
        real = np.linalg.eigh

        def kernel(*args, **kwargs):
            calls.append(None)
            if len(calls) in failing:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", kernel)
    else:

        def kernel(*args):
            calls.append(None)
            return 1 if len(calls) in failing else zheevr(*args)

        monkeypatch.setattr(eigensolver, "_zheevr", lambda: kernel)
    return calls


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", [2, 5, 10, 16])
def test_eigh_top_m_matches_the_full_solve(subset_kernel, n, real):
    H = double_commutator_lift(unit_gaussian(trial_rng(47, n), n, real=real))
    N = n * n
    full = eigh(H)
    for m in sorted({1, min(6, N), N}):
        dec = eigh(H, top=m)
        assert dec.values.shape == (m,) and dec.vectors.shape == (N, m)
        assert np.abs(dec.values - full.values[:m]).max() <= 1e-13
        if m == N or full.values[m - 1] - full.values[m] > 1e-3:
            want = _projector(full.vectors[:, :m])
            assert np.abs(_projector(dec.vectors) - want).max() <= 1e-12
        assert _max_residual(H, dec) < 1e-12
        again = eigh(H, top=m)
        assert again.values.tobytes() == dec.values.tobytes()
        assert again.vectors.tobytes() == dec.vectors.tobytes()


def test_eigh_top_m_separates_a_simple_top_eigenvector(subset_kernel):
    rng = trial_rng(48, 0)
    H = _random_hermitian(rng, 30)
    full = eigh(H)
    assert full.values[0] - full.values[1] > 1e-3
    dec = eigh(H, top=1)
    assert abs(dec.values[0] - full.values[0]) <= 1e-13
    # the two columns agree up to a unimodular factor
    overlap = np.vdot(full.vectors[:, 0], dec.vectors[:, 0])
    assert abs(abs(overlap) - 1.0) <= 1e-12
    assert np.abs(dec.vectors[:, 0] - overlap * full.vectors[:, 0]).max() <= 1e-12


def test_eigh_full_solve_is_the_top_n_solve(subset_kernel):
    # one driver: eigh(M) and eigh(M, top=N) are the same solve, bit for bit
    lifts = [double_commutator_lift(unit_gaussian(trial_rng(52, n), n)) for n in (2, 4)]
    for H in [*lifts, _random_hermitian(trial_rng(52, 0), 9)]:
        full, top_n = eigh(H), eigh(H, top=H.shape[0])
        assert full.values.tobytes() == top_n.values.tobytes()
        assert full.vectors.tobytes() == top_n.vectors.tobytes()


def test_eigh_top_m_does_not_pin_the_full_solve(subset_kernel):
    # the array that owns the returned columns holds N m entries, not N^2
    H = double_commutator_lift(unit_gaussian(trial_rng(53, 4), 4))
    dec = eigh(H, top=3)
    owner = dec.vectors
    while owner.base is not None:
        owner = owner.base
    assert owner.size == H.shape[0] * 3


def _assert_retries_on_the_reversal(monkeypatch, top):
    """One kernel failure is retried on the reversed matrix with the same
    eigenpairs; a second failure raises ConvergenceError."""
    # a lift of T_X with a gap after its sixth eigenvalue
    H = double_commutator_lift(unit_gaussian(trial_rng(49, 0), 6))
    values = eigvalsh(H)
    assert values[5] - values[6] > 1e-3
    direct = eigh(H, top=top)
    calls = _fail_subset_kernel(monkeypatch, {1})
    dec = eigh(H, top=top)
    assert len(calls) == 2
    np.testing.assert_allclose(dec.values, direct.values, rtol=0, atol=1e-13)
    top6, want = dec.vectors[:, :6], direct.vectors[:, :6]
    assert np.abs(_projector(top6) - _projector(want)).max() <= 1e-12
    assert _max_residual(H, dec) < 1e-12

    calls = _fail_subset_kernel(monkeypatch, {1, 2})
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigh(H, top=top)
    assert len(calls) == 2


def test_eigh_retries_non_convergence_on_the_reversed_matrix(monkeypatch):
    # the full solve is the top-N subset solve, so its retry is the same,
    # with zheevr and on its fallback
    for fallback in (False, True):
        with monkeypatch.context() as patched:
            if fallback:
                patched.setattr(eigensolver, "_zheevr", lambda: None)
            _assert_retries_on_the_reversal(patched, top=None)


def test_eigh_top_m_retries_non_convergence_on_the_reversed_matrix(subset_kernel, monkeypatch):
    _assert_retries_on_the_reversal(monkeypatch, top=6)


def test_eigh_retry_reads_the_same_triangle(subset_kernel, monkeypatch):
    # the retry solves the reversal of the matrix M's lower triangle
    # defines, as the first try does, not of the one its upper triangle does
    rng = trial_rng(45, 2)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    want = np.linalg.eigvalsh(_lower_hermitian(M))[::-1]
    assert np.abs(want - np.linalg.eigvalsh(_lower_hermitian(M.conj().T))[::-1]).max() > 0.1
    for top in (None, 3):
        with monkeypatch.context() as patched:
            calls = _fail_subset_kernel(patched, {1})
            dec = eigh(M, top=top)
        assert len(calls) == 2
        assert np.abs(dec.values - want[: dec.values.size]).max() <= 1e-13
        assert _max_residual(M, dec) < 1e-12


def test_eigh_top_m_rejects_a_short_eigenpair_count(monkeypatch):
    import ctypes

    zheevr = eigensolver._zheevr()
    if zheevr is None:
        pytest.skip("numpy's LAPACK does not export zheevr")

    def short(*args):
        info = zheevr(*args)
        ctypes.c_int64.from_address(args[12]).value -= 1  # the found count m
        return info

    monkeypatch.setattr(eigensolver, "_zheevr", lambda: short)
    with pytest.raises(ConvergenceError, match="5 of 6 eigenpairs"):
        eigh(_random_hermitian(trial_rng(50, 0), 8), top=6)


@pytest.mark.parametrize("top", [0, 26, -1])
def test_eigh_top_outside_one_to_n_is_rejected(top):
    with pytest.raises(PreconditionError, match="top must be in 1..25"):
        eigh(_random_hermitian(trial_rng(51, 0), 25), top=top)
