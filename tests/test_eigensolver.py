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
from commspectra.eigensolver import _require_hermitian, eigh, eigvalsh, svd


def _random_hermitian(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2


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
        assert dec.residual < 1e-12 * max(1.0, np.linalg.norm(H))
        np.testing.assert_allclose(eigvalsh(H), dec.values, atol=1e-12)


def test_eigh_phase_fixing_makes_anchor_real_positive():
    rng = trial_rng(11, 0)
    H = _random_hermitian(rng, 5)
    V = eigh(H).vectors
    for j in range(5):
        col = V[:, j]
        mags = np.abs(col)
        anchor = np.argmax(mags >= 1e-6 * mags.max())
        a = col[anchor]
        assert abs(a.imag) < 1e-12 and a.real > 0


def test_eigh_determinism_bit_for_bit():
    rng = trial_rng(12, 0)
    H = _random_hermitian(rng, 7)
    d1, d2 = eigh(H.copy()), eigh(H.copy())
    assert d1.values.tobytes() == d2.values.tobytes()
    assert d1.vectors.tobytes() == d2.vectors.tobytes()


def test_eigh_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(PreconditionError):
        eigvalsh(np.array([[0, 1e-5], [0, 0]], dtype=complex))


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


def _fix_phases_loop(V):
    # the per-column reference the vectorized phase fix replaced
    out = V.copy()
    anchors = []
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        anchor = np.argmax(mags >= 1e-6 * mags.max())
        anchors.append(anchor)
        a = col[anchor]
        if a != 0:
            out[:, j] = col * (a.conjugate() / abs(a))
    return out, anchors


def test_vectorized_phase_fix_matches_column_loop():
    from commspectra.eigensolver import _fix_phases

    for t in range(10):
        rng = trial_rng(17, t)
        n = 2 + t
        V = np.linalg.eigh(_random_hermitian(rng, n))[1]
        V[: t % 3, 0] = 0.0  # leading zeros move the anchor down the column
        V[:, -1] = 0.0  # an all-zero column is left as it is
        fixed = _fix_phases(V)
        ref, anchors = _fix_phases_loop(V)
        got_anchors = np.argmax(np.abs(fixed) >= 1e-6 * np.abs(fixed).max(axis=0), axis=0)
        assert got_anchors.tolist() == anchors
        assert not fixed[:, -1].any()
        assert fixed.tobytes() == ref.tobytes()


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
    # the Hermiticity precondition is checked matrix by matrix
    Hs[2, 0, 1] += 1e-3
    with pytest.raises(PreconditionError, match="not Hermitian"):
        eigvalsh(Hs)


def test_eigh_retries_non_convergence_on_the_reversed_matrix(monkeypatch):
    from commspectra import double_commutator_lift, unit_gaussian

    # a lift of T_X: its top eigenvalue is twofold, so compare projectors
    H = double_commutator_lift(unit_gaussian(trial_rng(19, 0), 4))
    direct = eigh(H)
    assert direct.values[1] - direct.values[2] > 1e-3
    real = np.linalg.eigh
    calls = []

    def fails_first(a, *args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", fails_first)
    dec = eigh(H)
    assert len(calls) == 2
    np.testing.assert_allclose(dec.values, direct.values, rtol=0, atol=1e-12)
    top, want = dec.vectors[:, :2], direct.vectors[:, :2]
    assert np.abs(top @ top.conj().T - want @ want.conj().T).max() <= 1e-12
    assert dec.residual < 1e-12

    def fails(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigh(H)


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


def _not_hermitian_message(M):
    with pytest.raises(PreconditionError, match="matrix is not Hermitian") as info:
        eigvalsh(M)
    return str(info.value)


def test_hermiticity_check_on_real_matrices():
    rng = trial_rng(45, 0)
    G = rng.standard_normal((6, 6))
    S = G + G.T
    bad = S.copy()
    bad[0, 1] += 1e-3
    message = _not_hermitian_message(bad)
    assert message == _not_hermitian_message(bad.astype(complex))
    # one bad matrix inside a float64 stack is caught, with the same message
    assert _not_hermitian_message(np.stack([S, S, bad, S])) == message
    # ||M - M^T|| = 2 sqrt(2) t for t (E12 - E21): just under the 1e-10
    # relative tolerance passes, just over it fails
    A = np.zeros((6, 6))
    A[0, 1], A[1, 0] = 1.0, -1.0
    t = 1e-10 * np.linalg.norm(S) / (2.0 * np.sqrt(2.0))
    assert eigvalsh(S + 0.99 * t * A).dtype == np.float64
    _not_hermitian_message(S + 1.01 * t * A)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_symmetrized_matrix_keeps_its_bits_in_any_layout(dtype):
    rng = trial_rng(46, 0)
    M = rng.standard_normal((4, 9, 9)).astype(dtype)
    if dtype == np.complex128:
        M += 1j * rng.standard_normal((4, 9, 9))
    M = M + np.swapaxes(M, -1, -2).conj() + 1e-13 * M  # Hermitian up to rounding
    for layout in (M, np.asfortranarray(M), np.swapaxes(M, -1, -2).conj()):
        H = _require_hermitian(layout)
        want = (np.swapaxes(layout, -1, -2).conj() + layout) / 2
        assert H.dtype == dtype and H.flags.c_contiguous
        assert H.tobytes() == np.ascontiguousarray(want).tobytes()
        assert eigvalsh(layout).tobytes() == eigvalsh(np.ascontiguousarray(layout)).tobytes()


def _projector(V):
    return V @ V.conj().T


@pytest.fixture(params=["live", "fallback"])
def subset_kernel(request, monkeypatch):
    """Run a test with the subset solve as loaded, and with its fallback to
    the top columns of the full solve (as on builds without ``zheevr``)."""
    if request.param == "fallback":
        monkeypatch.setattr(eigensolver, "_zheevr", lambda: None)
    return request.param


def _fail_subset_kernel(monkeypatch, failing):
    """Make the kernel under ``eigh(top=...)`` fail on the call numbers in
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
        mags = np.abs(dec.vectors)
        anchor = np.argmax(mags >= 1e-6 * mags.max(axis=0), axis=0)
        a = dec.vectors[anchor, np.arange(m)]
        assert np.all(np.abs(a.imag) < 1e-12) and np.all(a.real > 0)
        assert dec.residual < 1e-12
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
    # both columns are phase-fixed by the same rule, so they agree as vectors
    assert np.abs(dec.vectors[:, 0] - full.vectors[:, 0]).max() <= 1e-12


def test_eigh_top_m_retries_non_convergence_on_the_reversed_matrix(subset_kernel, monkeypatch):
    H = double_commutator_lift(unit_gaussian(trial_rng(49, 0), 6))
    direct = eigh(H, top=6)
    assert direct.values[5] - eigh(H).values[6] > 1e-3
    calls = _fail_subset_kernel(monkeypatch, {1})
    dec = eigh(H, top=6)
    assert len(calls) == 2
    np.testing.assert_allclose(dec.values, direct.values, rtol=0, atol=1e-13)
    assert np.abs(_projector(dec.vectors) - _projector(direct.vectors)).max() <= 1e-12
    assert dec.residual < 1e-12

    calls = _fail_subset_kernel(monkeypatch, {1, 2})
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigh(H, top=6)
    assert len(calls) == 2


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
