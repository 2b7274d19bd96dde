"""Closed-form spectra, the equality witness, and the BW inequality with
its equality case."""
import sys

import numpy as np
import pytest

from commspectra import (
    DegenerateInputError,
    DegenerateSupportError,
    PreconditionError,
    closed_form_summary,
    commutator,
    detect_equality_case,
    detect_rank_one,
    double_commutator_spectrum,
    frobenius_norm,
    haar_unitary,
    is_normal,
    normal_spectrum,
    normalized,
    rank_one_spectrum,
    random_normal_matrix,
    random_rank_one,
    trial_rng,
    unit_gaussian,
)
from commspectra import eigensolver, matrices
from conftest import make_maximal_pair, random_traceless_embedded

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_is_normal_classification():
    assert is_normal(np.diag([1.0, 2j, -3.0]))
    assert is_normal(np.eye(4))
    assert not is_normal(E21)


@pytest.mark.parametrize("scale", [1e-150, 1e-160])
def test_is_normal_judges_the_unit_matrix_at_any_scale(scale):
    # ||[X, X*]|| of the raw input underflows to zero at these scales
    G = unit_gaussian(trial_rng(63, 0), 4)
    assert not is_normal(scale * G)
    assert is_normal(scale * np.diag([1.0, 2j, -3.0]))
    assert not is_normal(scale * E21)
    with pytest.raises(DegenerateInputError):
        is_normal(np.zeros((3, 3)))


def test_normal_eigenvalues_handles_degenerate_hermitian_part():
    # Hermitian part is the identity (one cluster); the skew part splits it
    X = np.eye(2) + np.array([[0, 0.5j], [0.5j, 0]])
    x = eigensolver.eigvals(X)
    np.testing.assert_allclose(np.sort(x.imag), [-0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(x.real, [1.0, 1.0], atol=1e-12)
    # |x_1 - x_2|^2 / ||X||^2 = 1 / 2.5, twice
    np.testing.assert_allclose(normal_spectrum(X), [0.4, 0.4, 0.0, 0.0], atol=1e-12)


def test_normal_eigenvalues_rejects_non_normal():
    with pytest.raises(PreconditionError):
        normal_spectrum(E21)
    # normal to 1e-8 but not to 1e-10: one threshold, so what is_normal and
    # closed-form call not normal has no normal closed form either
    X = np.diag([1.0, 2j, -3.0])
    X[0, 1] = 3e-9
    assert not is_normal(X)
    assert closed_form_summary(X)["classification"] == "none"
    with pytest.raises(PreconditionError):
        normal_spectrum(X)


def _clustered_normal(case):
    rng = trial_rng(49, 0)
    if case == "haar_1_1_i":
        U = haar_unitary(rng, 3)
        return U @ np.diag([1, 1, 1j]) @ U.conj().T
    if case == "rotation_1_1_i":
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return Q @ np.diag([1, 1, 1j]) @ Q.T
    if case == "identity_plus_skew":
        return np.eye(2) + np.array([[0, 0.5j], [0.5j, 0]])
    if case == "haar_repeated":
        U = haar_unitary(rng, 5)
        return U @ np.diag([2 - 1j, 0.5, 0.5, 0.5, -1j]) @ U.conj().T
    return (0.3 - 2j) * haar_unitary(rng, 4)  # every |x_i| equal


@pytest.mark.parametrize(
    "case",
    ["haar_1_1_i", "rotation_1_1_i", "identity_plus_skew", "haar_repeated", "scaled_unitary"],
)
def test_normal_spectrum_matches_dense_on_clustered_inputs(case):
    X = _clustered_normal(case)
    assert is_normal(X)
    np.testing.assert_allclose(
        normal_spectrum(X), double_commutator_spectrum(X).values, rtol=0, atol=1e-12
    )


def test_normal_spectrum_sharp_configuration():
    # eigenvalues (2, -1, -1)/sqrt(6): four copies of 3/2, rest zero, and
    # lambda_1 + lambda_3 attains the conjectured cap 3
    X = np.diag([2.0, -1.0, -1.0]) / np.sqrt(6)
    cf = normal_spectrum(X)
    np.testing.assert_allclose(cf, [1.5] * 4 + [0.0] * 5, atol=1e-12)
    spec = double_commutator_spectrum(X)
    np.testing.assert_allclose(spec.values, cf, atol=1e-10)
    assert spec.values[0] + spec.values[2] == pytest.approx(3.0, abs=1e-10)


def test_normal_closed_form_matches_dense_sweep():
    for t in range(40):
        rng = trial_rng(41, t)
        n = 2 + t % 5
        X = random_normal_matrix(rng, n)
        cf = normal_spectrum(X)
        dense = double_commutator_spectrum(X).values
        assert np.abs(cf - dense).max() < 1e-8


def test_detect_rank_one():
    rng = trial_rng(42, 0)
    flag, t = detect_rank_one(random_rank_one(rng, 4))
    assert flag and 0.0 <= t <= 1.0
    flag, _ = detect_rank_one(unit_gaussian(rng, 4))
    assert not flag


def test_rank_one_spectrum_frozen_quarter_trace_case():
    # n = 4 with |Tr Xhat|^2 = 1/4: {7/4, 7/4, 1 x4, 0 x10}
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    v = np.zeros(4, dtype=complex)
    v[0], v[1] = 0.5, np.sqrt(0.75)
    X = np.outer(u, v.conj())
    flag, t = detect_rank_one(X)
    assert flag and t == pytest.approx(0.25, abs=1e-12)
    cf = rank_one_spectrum(4, t)
    np.testing.assert_allclose(cf, [1.75, 1.75] + [1.0] * 4 + [0.0] * 10, atol=1e-12)
    dense = double_commutator_spectrum(X).values
    assert np.abs(cf - dense).max() < 1e-10


def test_rank_one_closed_form_matches_dense_sweep():
    for t in range(40):
        rng = trial_rng(43, t)
        n = 2 + t % 5
        X = random_rank_one(rng, n)
        _, tr2 = detect_rank_one(X)
        cf = rank_one_spectrum(n, tr2)
        dense = double_commutator_spectrum(X).values
        assert np.abs(cf - dense).max() < 1e-8


def test_rank_one_spectrum_validates_arguments():
    with pytest.raises(PreconditionError):
        rank_one_spectrum(1, 0.0)
    with pytest.raises(PreconditionError):
        rank_one_spectrum(3, 1.5)


def test_equality_witness_on_constructed_matrices():
    for t in range(25):
        rng = trial_rng(44, t)
        n = 2 + t % 5
        X = random_traceless_embedded(rng, n)
        w = detect_equality_case(X)
        assert w is not None
        assert w.lambda1 == pytest.approx(2.0, abs=1e-8)
        assert w.embedding_residual < 1e-7
        assert w.trace_abs < 1e-8
        U, X0 = w.unitary, w.block
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-10
        Q = U[:, :2]
        assert np.linalg.norm(Q @ X0 @ Q.conj().T - X) < 1e-7


def test_equality_witness_is_blind_to_eigenvector_phases(rotate_eigh_phases):
    # the witness reads the span of U's first two columns: random column
    # phases leave its residuals where they were
    draws = [random_traceless_embedded(trial_rng(49, n), n) for n in range(2, 7)]
    plain = [detect_equality_case(X) for X in draws]
    rotate_eigh_phases(trial_rng(50, 0))
    for X, want in zip(draws, plain):
        got = detect_equality_case(X)
        assert got.lambda1 == want.lambda1
        assert abs(got.embedding_residual - want.embedding_residual) <= 1e-14
        assert abs(got.trace_abs - want.trace_abs) <= 1e-14


def test_equality_witness_absent_generically():
    for t in range(10):
        rng = trial_rng(45, t)
        X = unit_gaussian(rng, 4)
        spec = double_commutator_spectrum(X)
        if spec.values[0] < 1.99:
            assert detect_equality_case(X, spectrum=spec) is None


def test_equality_witness_degenerate_support_error(monkeypatch):
    import commspectra.closed_forms as closed_forms

    # forcing a low threshold on a full-support matrix must fail loudly,
    # not fabricate a 2x2 embedding
    monkeypatch.setattr(closed_forms, "EQUALITY_THRESHOLD", 0.1)
    rng = trial_rng(46, 0)
    X = unit_gaussian(rng, 3)
    spec = double_commutator_spectrum(X)
    assert spec.values[0] > 0.5
    with pytest.raises(DegenerateSupportError):
        detect_equality_case(X, spectrum=spec)


def _bw_ratio(X, Y) -> float:
    """||[Xh, Yh]||^2 / 2 on the unit matrices: the BW inequality says at most 1."""
    return frobenius_norm(commutator(normalized(X), normalized(Y))) ** 2 / 2.0


def test_maximal_pair_attains_equality():
    for n in (2, 5):
        X, Y = make_maximal_pair(n)
        assert _bw_ratio(X, Y) == pytest.approx(1.0, abs=1e-12)
    X, Y = make_maximal_pair(2)
    expected = -np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(commutator(X, Y), expected, atol=1e-12)


def test_maximal_pair_check_rejects_and_bounds():
    assert _bw_ratio(np.eye(2), np.diag([1.0, -1.0])) < 1.0 - 1e-8
    with pytest.raises(DegenerateInputError):
        _bw_ratio(np.zeros((2, 2)), np.eye(2))
    for t in range(20):
        rng = trial_rng(47, t)
        assert _bw_ratio(unit_gaussian(rng, 3), unit_gaussian(rng, 3)) <= 1.0 + 1e-12


def test_closed_form_summary_sections():
    rng = trial_rng(48, 0)
    s = closed_form_summary(random_rank_one(rng, 3))
    assert s["classification"] == "rank_one"
    assert "rank_one_closed_form" in s and s["rank_one_closed_form"]["max_abs_diff"] < 1e-8
    s = closed_form_summary(random_normal_matrix(rng, 3))
    assert s["classification"] == "normal"
    assert s["normal_closed_form"]["max_abs_diff"] < 1e-8
    s = closed_form_summary(unit_gaussian(rng, 3))
    assert s["classification"] == "none"
    assert s["equality"] == {"detected": False}
    s = closed_form_summary(random_traceless_embedded(rng, 4))
    assert s["equality"]["detected"] and s["equality"]["witness_valid"]


def test_closed_forms_normalize_once(monkeypatch):
    # every module that bound the one X / ||X|| (matrices.normalized calls it) counts its calls
    calls = []
    original = matrices._unit_and_norm

    def counting(X):
        calls.append(1)
        return original(X)

    for name, mod in list(sys.modules.items()):
        if name.startswith("commspectra") and getattr(mod, "_unit_and_norm", None) is original:
            monkeypatch.setattr(mod, "_unit_and_norm", counting)
    normal = np.diag([1.0, 1j, -1.0])
    E12 = np.array([[0, 1], [0, 0]], dtype=complex)
    for X in (normal, unit_gaussian(trial_rng(48, 1), 3).real, E12):
        calls.clear()
        closed_form_summary(X)
        assert len(calls) == 1
    for fn, X in ((normal_spectrum, normal), (detect_rank_one, E12), (is_normal, normal)):
        calls.clear()
        fn(X)
        assert len(calls) == 1, fn.__name__
