"""Spectrum computation, eigenvalue pairing, and the proven bound ladder."""
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from commspectra import (
    LAMBDA13_BOUND,
    DegenerateInputError,
    PreconditionError,
    bound_report,
    cluster_tolerance,
    commutator,
    double_commutator_lift,
    double_commutator_spectrum,
    first_four_sum_bound,
    frobenius_norm,
    majorization_target,
    monitor_majorization,
    monitor_partial_sums,
    normalized,
    partial_sums,
    random_normal_matrix,
    random_rank_one,
    trial_rng,
    unit_gaussian,
    unvec,
)
from commspectra import eigensolver
from commspectra.spectra import (
    Spectrum,
    _cluster,
    ladder_batch,
    majorization_batch,
    partial_sum_batch,
    partial_sum_caps,
    spectral_batch,
)
from commspectra.verdicts import DEFAULT_TOL, matrix_payload
from conftest import apply_double_commutator, random_traceless_embedded

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def _embed(M, n):
    out = np.zeros((n, n), dtype=complex)
    out[: M.shape[0], : M.shape[1]] = M
    return out


def test_e21_spectrum_order_two():
    spec = double_commutator_spectrum(E21)
    np.testing.assert_allclose(spec.values, [2, 2, 0, 0], atol=1e-12)
    assert spec.pairing_ok
    assert spec.clusters == ((2.0, 2), (0.0, 2))
    assert spec.norm_scale == pytest.approx(1.0)
    assert spec.order == 2


def test_e21_spectrum_order_three():
    spec = double_commutator_spectrum(_embed(E21, 3))
    np.testing.assert_allclose(spec.values, [2, 2, 1, 1, 0, 0, 0, 0, 0], atol=1e-12)
    assert spec.pairing_ok


def test_derived_fields_follow_a_replaced_spectrum():
    spec = double_commutator_spectrum(_embed(E12, 3))
    assert spec.clusters == ((2.0, 2), (1.0, 2), (0.0, 5)) and spec.pairing_ok
    v = spec.values.copy()
    v[1] = 1.5
    edited = dataclasses.replace(spec, values=v)
    assert edited.clusters == ((2.0, 1), (1.5, 1), (1.0, 2), (0.0, 5))
    assert not edited.pairing_ok
    assert spec.clusters == ((2.0, 2), (1.0, 2), (0.0, 5)) and spec.pairing_ok


def test_clustering_runs_only_where_a_report_reads_it(monkeypatch, tmp_path, isotropic_family):
    from commspectra import cli, spectra
    from commspectra.closed_forms import closed_form_summary
    from commspectra.conjectures import check_isotropic_trace_bound
    from commspectra.matrixio import save_matrix

    calls = []
    cluster = spectra._cluster

    def counting(values):
        calls.append(None)
        return cluster(values)

    monkeypatch.setattr(spectra, "_cluster", counting)
    X = unit_gaussian(trial_rng(49, 0), 3)
    path = tmp_path / "x.json"
    save_matrix(path, X)
    monkeypatch.chdir(tmp_path)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    spec = double_commutator_spectrum(X)
    assert count(lambda: bound_report(X, spectrum=spec)) == 0
    assert count(lambda: monitor_partial_sums(X, spectrum=spec)) == 0
    assert count(lambda: monitor_majorization(X, spectrum=spec)) == 0
    assert count(lambda: closed_form_summary(X)) == 0
    family = isotropic_family(X, 2, trial_rng(49, 1))
    assert count(lambda: check_isotropic_trace_bound(X, family)) == 0
    assert count(lambda: cli.main(["check", "conj4", str(path), "--json"])) == 0
    # the spectrum section reads clusters and pairing_ok: one clustering per report
    assert count(lambda: cli.main(["spectrum", str(path), "--json"])) == 1
    assert count(lambda: cli.main(["bounds", str(path), "--json"])) == 1


def test_identity_spectrum_is_zero():
    spec = double_commutator_spectrum(np.eye(3))
    np.testing.assert_allclose(spec.values, np.zeros(9), atol=1e-12)
    assert spec.pairing_ok


def test_spectrum_is_scale_invariant_with_recorded_scale():
    rng = trial_rng(30, 0)
    X = unit_gaussian(rng, 3)
    s1 = double_commutator_spectrum(X)
    s3 = double_commutator_spectrum(3.0 * X)
    np.testing.assert_allclose(s1.values, s3.values, atol=1e-12)
    assert s3.norm_scale == pytest.approx(9.0 * s1.norm_scale, rel=1e-12)


@pytest.mark.parametrize("s", [1e200, 1e160, 1e-160, 1e-170, 1e-200])
def test_extreme_scales_give_the_unit_scale_results(s):
    # X / ||X|| is E12 itself at every one of these scales; only norm_scale,
    # which saturates beyond about 1e154, tells them apart
    X, scaled = _embed(E12, 3), s * _embed(E12, 3)
    ref, spec = double_commutator_spectrum(X), double_commutator_spectrum(scaled)
    assert spec.matrix.tobytes() == ref.matrix.tobytes()
    assert spec.values.tobytes() == ref.values.tobytes()
    assert spec.trace_residual == ref.trace_residual
    assert spec.norm_scale == s * s
    got, want = bound_report(scaled), bound_report(X)
    assert got.all_proven_hold and got.slacks == want.slacks
    for monitor in (monitor_partial_sums, monitor_majorization):
        got, want = monitor(scaled), monitor(X)
        assert (got.satisfied, got.lhs, got.rhs) == (want.satisfied, want.lhs, want.rhs)
        assert got.satisfied


def test_trace_identity_and_pairing_sweep():
    for t in range(60):
        rng = trial_rng(31, t)
        n = 2 + t % 5
        X = unit_gaussian(rng, n, real=bool(t % 2))
        spec = double_commutator_spectrum(X)
        target = 2.0 * n - 2.0 * abs(np.trace(X)) ** 2
        assert abs(spec.values.sum() - target) < 1e-9
        assert spec.pairing_ok
        paired = spec.values[: (n * n) // 2 * 2].reshape(-1, 2)
        assert np.abs(paired[:, 0] - paired[:, 1]).max() < 1e-6


def test_spectrum_rejects_zero_and_oversize():
    with pytest.raises(DegenerateInputError):
        double_commutator_spectrum(np.zeros((2, 2)))
    with pytest.raises(PreconditionError, match="order 65"):
        double_commutator_spectrum(np.eye(65) + _embed(E12, 65))
    spec = double_commutator_spectrum(np.eye(17) + _embed(E12, 17))
    assert spec.order == 17


def test_cluster_tolerance_floor():
    assert cluster_tolerance(0.0) == pytest.approx(1e-7)
    assert cluster_tolerance(1e4) == pytest.approx(1e-5)


def _partner(X, Y, value):
    """The partner [X, Y]* / sqrt(value) of an eigenpair (Y, value) of T_X."""
    return commutator(X, Y).conj().T / np.sqrt(value)


def test_eigen_partner_oracle_case():
    # For X = E21 the eigenvector (E11 - E22)/sqrt(2) at eigenvalue 2 has
    # partner E12: partner = [X, Y]* / sqrt(2), and applying twice gives -Y.
    Y = (E11 - E22) / np.sqrt(2)
    np.testing.assert_allclose(apply_double_commutator(E21, Y), 2.0 * Y, atol=1e-12)
    partner = _partner(E21, Y, 2.0)
    np.testing.assert_allclose(partner, E12, atol=1e-12)
    again = _partner(E21, partner, 2.0)
    np.testing.assert_allclose(again, -Y, atol=1e-12)


def test_eigen_partner_shares_value_and_is_orthogonal():
    rng = trial_rng(32, 0)
    X = unit_gaussian(rng, 4)
    spec = double_commutator_spectrum(X)
    dec = eigensolver.eigh(double_commutator_lift(X), top=2)
    Y, lam = unvec(dec.vectors[:, 0], 4), float(dec.values[0])
    partner = _partner(X, Y, lam)
    assert frobenius_norm(partner) == pytest.approx(1.0, abs=1e-6)
    assert abs(np.vdot(partner, Y)) < 1e-8
    # partner is again an eigenvector at the same eigenvalue
    resid = apply_double_commutator(X, partner) - lam * partner
    assert frobenius_norm(resid) < 1e-8
    np.testing.assert_allclose(_partner(X, partner, lam), -Y, atol=1e-8)
    assert spec.values[0] == pytest.approx(lam, abs=1e-10)


def test_partial_sums_monotone_and_total():
    rng = trial_rng(34, 0)
    X = unit_gaussian(rng, 3)
    spec = double_commutator_spectrum(X)
    prefix = partial_sums(spec)
    assert np.all(np.diff(prefix) >= 0)
    assert prefix[-1] == pytest.approx(float(spec.values.sum()), abs=1e-9)


def test_majorization_target_profiles():
    np.testing.assert_allclose(majorization_target(2), [2, 2, 0, 0])
    np.testing.assert_allclose(majorization_target(3), [2, 2, 1, 1, 0, 0, 0, 0, 0])
    assert majorization_target(5).size == 25
    with pytest.raises(PreconditionError):
        majorization_target(1)


def test_check_weak_majorization_paths():
    # at n = 2 the target profile is [2, 2, 0, 0]
    ok, lhs, rhs = majorization_batch(np.array([[2.0, 2, 0, 0], [3, 0, 0, 0]]))
    assert ok.tolist() == [True, False]
    # the second row's worst prefix is its first entry: 3 against 2
    assert lhs[1] == pytest.approx(3.0) and rhs[1] == pytest.approx(2.0)
    with pytest.raises(PreconditionError):
        majorization_batch(np.array([[0.0, 1, 0, 0]]))


def _rise_at_the_edge(a: float, scale: float) -> tuple[float, float]:
    """Neighbouring floats lo < hi with lo - a <= 1e-9 scale < hi - a."""
    edge = 1e-9 * scale
    b = a + edge
    while b - a > edge:
        b = np.nextafter(b, -np.inf)
    while b - a <= edge:
        b = np.nextafter(b, np.inf)
    return np.nextafter(b, -np.inf), b


@pytest.mark.parametrize("first, last, scale", [(1.0, 0.0, 2.0), (5.0, 0.0, 5.0), (1.0, -5.0, 5.0)])
def test_majorization_refuses_a_rise_just_above_the_sort_tolerance(first, last, scale):
    # a row may rise by at most 1e-9 of its scale, max(|v|, 2), 2 being the
    # profile's top entry; a larger row elsewhere in the stack does not count
    lo, hi = _rise_at_the_edge(0.5, scale)
    other = [50.0, 0.0, 0.0, 0.0]
    majorization_batch(np.array([other, [first, 0.5, lo, last]]))
    with pytest.raises(PreconditionError, match="descending"):
        majorization_batch(np.array([other, [first, 0.5, hi, last]]))


def test_bound_report_extremal_diagonal():
    X = np.diag([1 / np.sqrt(2), -1 / np.sqrt(2)]).astype(complex)
    br = bound_report(X)
    assert br.lambda1 == pytest.approx(2.0, abs=1e-10)
    assert br.bounds["bw"] == 2.0
    assert br.bounds["cx"] == pytest.approx(2.0, abs=1e-12)
    assert br.bounds["norm22"] == pytest.approx(2.0, abs=1e-12)
    assert br.slacks["cx"] == pytest.approx(0.0, abs=1e-9)
    assert br.all_proven_hold


def test_bound_report_identity_has_zero_lambda1():
    br = bound_report(np.eye(4))
    assert br.lambda1 == pytest.approx(0.0, abs=1e-12)
    # both definite parts push c_x all the way down to zero
    assert br.bounds["cx"] == pytest.approx(0.0, abs=1e-12)
    assert br.all_proven_hold


def test_bound_report_random_ladder_holds():
    for t in range(30):
        rng = trial_rng(35, t)
        n = 2 + t % 5
        X = unit_gaussian(rng, n, real=bool(t % 2))
        br = bound_report(X)
        assert br.all_proven_hold
        assert min(br.slacks["bw"], br.slacks["norm22"], br.slacks["cx"]) >= -1e-8
        assert br.slacks["k1_entrywise"] >= -1e-8
        assert br.slacks["lambda13_weak"] >= -1e-8
        assert br.slacks["partial_sum_weak"] >= -1e-8


def test_bound_report_rejects_order_one():
    with pytest.raises(PreconditionError):
        bound_report(np.array([[2.0]]))


def test_lambda13_bound_constant():
    assert LAMBDA13_BOUND == pytest.approx((4 + np.sqrt(10)) / 2)


def test_first_four_sum_bound_scales_quadratically():
    rng = trial_rng(36, 0)
    X = unit_gaussian(rng, 3)
    assert first_four_sum_bound(2 * X) == pytest.approx(
        4 * first_four_sum_bound(X), rel=1e-12
    )
    spec = double_commutator_spectrum(X)
    assert spec.values[:4].sum() <= first_four_sum_bound(X) + 1e-9


def test_monitors_on_rank_one_equality_case():
    # rank-one traceless: spectrum equals the majorization target exactly
    X = _embed(E21, 3)
    v_sum = monitor_partial_sums(X)
    v_maj = monitor_majorization(X)
    assert v_sum.satisfied and v_sum.witness is None
    assert v_maj.satisfied and v_maj.witness is None
    assert v_maj.lhs == pytest.approx(v_maj.rhs, abs=1e-9)


def test_monitors_emit_bundles_under_forcing_tolerance():
    rng = trial_rng(37, 0)
    X = unit_gaussian(rng, 3)
    v = monitor_partial_sums(X, tol=-10.0, seed=5)
    assert not v.satisfied
    assert v.witness is not None
    assert v.witness["conjecture_id"] == "C2A"
    assert v.witness["seed"] == 5
    v4 = monitor_majorization(X, tol=-10.0)
    assert not v4.satisfied and v4.witness["conjecture_id"] == "C4"


def test_bundles_hold_the_unit_matrix_whose_spectrum_was_judged():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = 10.0 ** rng.uniform(-3, 3) * G
        spec = double_commutator_spectrum(X)
        assert spec.matrix.tobytes() == spectral_batch(X[None]).matrix[0].tobytes()
        assert spec.matrix.tobytes() == normalized(X).tobytes()
        for monitor in (monitor_partial_sums, monitor_majorization):
            witness = monitor(X, spectrum=spec, tol=-100.0).witness
            assert witness["matrices"] == [matrix_payload(spec.matrix)]


def test_a_spectrum_op_normalizes_once(monkeypatch):
    import commspectra

    X = unit_gaussian(trial_rng(62, 0), 5)
    calls = []
    real = commspectra.matrices._unit_and_norm  # the one X / ||X||, behind normalized

    def counted(M):
        calls.append(None)
        return real(M)

    for name in ("matrices", "spectra", "closed_forms", "search", "ensembles"):
        module = getattr(commspectra, name)
        if getattr(module, "_unit_and_norm", None) is real:
            monkeypatch.setattr(module, "_unit_and_norm", counted)
    spec = double_commutator_spectrum(X)
    bound_report(X, spectrum=spec)
    monitor_partial_sums(X, spectrum=spec)
    monitor_majorization(X, spectrum=spec)
    assert len(calls) == 1


def test_each_spectrum_takes_its_prefix_sums_once(monkeypatch):
    import commspectra
    from commspectra.reporting import spectrum_section
    from commspectra.search import sweep

    calls, profiles = [], []
    real = commspectra.spectra.partial_sums
    target = commspectra.spectra.majorization_target

    def counted(spectrum):
        if not isinstance(spectrum, Spectrum):  # a Spectrum hands back its cached sums
            calls.append(None)
        return real(spectrum)

    def counted_target(n):
        profiles.append(n)
        return target(n)

    for name in ("spectra", "reporting", "search", "conjectures"):
        module = getattr(commspectra, name)
        if getattr(module, "partial_sums", None) is real:
            monkeypatch.setattr(module, "partial_sums", counted)
    monkeypatch.setattr(commspectra.spectra, "majorization_target", counted_target)
    commspectra.spectra._majorization_prefix.cache_clear()
    X = unit_gaussian(trial_rng(63, 0), 5)
    spec = double_commutator_spectrum(X)
    bound_report(X, spectrum=spec)
    monitor_partial_sums(X, spectrum=spec)
    monitor_majorization(X, spectrum=spec)
    spectrum_section(spec)
    assert len(calls) == 1
    calls.clear()
    # one chunk per order: the ladder, C2A and C4 of a chunk share its sums
    sweep([3, 4], trials=5, seed=63)
    assert len(calls) == 2
    # C4's profile and its prefix sums are built once per order, however
    # many spectra and chunks read them
    monitor_majorization(X, spectrum=spec)
    sweep([3, 4], trials=5, seed=64)
    assert profiles == [5, 3, 4]


def _c4_draws(orders, per):
    """(n, Spectrum of a stack of ``per`` draws) per class and order: Ginibre,
    real Ginibre, normal, rank-one and embedded (lambda_1 = 2) matrices."""
    draws = (
        lambda rng, n: unit_gaussian(rng, n),
        lambda rng, n: unit_gaussian(rng, n, real=True),
        random_normal_matrix,
        random_rank_one,
        random_traceless_embedded,
    )
    for c, draw in enumerate(draws):
        for n in orders:
            yield n, spectral_batch(np.stack([draw(trial_rng(64, c, n, t), n) for t in range(per)]))


def _paired_profiles(rng, n, count):
    """Synthetic descending spectra of order n with paired entries and total at
    most 2n, as T_X's are, concentrated enough at the top to breach C2A."""
    N = n * n
    w = -np.sort(-(rng.exponential(size=(count, N // 2)) ** 4), axis=-1)
    w *= (n * rng.uniform(0.5, 1.0, size=(count, 1))) / w.sum(axis=-1, keepdims=True)
    return np.concatenate([np.repeat(w, 2, axis=-1), np.zeros((count, N % 2))], axis=-1)


def test_c4_is_c2a_at_every_k_up_to_n_minus_1():
    # T_X's positive eigenvalues pair up and so do the profile's entries, so
    # each odd prefix's excess is the mean of its even neighbours' (prefix 0
    # has excess 0). The worst prefix is then even, 2k with k <= n - 1, where
    # the profile's prefix sum is C2A's 2k + 2: prefix 1 is BW, and from
    # 2n - 2 on the profile sums to 2n, which the trace identity bounds.
    rng = np.random.default_rng(64)
    for n, spec in _c4_draws(range(2, 9), 4):
        excess = partial_sums(spec) - np.cumsum(majorization_target(n))
        excess = np.concatenate([np.zeros((len(excess), 1)), excess], axis=-1)
        odd = np.arange(1, n * n, 2)
        np.testing.assert_allclose(excess[:, odd], (excess[:, odd - 1] + excess[:, odd + 1]) / 2, rtol=0, atol=1e-14)
        ks = np.arange(1, n)
        for values in (spec, _paired_profiles(rng, n, 40)):
            c2a = partial_sum_batch(values, ks)[0].all(axis=-1)
            assert (majorization_batch(values)[0] == c2a).all()
    # the synthetic spectra breach both somewhere, so the equivalence is not vacuous
    assert not majorization_batch(_paired_profiles(rng, 4, 40))[0].all()


def test_c4_of_a_spectrum_keeps_the_unclipped_bits():
    # the prefix sums are clipped at zero now, as C2A's are; rounding noise
    # below zero sits only at a spectrum's tail, after its worst prefix, so
    # (holds, lhs, rhs) keep the bits of the unclipped formula, also where
    # rank-one and embedded spectra tie with the profile near zero excess
    for n, spec in _c4_draws(range(2, 13), 30):
        cv, ct = np.cumsum(spec.values, axis=-1), np.cumsum(majorization_target(n))
        worst = np.argmax(cv - ct, axis=-1)
        lhs, rhs = np.take_along_axis(cv, worst[:, None], -1)[:, 0], ct[worst]
        got = majorization_batch(spec)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (lhs <= rhs + DEFAULT_TOL, lhs, rhs)]


def test_partial_sum_caps():
    for n in range(2, 7):
        ks = np.arange(1, n * n // 2 + 1)
        conjectured, proven = partial_sum_caps(ks, n)
        for k, c, p in zip(ks.tolist(), conjectured, proven):
            assert c == 2 * k + 2
            assert p == min(2 * k + 1 + 2 * math.sqrt(k), 2 * n)


@pytest.mark.parametrize("n", [2, 5, 10, 16])
def test_real_input_spectrum_matches_complex_path(n, real_matrices):
    for name, X in real_matrices(n).items():
        Xh = X / np.linalg.norm(X)
        complex_path = eigensolver.eigvalsh(double_commutator_lift(Xh.astype(complex)))
        for given in (X, X.astype(complex)):
            values = double_commutator_spectrum(given).values
            assert np.abs(values - complex_path).max() <= 1e-13, name


@pytest.mark.parametrize("real", [False, True])
def test_spectral_core_solves_the_lift_as_built(real):
    # no Hermitian part is taken: the values are numpy's eigvalsh of the lift
    # (its lower triangle), within rounding of those of its Hermitian part
    for n in (2, 3, 5, 8, 11, 16):
        X = np.stack([unit_gaussian(trial_rng(43, n, t), n, real=real) for t in range(3)])
        batch = spectral_batch(X)
        T = double_commutator_lift(batch.matrix.real if real else batch.matrix)
        assert batch.values.tobytes() == np.linalg.eigvalsh(T)[:, ::-1].tobytes()
        H = (T + np.swapaxes(T, -1, -2).conj()) / 2
        assert np.abs(batch.values - eigensolver.eigvalsh(H)).max() <= 1e-14


def _order_32_growth_in_lifts(run_python, solve: str) -> float:
    """Peak RSS growth of ``solve(X)`` on an order-32 Gaussian X, in lifts,
    after a warm-up solve at order 4. The child reads its own peak RSS,
    VmHWM: ru_maxrss would start from the peak of the process that spawned
    it, which Linux keeps across exec."""
    code = (
        "from commspectra import double_commutator_lift, double_commutator_spectrum\n"
        "from commspectra import eigensolver, gaussian_matrix, trial_rng\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return int(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
        f"solve = {solve}\n"
        "solve(gaussian_matrix(trial_rng(0, 0), 4))\n"
        "X = gaussian_matrix(trial_rng(0, 1), 32)\n"
        "before = peak_kib()\n"
        "solve(X)\n"
        "print(peak_kib() - before)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024 / (32**4 * 16)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is Linux's")
def test_order_32_spectrum_holds_about_two_lifts(run_python):
    # the lift and numpy's copy of it for LAPACK; a third lift-sized buffer
    # (a symmetrized copy, say) shows as about 3 lifts of growth
    assert _order_32_growth_in_lifts(run_python, "double_commutator_spectrum") < 2.5


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is Linux's")
@pytest.mark.skipif(
    eigensolver._zheevr() is None, reason="numpy's full solve holds all N^2 vector entries"
)
def test_order_32_eigh_holds_about_two_lifts(run_python):
    # the lift and the Fortran-ordered copy that zheevr overwrites; a
    # Hermitian-part buffer shows as about 3 lifts
    solve = "lambda X: eigensolver.eigh(double_commutator_lift(X), top=6)"
    assert _order_32_growth_in_lifts(run_python, solve) < 2.5


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="minor faults as Linux counts them")
def test_repeated_order_16_spectrum_takes_about_two_lifts_of_fresh_pages(run_python):
    # per op, after a warm-up: about 2.0 lifts of minor faults (one complex
    # order-16 lift is 256 pages of 4 KiB); a lift allocated after its cross
    # product instead of before takes about 2.9
    code = (
        "import resource\n"
        "from commspectra import double_commutator_spectrum, gaussian_matrix, trial_rng\n"
        "X = gaussian_matrix(trial_rng(0, 1), 16)\n"
        "for _ in range(3):\n"
        "    double_commutator_spectrum(X)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    double_commutator_spectrum(X)\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(faults * resource.getpagesize() / 20)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) / (16**4 * 16) <= 2.5


def test_mixed_stack_rows_match_batches_of_one(monkeypatch):
    kinds = [t % 3 == 1 for t in range(8)]  # rows 1, 4 and 7 are real
    X = np.stack([unit_gaussian(trial_rng(42, t), 4, real=r) for t, r in enumerate(kinds)])
    X *= np.arange(1, 9)[:, None, None]
    solves = []
    eigvalsh = eigensolver.eigvalsh

    def recording(M):
        solves.append((M.dtype, len(M)))
        return eigvalsh(M)

    monkeypatch.setattr(eigensolver, "eigvalsh", recording)
    batch = spectral_batch(X)
    # one real solve for the real rows, one complex solve for the others
    assert solves == [(np.float64, 3), (np.complex128, 5)]
    ladder = ladder_batch(batch)
    _, lhs, rhs = partial_sum_batch(batch.values, np.arange(1, 9))

    def assert_row(got, stack, i):
        """Every field of ``got`` (and entry of a dict field) is row i of ``stack``'s, bit for bit."""
        for f in dataclasses.fields(got):
            mine, rows = getattr(got, f.name), getattr(stack, f.name)
            pairs = [(mine[k], rows[k][i]) for k in mine] if isinstance(mine, dict) else [(mine, rows[i])]
            for a, b in pairs:
                assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name

    for i in range(len(X)):
        alone = spectral_batch(X[i : i + 1])
        assert batch.values[i].tobytes() == alone.values[0].tobytes()
        assert batch.matrix[i].tobytes() == alone.matrix[0].tobytes()
        assert batch.norm_scale[i] == alone.norm_scale[0]
        assert batch.trace_residual[i] == alone.trace_residual[0]
        # one matrix runs the stack's lines: row i, bit for bit, without the batch axis
        one = spectral_batch(X[i])
        for single in (one, double_commutator_spectrum(X[i])):
            assert_row(single, batch, i)
        # the ladder of that spectrum is the stack's ladder row, and so is bound_report's
        br = ladder_batch(one)
        for report in (br, bound_report(X[i])):
            assert_row(report, ladder, i)
        # a row holds numpy scalars and arrays of its own, never a view of its spectrum
        scalars = [br.lambda1, br.norm_scale, one.norm_scale, one.trace_residual, *br.slacks.values()]
        scalars += [br.bounds["bw"], br.bounds["lambda13_weak"]]
        assert all(type(v) is np.float64 for v in scalars)
        assert type(br.all_proven_hold) is np.bool_
        assert all(type(br.bounds[k]) is np.ndarray for k in ("k1_entrywise", "partial_sum_weak"))
        held = [br.lambda1, br.norm_scale, br.all_proven_hold, *br.bounds.values(), *br.slacks.values()]
        assert not any(np.shares_memory(v, getattr(one, f.name)) for v in held for f in dataclasses.fields(one))
        verdict = monitor_partial_sums(X[i])
        worst = np.argmax(lhs[i] - rhs)
        assert (verdict.lhs, verdict.rhs) == (lhs[i, worst], rhs[worst])
    assert (batch.trace_residual <= 1e-9).all() and (batch.values[:, -1] >= -1e-9).all()


def _cluster_loop(values):
    """The reference clustering: one np.split group at a time."""
    tol = cluster_tolerance(float(values[0]))
    starts = np.flatnonzero(~(values[:-1] - values[1:] < tol)) + 1
    return [(float(g.mean()), g.size) for g in np.split(values, starts)]


def test_cluster_matches_reference_loop():
    spectra = [np.zeros(4), np.array([2.0, 1.5, 1.5, 0.0])]
    for n in (2, 3, 6, 10, 16):
        for t in range(3):
            rng = trial_rng(43, n, t)
            for X in (
                unit_gaussian(rng, n),
                unit_gaussian(rng, n, real=True),
                random_rank_one(rng, n),
                random_traceless_embedded(rng, n),
                _embed(E12, n),
            ):
                spectra.append(double_commutator_spectrum(X).values)
    largest = 0
    for values in spectra:
        got, want = _cluster(values), _cluster_loop(values)
        assert [m for _, m in got] == [m for _, m in want]
        assert all(type(m) is int and type(v) is float for v, m in got)
        assert max(abs(v - w) for (v, _), (w, _) in zip(got, want)) <= 4e-16
        largest = max(largest, max(m for _, m in got))
    assert largest == 226  # the kernel of an order-16 rank-one matrix


def test_cluster_means_are_within_one_ulp_of_the_exact_mean():
    # one cluster of up to 300 values within 1e-9 of each other; a
    # sequential sum of the values themselves lands 2 ulps off on this draw
    rng = np.random.default_rng(48)
    for _ in range(50):
        m = int(rng.integers(2, 300))
        group = np.sort(rng.uniform(0.5, 2.0) + 1e-9 * rng.random(m))[::-1]
        (mean, mult), zero = _cluster(np.append(group, 0.0))
        exact = float(Fraction(math.fsum(group)) / m)
        assert mult == m and zero == (0.0, 1)
        assert abs(mean - exact) <= np.spacing(exact)
