"""Alternating-ascent extremal search and the monitor sweep."""
import numpy as np
import pytest

from commspectra import (
    LAMBDA13_BOUND,
    InvariantViolationError,
    PreconditionError,
    SearchConfig,
    ascend,
    double_commutator_lift,
    double_commutator_spectrum,
    haar_unitary,
    lambda13_search,
    reverify_bundle,
    sweep,
    trial_rng,
    unit_gaussian,
    unvec,
    validate_config,
)
from commspectra import eigensolver, ensembles, lifted, search
from commspectra.lifted import family_lift
from conftest import make_maximal_pair


def test_ascend_reaches_global_maximum_for_smallest_order():
    result = ascend(SearchConfig(order=2, k=1, restarts=8, seed=0))
    assert result.objective == "partial_sum"
    assert result.best_objective == pytest.approx(4.0, abs=1e-6)
    assert result.conjectured_bound == 4.0
    assert result.proven_bound == 4.0  # min(2k+1+2sqrt(k), 2n) with n = 2
    assert abs(result.gap_to_conjecture) < 1e-6
    assert result.monotone_ok
    assert result.violation is None
    assert len(result.restarts) == 8
    # the reported matrix actually attains the reported objective
    spec = double_commutator_spectrum(result.best_matrix)
    assert spec.values[:2].sum() == pytest.approx(result.best_objective, abs=1e-9)


@pytest.mark.parametrize("init", ["random_gaussian", "normal_class", "rank_one"])
def test_ascend_converges_from_every_init_class(init):
    result = ascend(SearchConfig(order=2, k=1, restarts=4, seed=2, init=init))
    assert result.best_objective == pytest.approx(4.0, abs=1e-6)


def test_ascend_is_deterministic():
    config = SearchConfig(order=3, k=1, restarts=3, seed=7, max_iters=60)
    a = ascend(config)
    b = ascend(config)
    assert a.best_objective == b.best_objective
    assert a.best_matrix.tobytes() == b.best_matrix.tobytes()
    assert a.restarts == b.restarts


def test_ascend_user_matrix_restart_zero_is_unperturbed():
    X, _ = make_maximal_pair(2)
    result = ascend(
        SearchConfig(order=2, k=1, restarts=3, seed=0, init="user_matrix", matrix=X)
    )
    # the supplied matrix is already the maximizer, so restart 0 starts at 4
    assert result.restarts[0].first_objective == pytest.approx(4.0, abs=1e-9)
    assert result.best_objective == pytest.approx(4.0, abs=1e-9)
    assert [t.index for t in result.restarts] == [0, 1, 2]


@pytest.mark.parametrize("seed", [41524744, 2507731943])
def test_ascend_survives_lapack_non_convergence(seed):
    # a dense step-(b) matrix of these restarts makes LAPACK zheevd fail to
    # converge (zheevr solves it); at order 10 step (b) is a Ritz solve, and
    # the fallback test below runs the dense leg through zheevd
    result = ascend(SearchConfig(order=10, k=3, restarts=1, seed=seed))
    assert result.monotone_ok
    assert result.restarts[0].iterations >= 1
    assert result.best_objective <= result.proven_bound + 1e-8
    assert result.violation is None


def _without_zheevr(monkeypatch, run):
    """``run()`` with the subset solve falling back to the full solve's top
    columns, as on numpy builds that do not export ``zheevr``."""
    with monkeypatch.context() as patched:
        patched.setattr(eigensolver, "_zheevr", lambda: None)
        return run()


def _same_ascent(a, b):
    assert [t.iterations for t in a.restarts] == [t.iterations for t in b.restarts]
    assert abs(a.best_objective - b.best_objective) <= 1e-12
    assert a.monotone_ok and b.monotone_ok


@pytest.mark.parametrize("order, k, seed", [(3, 1, 0), (3, 2, 1), (6, 2, 2), (6, 3, 3), (10, 3, 4)])
def test_ascent_subset_solve_matches_its_fallback(order, k, seed, monkeypatch):
    config = SearchConfig(order=order, k=k, restarts=2, seed=seed)
    _same_ascent(ascend(config), _without_zheevr(monkeypatch, lambda: ascend(config)))


def test_lambda13_search_subset_solve_matches_its_fallback(monkeypatch):
    def run():
        return lambda13_search(SearchConfig(order=3, k=2, restarts=10, seed=4))

    _same_ascent(run(), _without_zheevr(monkeypatch, run))


@pytest.mark.parametrize("seed", [41524744, 2507731943])
def test_ascend_fallback_survives_lapack_non_convergence(seed, monkeypatch):
    # without zheevr, every dense solve takes numpy's full solve (zheevd).
    # A dense step (b) of these restarts makes zheevd fail to converge, and
    # the dense leg's solve is retried on the reversed matrix; the warm leg
    # makes no dense solve: its steps, the first included, are Rayleigh-Ritz
    # steps, and its certificate is the spectral core's values-only solve
    config = SearchConfig(order=10, k=3, restarts=1, seed=seed)
    for leg in (lambda run: run(), lambda run: _dense_leg(monkeypatch, run)):
        fallback = leg(lambda: _without_zheevr(monkeypatch, lambda: ascend(config)))
        assert fallback.violation is None
        _same_ascent(leg(lambda: ascend(config)), fallback)


def _dense_leg(monkeypatch, run):
    """``run()`` with the Ritz steps turned off: every step of the ascent
    is a dense solve of 2k (step (a)) or 1 (step (b)) pairs."""
    with monkeypatch.context() as patched:
        patched.setattr(search, "_warm_start_pays", lambda n, k: False)
        return run()


@pytest.mark.parametrize(
    "order, seeds",
    [
        (7, range(10)),
        (8, range(10, 20)),
        # the first ten seeds of bench/ascent_pool.json, and its two seeds
        # whose dense step (b) once failed to converge in zheevd
        (10, [2083679832, 369571992, 1009178997, 3466196061, 3335713882,
              1002604896, 924414274, 1750529956, 41524744, 2507731943]),
        (16, [0, 1]),
    ],
)
def test_warm_ascent_certifies_the_dense_objective(order, seeds, monkeypatch):
    # the maximizers of f_k form a continuum (unitary orbits and more), and
    # the Ritz steps take another path through it than the dense steps, so
    # best_matrix is compared through what it attains, not entry by entry
    for seed in seeds:
        config = SearchConfig(order=order, k=3, restarts=1, seed=seed)
        warm = ascend(config)
        dense = _dense_leg(monkeypatch, lambda: ascend(config))
        assert abs(warm.best_objective - dense.best_objective) <= 1e-13
        assert warm.monotone_ok and dense.monotone_ok
        assert warm.violation is None and dense.violation is None
        for result in (warm, dense):
            values = double_commutator_spectrum(result.best_matrix).values
            assert abs(values[:6].sum() - dense.best_objective) <= 1e-13


def _counting_lifts(monkeypatch, run):
    """``run()``, the number of ``lifted.family_lift`` calls it made (every
    lift the library builds: ``FamilyForm.lift`` and ``double_commutator_lift``
    look it up at call time), and the number of dense ``eigh`` solves
    (``eigensolver._top_pairs`` calls) it made."""
    lifts, solves = [], []

    def counting(calls, real):
        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        return counted

    with monkeypatch.context() as patched:
        patched.setattr(lifted, "family_lift", counting(lifts, lifted.family_lift))
        patched.setattr(eigensolver, "_top_pairs", counting(solves, eigensolver._top_pairs))
        result = run()
    return result, len(lifts), len(solves)


@pytest.mark.parametrize("order, k, restarts", [(6, 1, 1), (8, 2, 3), (10, 3, 2)])
def test_warm_ascent_builds_one_lift_per_restart(order, k, restarts, monkeypatch):
    # the certificate's: every step, the first included, is a Ritz step
    # that applies its form as commutators, so no dense eigh solve is made
    assert search._warm_start_pays(order, k)
    config = SearchConfig(order=order, k=k, restarts=restarts, seed=order)
    result, lifts, solves = _counting_lifts(monkeypatch, lambda: ascend(config))
    assert lifts == restarts
    assert solves == 0
    assert all(t.iterations > 1 for t in result.restarts)


def test_dense_ascent_builds_two_lifts_per_iteration(monkeypatch):
    # below the size rule every half-step is a dense solve of its lift
    assert not search._warm_start_pays(4, 2)
    config = SearchConfig(order=4, k=2, restarts=2, seed=4)
    result, lifts, solves = _counting_lifts(monkeypatch, lambda: ascend(config))
    assert lifts == solves == sum(1 + 2 * t.iterations for t in result.restarts)


# a real order-6 start: k = 1 puts its ascent on the Ritz side of the size rule
REAL6 = np.array(
    [
        [-3, 2, 0, -2, 3, 1],
        [0, -2, 3, 1, -1, -3],
        [3, 1, -1, -3, 2, 0],
        [-1, -3, 2, 0, -2, 3],
        [2, 0, -2, 3, 1, -1],
        [-2, 3, 1, -1, -3, 2],
    ],
    dtype=float,
)


def test_warm_ascent_from_a_real_start_stays_real():
    # order 6 with k = 1 takes Ritz steps; the first one's start block is
    # real for a real start, so every iterate, and best_matrix, is real
    config = SearchConfig(order=6, k=1, restarts=1, seed=1, init="user_matrix", matrix=REAL6)
    assert search._warm_start_pays(6, 1)
    result = ascend(config)
    assert not result.best_matrix.imag.any()
    assert result.monotone_ok and result.violation is None


@pytest.mark.parametrize("init", search.INIT_KINDS)
def test_warm_first_objective_is_a_lower_bound_on_f_k_of_the_start(init):
    # a warm restart's first objective is its first step-(a) Ritz sum: at
    # most f_k of its start, and at most where the monotone ascent ends
    matrix = REAL6 if init == "user_matrix" else None
    config = SearchConfig(order=6, k=1, restarts=1, seed=6, init=init, matrix=matrix)
    assert search._warm_start_pays(6, 1)
    trace = ascend(config).restarts[0]
    f_start = double_commutator_spectrum(search._draw_init(config, 0)).values[:2].sum()
    assert trace.first_objective <= f_start + 1e-12
    assert trace.first_objective <= trace.last_objective


def test_warm_ascent_certifies_through_the_spectral_core(monkeypatch):
    # a warm restart reports f_k of the core's spectrum of its last iterate,
    # bit for bit the top 2k eigenvalues of that matrix's lift, and held to
    # the core's positivity and trace-identity checks
    import dataclasses

    from commspectra import spectra

    assert search._warm_start_pays(8, 1)
    config = SearchConfig(order=8, k=1, restarts=1, seed=8)
    result = ascend(config)
    assert result.best_objective == eigensolver.eigvalsh(double_commutator_lift(result.best_matrix))[:2].sum()
    real = spectra.spectral_batch
    monkeypatch.setattr(
        spectra, "spectral_batch", lambda X: dataclasses.replace(real(X), trace_residual=np.float64(1.0))
    )
    with pytest.raises(InvariantViolationError, match="trace identity failed"):
        ascend(config)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("order, k", [(3, 2), (5, 3)])
def test_family_lift_depends_only_on_the_kept_span(order, k, real):
    # step (b) reads the projector onto the top-2k eigenvectors: mixing them
    # by any 2k x 2k unitary leaves its form unchanged
    rng = trial_rng(53, order)
    H = double_commutator_lift(unit_gaussian(rng, order, real=real))
    V = eigensolver.eigh(H, top=2 * k).vectors
    mixed = V @ haar_unitary(rng, 2 * k)

    def form(W):
        return family_lift([unvec(w, order) for w in W.T])

    assert np.abs(form(mixed) - form(V)).max() <= 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_ascent_is_blind_to_eigenvector_phases(seed, rotate_eigh_phases):
    # T_{cX} = T_X for |c| = 1 and step (b) reads only the kept span, so an
    # ascent whose eigenvectors carry random phases takes the same steps;
    # order 4 takes the dense solves, order 8 the warm-started ones
    configs = [SearchConfig(order=order, k=2, restarts=2, seed=seed) for order in (4, 8)]
    plain = [ascend(config) for config in configs]
    rotate_eigh_phases(trial_rng(54, seed))
    for config, want in zip(configs, plain):
        _same_ascent(want, ascend(config))


@pytest.mark.parametrize("seed", range(5))
def test_ascent_is_blind_to_the_triangle_eigh_reads(seed, monkeypatch):
    # the lift and step (b)'s family lift are Hermitian to a few ulps, so an
    # ascent whose dense solves read the upper triangle takes the same steps;
    # orders 4 and 5 take the dense solves, order 8 the warm-started ones,
    # which make none. A Ritz step reads no triangle: the matrix is
    # transposed where it reaches the kernel. Order-4 lifts come out exactly
    # Hermitian; order-5 lifts miss their adjoint by a few ulps
    configs = [SearchConfig(order=order, k=2, restarts=2, seed=seed) for order in (4, 5, 8)]
    plain = [ascend(config) for config in configs]
    top_pairs = eigensolver._top_pairs
    monkeypatch.setattr(eigensolver, "_top_pairs", lambda H, m: top_pairs(H.conj().T, m))
    for config, want in zip(configs, plain):
        _same_ascent(want, ascend(config))


def test_order_2_k_2_ascents_survive_lapack_short_bisections(run_python):
    # with k = 2 at order 2, step (b) keeps all four eigenvectors, and its
    # form has the top eigenvalue 4 three times up to rounding. On some steps
    # zheevr's bisection then finds no eigenvalue and writes one slot before
    # its integer workspace, which in a malloc'd workspace corrupts the heap
    # and can abort the process. A subprocess, so a crash fails only this test
    code = (
        "from commspectra import SearchConfig, lambda13_search\n"
        "for seed in range(16):\n"
        "    lambda13_search(SearchConfig(order=2, k=2, restarts=6, seed=seed, max_iters=50))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_validate_config_rejections():
    good = dict(order=2, k=1)
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(order=1, k=1))
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(order=65, k=1))  # above the lift limit
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(order=2, k=0))
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(order=2, k=3))  # k > n^2 / 2
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(**good, restarts=0))
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(**good, max_iters=0))
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(**good, init="simulated_annealing"))
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(**good, init="user_matrix"))
    with pytest.raises(PreconditionError):
        validate_config(
            SearchConfig(order=2, k=1, init="user_matrix", matrix=np.eye(3))
        )
    with pytest.raises(PreconditionError):
        validate_config(SearchConfig(**good, matrix=np.eye(2)))
    # a bool or a float is refused, not truncated or left to fail mid-run
    for field, value in [
        ("order", 3.0), ("order", True), ("k", 1.5), ("k", True),
        ("restarts", 2.0), ("restarts", True), ("max_iters", 10.5), ("max_iters", False),
        ("seed", 2.5), ("seed", 1.0), ("seed", True), ("seed", None),
    ]:
        with pytest.raises(PreconditionError, match=f"{field} must be an integer"):
            validate_config(SearchConfig(**{**good, field: value}))
    with pytest.raises(PreconditionError, match="seed must be nonnegative"):
        validate_config(SearchConfig(**good, seed=-1))
    validate_config(
        SearchConfig(
            order=np.int64(3), k=np.int32(2), restarts=np.int8(1), max_iters=np.uint16(5), seed=np.uint64(2**64 - 1)
        )
    )


def test_searches_refuse_a_bad_seed_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the seed")

    monkeypatch.setattr(ensembles, "trial_rng", no_draw)
    for seed, match in [(2.5, "must be an integer"), (True, "must be an integer"), (-1, "must be nonnegative")]:
        for run in (
            lambda: ascend(SearchConfig(order=2, k=1, seed=seed)),
            lambda: lambda13_search(SearchConfig(order=2, k=2, seed=seed)),
            lambda: sweep([2], trials=1, seed=seed),
        ):
            with pytest.raises(PreconditionError, match=match):
                run()


def test_lambda13_search_smallest_order_reduces_to_trace():
    # for n = 2 the k = 2 sum is the whole trace, maximal value 4, half 2
    result = lambda13_search(SearchConfig(order=2, k=2, restarts=6, seed=1, max_iters=50))
    assert result.objective == "lambda13"
    assert result.best_objective == pytest.approx(2.0, abs=1e-6)
    assert result.conjectured_bound == 3.0
    assert result.proven_bound == pytest.approx(LAMBDA13_BOUND)
    assert result.violation is None
    assert result.restarts[0].last_objective == pytest.approx(
        result.restarts[0].last_objective
    )
    with pytest.raises(PreconditionError):
        lambda13_search(SearchConfig(order=1, k=2))


def test_lambda13_search_takes_the_ascent_config():
    with pytest.raises(PreconditionError, match="k = 2"):
        lambda13_search(SearchConfig(order=3, k=1))
    with pytest.raises(PreconditionError, match="order 65"):
        lambda13_search(SearchConfig(order=65, k=2))


def test_lambda13_search_reports_the_ascent_violation(monkeypatch):
    import commspectra.search as search

    # a negative margin makes every run a C2A breach at the f_2 = 6 cap
    monkeypatch.setattr(search, "VIOLATION_MARGIN", -10.0)
    config = SearchConfig(order=3, k=2, restarts=2, seed=4, max_iters=20)
    violation = lambda13_search(config).violation
    assert violation is not None and violation["rhs"] == 6.0
    assert violation == ascend(config).violation


def test_lambda13_search_stays_under_proven_cap():
    result = lambda13_search(SearchConfig(order=3, k=2, restarts=10, seed=4, max_iters=80))
    assert result.best_objective <= LAMBDA13_BOUND + 1e-8
    assert result.best_objective <= 3.0 + 1e-6  # no conjecture breach observed


def test_sweep_row_structure_and_clean_run():
    report = sweep([2], k_rule="all", trials=6, seed=3)
    assert report["seed"] == 3
    assert report["trials_per_order"] == 6
    assert report["majorization_violations"] == []
    assert [row["k"] for row in report["rows"]] == [1, 2]
    for row in report["rows"]:
        assert row["n"] == 2 and row["trials"] == 6
        assert row["violations"] == []
        assert row["max_f"] <= row["bound_conjectured"] + 1e-8
        assert row["bound_proven"] <= 2.0 * row["n"] + 1e-12
        assert row["argmax_matrix"].shape == (2, 2)


@pytest.mark.parametrize("budget", [search.CHUNK_LIFT_ENTRIES, 3 * 3**4])
def test_sweep_rows_hold_their_argmax_unit_matrix(monkeypatch, budget):
    from commspectra import gaussian_matrix, normalized
    from commspectra.reporting import jsonable
    from commspectra.spectra import spectral_batch
    from commspectra.verdicts import matrix_payload

    # one chunk per order, and chunks of 3 at order 3 (a row keeps a copy,
    # not a view of the chunk it came from)
    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", budget)
    seed, trials = 2**64 - 1, 10
    rows = iter(sweep([2, 3], trials=trials, seed=seed)["rows"])
    for n in (2, 3):
        units = [
            normalized(gaussian_matrix(trial_rng(seed, n, t), n, real=bool(t % 2)))
            for t in range(trials)
        ]
        prefix = spectral_batch(np.stack(units)).partial_sums
        for k in range(1, n * n // 2 + 1):
            M = next(rows)["argmax_matrix"]
            assert isinstance(M, np.ndarray) and M.flags.owndata
            assert M.dtype == np.complex128 and M.shape == (n, n)
            assert M.tobytes() == units[int(np.argmax(prefix[:, 2 * k - 1]))].tobytes()
            assert jsonable(M) == matrix_payload(M)
    assert next(rows, None) is None


def test_sweep_bundles_hold_the_unit_matrices_it_judged():
    from commspectra import gaussian_matrix, trial_rng
    from commspectra.spectra import spectral_batch
    from commspectra.verdicts import matrix_payload

    report = sweep([2, 3], trials=10, seed=4, tol=-100.0)
    rows, c4 = iter(report["rows"]), iter(report["majorization_violations"])
    for n in (2, 3):
        draws = [gaussian_matrix(trial_rng(4, n, t), n, real=bool(t % 2)) for t in range(10)]
        batch = spectral_batch(np.stack(draws))
        units = [[matrix_payload(M)] for M in batch.matrix]
        prefix = np.cumsum(np.maximum(batch.values, 0.0), axis=-1)
        for k in range(1, n * n // 2 + 1):
            row = next(rows)
            assert [b["matrices"] for b in row["violations"]] == units
            assert [matrix_payload(row["argmax_matrix"])] == units[int(np.argmax(prefix[:, 2 * k - 1]))]
        assert [next(c4)["matrices"] for _ in range(10)] == units
    assert next(rows, None) is None and next(c4, None) is None


def test_sweep_k_rule_variants():
    assert [r["k"] for r in sweep([3], k_rule=2, trials=2, seed=0)["rows"]] == [2]
    report = sweep([2, 3], k_rule=1, trials=2, seed=0)
    assert [(r["n"], r["k"]) for r in report["rows"]] == [(2, 1), (3, 1)]
    with pytest.raises(PreconditionError):
        sweep([2], k_rule=5, trials=1)
    with pytest.raises(PreconditionError):
        sweep([1], trials=1)
    with pytest.raises(PreconditionError, match="sweep names no order"):
        sweep([], trials=1)
    # a bool or a float is refused before any draw, not truncated
    for kwargs in (
        dict(n_values=[3], k_rule=2.5),
        dict(n_values=[3], k_rule=2.0),
        dict(n_values=[3], k_rule=True),
        dict(n_values=[2.7]),
        dict(n_values=[True]),
        dict(n_values=[2], trials=2.5),
        dict(n_values=[2], trials=True),
    ):
        with pytest.raises(PreconditionError, match="must be an integer"):
            sweep(**{"trials": 1, **kwargs})
    # numpy integers are integers, and the report holds them as ints: the
    # bundles, which are written as they are, too
    from commspectra.matrixio import json_text
    from commspectra.reporting import jsonable

    report = sweep(np.array([3]), k_rule=np.int64(2), trials=np.int32(2), seed=np.uint64(0), tol=-100.0)
    want = sweep([3], k_rule=2, trials=2, seed=0, tol=-100.0)
    assert json_text(jsonable(report)) == json_text(jsonable(want))
    row = report["rows"][0]
    assert {type(v) for v in (report["seed"], report["trials_per_order"], row["n"], row["k"], row["trials"])} == {int}
    assert json_text(row["violations"] + report["majorization_violations"])


def test_sweep_rejects_zero_trials():
    # no draw would leave max_f at -inf, which JSON cannot carry
    with pytest.raises(PreconditionError, match="at least one trial"):
        sweep([2], trials=0)


def test_sweep_rejects_an_order_named_twice():
    # a repeated order would repeat its rows and their violation bundles
    with pytest.raises(PreconditionError, match="order twice"):
        sweep([2, 3, 2], trials=1)


def _sweep_json(*args, **kwargs) -> str:
    from commspectra.matrixio import json_text
    from commspectra.reporting import jsonable

    return json_text(jsonable(sweep(*args, **kwargs)))


def test_sweep_is_deterministic():
    assert _sweep_json([2], k_rule=1, trials=5, seed=11) == _sweep_json([2], k_rule=1, trials=5, seed=11)


def test_sweep_forced_violations_carry_reverifiable_bundles():
    report = sweep([2], k_rule=1, trials=2, seed=9, tol=-100.0)
    row = report["rows"][0]
    assert len(row["violations"]) == 2
    assert len(report["majorization_violations"]) == 2
    for bundle in row["violations"]:
        assert bundle["conjecture_id"] == "C2A"
        assert reverify_bundle(bundle).satisfied  # forced, not a real breach
    for bundle in report["majorization_violations"]:
        assert bundle["conjecture_id"] == "C4"
        assert reverify_bundle(bundle).satisfied


def _reference_sweep(n_values, k_rule, trials, seed, tol):
    """The per-matrix sweep loop the batched sweep replaced."""
    from commspectra import (
        bound_report,
        monitor_majorization,
        trial_rng,
        unit_gaussian,
    )
    from commspectra.verdicts import make_bundle, matrix_payload

    rows, c4 = [], []
    for n in n_values:
        ks = list(range(1, n * n // 2 + 1)) if k_rule == "all" else [k_rule]
        max_f = [-np.inf] * len(ks)
        argmax = [None] * len(ks)
        found = [[] for _ in ks]
        for t in range(trials):
            X = unit_gaussian(trial_rng(seed, n, t), n, real=bool(t % 2))
            spec = double_commutator_spectrum(X)
            assert bound_report(X, spectrum=spec).all_proven_hold
            prefix = spec.partial_sums
            for j, k in enumerate(ks):
                f = float(prefix[2 * k - 1])
                if f > max_f[j]:
                    max_f[j], argmax[j] = f, X
                if f > 2 * k + 2 + tol:
                    found[j].append(make_bundle("C2A", [X], f, float(2 * k + 2), 0.0, seed))
            verdict = monitor_majorization(X, spectrum=spec, tol=tol, seed=seed)
            if not verdict.satisfied:
                # the sweep's unit matrix is X itself, normalized once
                c4.append(make_bundle("C4", [X], verdict.lhs, verdict.rhs, 0.0, seed))
        rows += [
            (n, k, max_f[j], matrix_payload(argmax[j]), found[j]) for j, k in enumerate(ks)
        ]
    return rows, c4


def _same_bundles(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {**g, "lhs": 0, "rhs": 0} == {**w, "lhs": 0, "rhs": 0}
        assert g["lhs"] == pytest.approx(w["lhs"], rel=1e-12)
        assert g["rhs"] == w["rhs"]


@pytest.mark.parametrize(
    "n_values, k_rule, tol",
    [
        ([2, 3, 4, 5], "all", 1e-8),
        ([2, 3], "all", -100.0),  # every trial breaches both monitors
    ],
)
def test_sweep_matches_per_matrix_reference(n_values, k_rule, tol):
    from commspectra.reporting import jsonable

    report = sweep(n_values, k_rule=k_rule, trials=7, seed=5, tol=tol)
    rows, c4 = _reference_sweep(n_values, k_rule, trials=7, seed=5, tol=tol)
    assert [(r["n"], r["k"]) for r in report["rows"]] == [row[:2] for row in rows]
    for got, (_, _, max_f, payload, found) in zip(report["rows"], rows):
        assert got["max_f"] == pytest.approx(max_f, rel=1e-12)
        assert jsonable(got["argmax_matrix"]) == payload
        _same_bundles(got["violations"], found)
    _same_bundles(report["majorization_violations"], c4)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_sweep_does_not_depend_on_chunks(monkeypatch, per_chunk):
    import commspectra.search as search

    whole = _sweep_json([2, 3], trials=10, seed=8, tol=-100.0)
    # per_chunk trials a chunk at order 3; at order 2 the budget of 3 entries
    # gives chunks of one and the budget of 3 * 3^4 one chunk of all ten
    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", 3 if per_chunk == 1 else 3 * 3**4)
    assert search._chunk_size(3) == per_chunk
    assert _sweep_json([2, 3], trials=10, seed=8, tol=-100.0) == whole



@pytest.mark.parametrize("orders", [[6, 65], [6, 1], [6, 2, 3, 1]])
def test_sweep_checks_every_order_before_its_first_draw(monkeypatch, orders):
    import commspectra.search as search

    def no_draw(X):
        raise AssertionError("sweep drew before refusing")

    monkeypatch.setattr(search, "spectral_batch", no_draw)
    with pytest.raises(PreconditionError, match="order 65|order >= 2"):
        sweep(orders, trials=1000)
    with pytest.raises(PreconditionError, match="out of range for order 2"):
        sweep([6, 2], k_rule=3, trials=1000)


def test_sweep_raises_for_the_lowest_failing_trial(monkeypatch):
    import dataclasses

    import commspectra.search as search

    real_spectra, real_ladder = search.spectral_batch, search.ladder_batch

    def second_chunk(real, edit):
        calls = []

        def run(*args):
            calls.append(None)
            out = real(*args)
            return edit(out) if len(calls) == 2 else out

        return run

    def ladder_fails_from(i):
        def edit(ladder):
            flags = ladder.all_proven_hold.copy()
            flags[i:] = False
            return dataclasses.replace(ladder, all_proven_hold=flags)

        return second_chunk(real_ladder, edit)

    def spectra_fails_at(i):
        def edit(batch):
            residual = batch.trace_residual.copy()
            residual[i] = 1.0
            return dataclasses.replace(batch, trace_residual=residual)

        return second_chunk(real_spectra, edit)

    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", 3 * 2**4)  # 3 trials a chunk
    # trials 3, 4, 5 form the second chunk
    monkeypatch.setattr(search, "ladder_batch", ladder_fails_from(1))
    with pytest.raises(InvariantViolationError, match=r"\(order 2, trial 4\)"):
        sweep([2], trials=10, seed=0)
    monkeypatch.setattr(search, "ladder_batch", ladder_fails_from(1))
    monkeypatch.setattr(search, "spectral_batch", spectra_fails_at(2))
    with pytest.raises(InvariantViolationError, match=r"\(order 2, trial 4\)"):
        sweep([2], trials=10, seed=0)
    # a broken invariant of the same trial comes first, as in a per-trial loop
    monkeypatch.setattr(search, "ladder_batch", ladder_fails_from(1))
    monkeypatch.setattr(search, "spectral_batch", spectra_fails_at(1))
    with pytest.raises(InvariantViolationError, match=r"trace identity failed: .* \(order 2, trial 4\)"):
        sweep([2], trials=10, seed=0)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_ascent_quadratic_form_matches_commutator_lift_sum(n):
    from commspectra import double_commutator_lift, trial_rng, unit_gaussian, unvec
    from commspectra.eigensolver import eigh
    from conftest import commutator_lift

    k2 = 6
    X = unit_gaussian(trial_rng(40, n), n)
    vectors = eigh(double_commutator_lift(X)).vectors[:, :k2]
    old = np.zeros((n * n, n * n), dtype=complex)
    for j in range(k2):
        L = commutator_lift(unvec(vectors[:, j], n))
        old += L.conj().T @ L
    assert np.abs(family_lift([unvec(v, n) for v in vectors.T]) - old).max() <= 1e-12
