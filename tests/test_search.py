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
    validate_config,
)
from commspectra import eigensolver, ensembles
from commspectra.search import _family_form
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
    # a step-(b) matrix of these restarts makes LAPACK zheevd fail to
    # converge (zheevr solves it); the fallback test below covers the retry
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
    # without zheevr, step (b) takes the full zheevd solve that fails on
    # these restarts and is retried on the reversed matrix
    config = SearchConfig(order=10, k=3, restarts=1, seed=seed)
    fallback = _without_zheevr(monkeypatch, lambda: ascend(config))
    assert fallback.violation is None
    _same_ascent(ascend(config), fallback)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("order, k", [(3, 2), (5, 3)])
def test_family_form_depends_only_on_the_kept_span(order, k, real):
    # step (b) reads the projector onto the top-2k eigenvectors: mixing them
    # by any 2k x 2k unitary leaves its form unchanged
    rng = trial_rng(53, order)
    H = double_commutator_lift(unit_gaussian(rng, order, real=real))
    V = eigensolver.eigh(H, top=2 * k).vectors
    mixed = V @ haar_unitary(rng, 2 * k)
    assert np.abs(_family_form(mixed, order) - _family_form(V, order)).max() <= 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_ascent_is_blind_to_eigenvector_phases(seed, rotate_eigh_phases):
    # T_{cX} = T_X for |c| = 1 and step (b) reads only the kept span, so an
    # ascent whose eigenvectors carry random phases takes the same steps
    config = SearchConfig(order=4, k=2, restarts=2, seed=seed)
    plain = ascend(config)
    rotate_eigh_phases(trial_rng(54, seed))
    _same_ascent(plain, ascend(config))


@pytest.mark.parametrize("seed", range(5))
def test_ascent_is_blind_to_the_triangle_eigh_reads(seed, monkeypatch):
    # the lift and the family form are Hermitian to about an ulp, so an
    # ascent whose eigh reads the upper triangle takes the same steps
    config = SearchConfig(order=4, k=2, restarts=2, seed=seed)
    plain = ascend(config)
    eigh = eigensolver.eigh
    monkeypatch.setattr(eigensolver, "eigh", lambda M, top=None: eigh(M.conj().T, top=top))
    _same_ascent(plain, ascend(config))


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
        assert set(row["argmax_matrix"]) == {"re", "im"}


def test_sweep_bundles_hold_the_unit_matrices_it_judged():
    from commspectra import gaussian_matrix, trial_rng
    from commspectra.spectra import spectral_batch
    from commspectra.verdicts import matrix_payload

    report = sweep([2, 3], trials=10, seed=4, tol=-100.0)
    rows, c4 = iter(report["rows"]), iter(report["majorization_violations"])
    for n in (2, 3):
        draws = [gaussian_matrix(trial_rng(4, n, t), n, real=bool(t % 2)) for t in range(10)]
        batch = spectral_batch(np.stack(draws))
        units = [[matrix_payload(M)] for M in batch.matrices]
        prefix = np.cumsum(np.maximum(batch.values, 0.0), axis=-1)
        for k in range(1, n * n // 2 + 1):
            row = next(rows)
            assert [b["matrices"] for b in row["violations"]] == units
            assert [row["argmax_matrix"]] == units[int(np.argmax(prefix[:, 2 * k - 1]))]
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
    # numpy integers are integers
    report = sweep(np.array([3]), k_rule=np.int64(2), trials=np.int32(2), seed=0)
    assert report == sweep([3], k_rule=2, trials=2, seed=0)


def test_sweep_rejects_zero_trials():
    # no draw would leave max_f at -inf, which JSON cannot carry
    with pytest.raises(PreconditionError, match="at least one trial"):
        sweep([2], trials=0)


def test_sweep_rejects_an_order_named_twice():
    # a repeated order would repeat its rows and their violation bundles
    with pytest.raises(PreconditionError, match="order twice"):
        sweep([2, 3, 2], trials=1)


def test_sweep_is_deterministic():
    a = sweep([2], k_rule=1, trials=5, seed=11)
    b = sweep([2], k_rule=1, trials=5, seed=11)
    assert a == b


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
        partial_sums,
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
            prefix = partial_sums(spec)
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
    report = sweep(n_values, k_rule=k_rule, trials=7, seed=5, tol=tol)
    rows, c4 = _reference_sweep(n_values, k_rule, trials=7, seed=5, tol=tol)
    assert [(r["n"], r["k"]) for r in report["rows"]] == [row[:2] for row in rows]
    for got, (_, _, max_f, payload, found) in zip(report["rows"], rows):
        assert got["max_f"] == pytest.approx(max_f, rel=1e-12)
        assert got["argmax_matrix"] == payload
        _same_bundles(got["violations"], found)
    _same_bundles(report["majorization_violations"], c4)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_sweep_does_not_depend_on_chunks(monkeypatch, per_chunk):
    import commspectra.search as search

    whole = sweep([2, 3], trials=10, seed=8, tol=-100.0)
    # per_chunk trials a chunk at order 3; at order 2 the budget of 3 entries
    # gives chunks of one and the budget of 3 * 3^4 one chunk of all ten
    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", 3 if per_chunk == 1 else 3 * 3**4)
    assert search._chunk_size(3) == per_chunk
    assert sweep([2, 3], trials=10, seed=8, tol=-100.0) == whole



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
            bw = ladder.slacks["bw"].copy()
            bw[i:] = -1.0
            return dataclasses.replace(ladder, slacks={**ladder.slacks, "bw": bw})

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
    import commspectra.search as search
    from commspectra import commutator_lift, double_commutator_lift, trial_rng, unit_gaussian, unvec
    from commspectra.eigensolver import eigh

    k2 = 6
    X = unit_gaussian(trial_rng(40, n), n)
    vectors = eigh(double_commutator_lift(X)).vectors[:, :k2]
    old = np.zeros((n * n, n * n), dtype=complex)
    for j in range(k2):
        L = commutator_lift(unvec(vectors[:, j], n))
        old += L.conj().T @ L
    assert np.abs(search._family_form(vectors, n) - old).max() <= 1e-12
