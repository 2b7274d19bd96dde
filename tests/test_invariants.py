"""The proven invariants are decided by ``verdicts.holds`` at two named
tolerances and raised by ``verdicts.require``: at every site an excess of
0.99 tol passes and 1.01 tol raises.

The tolerances are written out here, not imported, so that moving one fails
these tests."""
import dataclasses

import numpy as np
import pytest

import commspectra.search as search
import commspectra.spectra as spectra
from commspectra import (
    LAMBDA13_BOUND,
    InvariantViolationError,
    SearchConfig,
    ascend,
    double_commutator_spectrum,
    lambda13_search,
    sweep,
    trial_rng,
    unit_gaussian,
)
from commspectra import eigensolver
from commspectra.verdicts import holds, require

IDENTITY_TOL = 1e-9  # positivity and the trace identity
PROVEN_TOL = 1e-8  # the ladder, the ascent caps and the lambda_1 + lambda_3 cap
FACTORS = [0.99, 1.01]


def _raises(run) -> bool:
    try:
        run()
    except InvariantViolationError:
        return True
    return False


def test_require_is_holds_or_raise():
    require(holds(1.0, 1.0, 0.0), "never raised")
    require(holds(1.0 + 0.5e-9, 1.0, IDENTITY_TOL), "never raised")
    with pytest.raises(InvariantViolationError, match="^the message$"):
        require(holds(1.0 + 2e-8, 1.0, PROVEN_TOL), "the message")
    assert holds(IDENTITY_TOL, 0.0, IDENTITY_TOL)


def _shifted_eigvalsh(monkeypatch, top, low):
    """eigvalsh with ``top`` added to each largest and ``low`` to each
    smallest eigenvalue (both rows descending)."""
    real = eigensolver.eigvalsh

    def shifted(M):
        values = real(M).copy()
        values[..., 0] += top
        values[..., -1] += low
        return values

    monkeypatch.setattr(eigensolver, "eigvalsh", shifted)


@pytest.mark.parametrize("factor", FACTORS)
def test_positivity_boundary(monkeypatch, factor):
    X = unit_gaussian(trial_rng(60, 0), 3)
    d = factor * IDENTITY_TOL
    # the smallest eigenvalue of T_X is 0 (X commutes with itself); moving d
    # from it to the top keeps the trace identity
    _shifted_eigvalsh(monkeypatch, d, -d)
    raised = _raises(lambda: double_commutator_spectrum(X))
    assert raised == (factor > 1)
    if raised:
        with pytest.raises(InvariantViolationError, match="^lifted operator lost positivity"):
            double_commutator_spectrum(X)


@pytest.mark.parametrize("factor", FACTORS)
def test_trace_identity_boundary(monkeypatch, factor):
    X = unit_gaussian(trial_rng(60, 1), 3)
    _shifted_eigvalsh(monkeypatch, factor * IDENTITY_TOL, 0.0)
    raised = _raises(lambda: double_commutator_spectrum(X))
    assert raised == (factor > 1)
    if raised:
        with pytest.raises(InvariantViolationError, match="^trace identity failed"):
            double_commutator_spectrum(X)


@pytest.mark.parametrize("factor", FACTORS)
def test_sweep_identity_boundary(monkeypatch, factor):
    real = search.spectral_batch

    def off(X):
        batch = real(X)
        residual = batch.trace_residual.copy()
        residual[0] = factor * IDENTITY_TOL
        return dataclasses.replace(batch, trace_residual=residual)

    monkeypatch.setattr(search, "spectral_batch", off)
    assert _raises(lambda: sweep([2], trials=2, seed=0)) == (factor > 1)


@pytest.mark.parametrize("factor", FACTORS)
def test_ladder_boundary(factor):
    # E12 attains lambda_1 = 2, so raising lambda_1 by d leaves the ladder
    # a smallest slack of -d
    X = np.zeros((3, 3))
    X[0, 1] = 1.0
    spec = double_commutator_spectrum(X)
    values = spec.values.copy()
    values[0] += factor * PROVEN_TOL
    br = spectra.bound_report(X, spectrum=dataclasses.replace(spec, values=values))
    assert min(br.slacks.values()) == pytest.approx(-factor * PROVEN_TOL, abs=1e-12)
    assert br.all_proven_hold == (factor < 1)


@pytest.mark.parametrize("factor", FACTORS)
def test_sweep_ladder_boundary(monkeypatch, factor):
    # every draw becomes E12, which attains lambda_1 = 2, so raising lambda_1
    # by d leaves the ladder a smallest slack of -d
    real = search.spectral_batch

    def raised_e12(X):
        E = np.zeros_like(X)
        E[:, 0, 1] = 1.0
        batch = real(E)
        values = batch.values.copy()
        values[:, 0] += factor * PROVEN_TOL
        return dataclasses.replace(batch, values=values)

    monkeypatch.setattr(search, "spectral_batch", raised_e12)
    raised = _raises(lambda: sweep([2], trials=2, seed=0))
    assert raised == (factor > 1)


def _ascent_top_values(monkeypatch, values):
    """eigh whose step-(a) eigenvalues are ``values``: every solve for
    len(values) pairs, which is 2k at a dense order and the 2k + 2 of the
    cold and the Rayleigh-Ritz solves at a warm-started one."""
    real = eigensolver.eigh

    def forced(M, top=None, start=None):
        dec = real(M, top=top, start=start)
        if top != len(values):
            return dec
        return dataclasses.replace(dec, values=np.asarray(values, dtype=np.float64))

    monkeypatch.setattr(eigensolver, "eigh", forced)


def _cap_boundary(monkeypatch, cases, factor, message):
    """Each ``(config, values)`` ascent raises ``message`` exactly when
    ``factor`` > 1."""
    for config, values in cases:
        with monkeypatch.context() as patched:
            _ascent_top_values(patched, values)
            raised = _raises(lambda: ascend(config))
            assert raised == (factor > 1)
            if raised:
                with pytest.raises(InvariantViolationError, match=message):
                    ascend(config)


@pytest.mark.parametrize("factor", FACTORS)
def test_ascent_top_eigenvalue_cap_boundary(monkeypatch, factor):
    # order 3 solves densely; order 8 at k = 1 takes Ritz steps
    assert not search._warm_start_pays(3, 1) and search._warm_start_pays(8, 1)
    top = 2.0 + factor * PROVEN_TOL
    cases = [
        (SearchConfig(order=3, k=1, restarts=1, max_iters=1, seed=0), [top, 1.0]),
        (SearchConfig(order=8, k=1, restarts=1, max_iters=1, seed=0), [top, 1.0, 1.0, 1.0]),
    ]
    _cap_boundary(monkeypatch, cases, factor, "^iterate broke the proven top-eigenvalue cap")


@pytest.mark.parametrize("factor", FACTORS)
def test_ascent_partial_sum_cap_boundary(monkeypatch, factor):
    # order 2, k = 2: the proven cap is min(5 + 2 sqrt(2), 4) = 4; order 8,
    # k = 2 (Ritz steps): min(5 + 2 sqrt(2), 16), and the two values past
    # the 2k must not enter the sum
    assert search._warm_start_pays(8, 2)
    over = 5 + 2 * np.sqrt(2) - 6 + factor * PROVEN_TOL
    cases = [
        (SearchConfig(order=2, k=2, restarts=1, max_iters=1, seed=0), [2.0, 2.0, factor * PROVEN_TOL, 0.0]),
        (SearchConfig(order=8, k=2, restarts=1, max_iters=1, seed=0), [2.0, 2.0, 2.0, over, 1.0, 1.0]),
    ]
    _cap_boundary(monkeypatch, cases, factor, "^iterate broke the proven partial-sum cap")


@pytest.mark.parametrize("factor", FACTORS)
def test_lambda13_cap_boundary(monkeypatch, factor):
    config = SearchConfig(order=4, k=2, restarts=1, max_iters=1, seed=0)
    base = ascend(config)
    forced = dataclasses.replace(
        base, best_objective=2.0 * (LAMBDA13_BOUND + factor * PROVEN_TOL)
    )
    monkeypatch.setattr(search, "ascend", lambda config: forced)
    raised = _raises(lambda: lambda13_search(config))
    assert raised == (factor > 1)
    if raised:
        with pytest.raises(InvariantViolationError, match=r"^lambda_1 \+ lambda_3 = "):
            lambda13_search(config)
