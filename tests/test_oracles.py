"""Exact structure of T_X as oracles for the dense spectrum.

Two facts that hold at every order and need no second eigensolver:

- at order 2, for unit X^ the spectrum is {2 - |Tr X^|^2, 2 - |Tr X^|^2, 0, 0}:
  I and X^ lie in the kernel, the pairing makes the other two eigenvalues
  equal, and the trace identity gives their sum;
- the commutant of X contains span{I, X, ..., X^(n-1)}, so T_X vec(X^j) = 0
  and the n smallest eigenvalues are 0.

Both are checked to ORACLE_TOL on unit matrices; measured errors are about
3e-15 for the order-2 form and 1e-16 for the kernel.
"""
import numpy as np
import pytest

from commspectra import (
    double_commutator_spectrum,
    gaussian_matrix,
    trial_rng,
)
from conftest import apply_double_commutator

ORACLE_TOL = 1e-12


def _order_2_draws():
    """Real, complex and near-scalar order-2 matrices."""
    for i in range(50):
        rng = trial_rng(120, i)
        yield gaussian_matrix(rng, 2, real=True)
        yield gaussian_matrix(rng, 2)
        for shift in (1.0, 1 + 2j):
            yield shift * np.eye(2) + 10.0 ** -rng.integers(1, 3) * gaussian_matrix(rng, 2)


def _check_order_2(X):
    spec = double_commutator_spectrum(X)
    top = 2.0 - abs(np.trace(spec.matrix)) ** 2
    np.testing.assert_allclose(spec.values, [top, top, 0.0, 0.0], rtol=0, atol=ORACLE_TOL)


def test_order_2_closed_form():
    for X in _order_2_draws():
        _check_order_2(X)


def _near_scalar(rng, n, real, scale):
    """s I + scale G: s = 1 with a real G, s = 1 + 2i with a complex one. The
    lift of its unit matrix is a sum of cancelling O(1) terms, so the lift's
    rounding is large against the lift's own norm."""
    shift = 1.0 if real else 1 + 2j
    return shift * np.eye(n) + scale * gaussian_matrix(rng, n, real=real)


@pytest.mark.parametrize("scale", [1e-3, 1e-4, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("real", [True, False])
def test_order_2_closed_form_closer_to_scalar(real, scale):
    for i in range(100):
        _check_order_2(_near_scalar(trial_rng(77, i), 2, real, scale))


def _check_kernel(X):
    n = X.shape[0]
    spec = double_commutator_spectrum(X)
    Xh = spec.matrix
    power = np.eye(n, dtype=Xh.dtype)
    for _ in range(n):
        residual = np.linalg.norm(apply_double_commutator(Xh, power)) / np.linalg.norm(power)
        assert residual <= ORACLE_TOL
        power = power @ Xh
    assert np.all(np.abs(spec.values[-n:]) <= ORACLE_TOL)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("real", [True, False])
def test_powers_of_x_span_the_kernel(n, real):
    rng = trial_rng(121, n)
    _check_kernel(gaussian_matrix(rng, n, real=real))
    _check_kernel(_near_scalar(rng, n, real, 1e-6))
