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
    PreconditionError,
    apply_double_commutator,
    double_commutator_spectrum,
    gaussian_matrix,
    trial_rng,
)

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


@pytest.mark.xfail(raises=PreconditionError, strict=True)
def test_order_2_closed_form_closer_to_scalar():
    # Known defect: the lift of a unit matrix this close to scalar is a sum of
    # cancelling terms, and the eigensolver's relative Hermiticity check
    # (1e-10 of ||lift||, about 3e-12 here) refuses its rounding (5e-17).
    _check_order_2((1 + 2j) * np.eye(2) + 1e-6 * gaussian_matrix(trial_rng(1, 0), 2))


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("real", [True, False])
def test_powers_of_x_span_the_kernel(n, real):
    spec = double_commutator_spectrum(gaussian_matrix(trial_rng(121, n), n, real=real))
    Xh = spec.matrix
    power = np.eye(n, dtype=Xh.dtype)
    for _ in range(n):
        residual = np.linalg.norm(apply_double_commutator(Xh, power)) / np.linalg.norm(power)
        assert residual <= ORACLE_TOL
        power = power @ Xh
    assert np.all(np.abs(spec.values[-n:]) <= ORACLE_TOL)
