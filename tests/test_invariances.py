"""Exact invariances of T_X as oracles at any order.

For Y -> [X*, [X, Y]] and any unitary U and complex c:

* ``U X U*``: T is conjugated by ``conj(U) kron U``;
* ``X^T``: T_{X^T}(Y^T) = (T_X Y)^T;
* ``X*``: T_{X*} = L_X L_X*, with the spectrum of L_X* L_X;
* ``conj(X)``: T is conjugated entrywise;
* ``X + cI``: T does not change;
* ``cX``: T scales by |c|^2.

So each transform leaves the spectrum unchanged (``X + cI`` in raw units,
``values * norm_scale``; the others after unit normalization, with ``cX``
recording |c|^2 in ``norm_scale``). The computed spectra differ only by
rounding: a backward-stable solve of an order-N Hermitian matrix perturbs
it by about sqrt(N) eps ||T|| = n eps lambda_1, and every difference is
checked against 8 n eps lambda_1 (measured at most 2.1 n eps lambda_1 over
20 draws at order 5 and 4 at order 20); the relative error of |c|^2 in
``norm_scale`` against 8 n eps.
"""
import numpy as np
import pytest

from commspectra import double_commutator_spectrum, gaussian_matrix, haar_unitary, trial_rng

EPS = np.finfo(np.float64).eps
SHIFT = 0.7 - 1.3j
SCALE = 3.0 - 4.0j


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (5, 2), (20, 0)])
def test_transforms_keep_the_spectrum(n, seed):
    rng = trial_rng(7100 + n, seed)
    X = gaussian_matrix(rng, n)
    U = haar_unitary(rng, n)
    base = double_commutator_spectrum(X)
    bound = 8.0 * n * EPS * float(base.values[0])
    transformed = {
        "unitary": U @ X @ U.conj().T,
        "transpose": X.T,
        "adjoint": X.conj().T,
        "conjugate": X.conj(),
        "scaled": SCALE * X,
    }
    spectra = {name: double_commutator_spectrum(Y) for name, Y in transformed.items()}
    for name, spec in spectra.items():
        assert np.abs(spec.values - base.values).max() <= bound, name
    scale = spectra["scaled"].norm_scale / (abs(SCALE) ** 2 * base.norm_scale)
    assert abs(scale - 1.0) <= 8.0 * n * EPS
    shifted = double_commutator_spectrum(X + SHIFT * np.eye(n))
    raw = shifted.values * (shifted.norm_scale / base.norm_scale)
    assert np.abs(raw - base.values).max() <= bound
