"""Seeded random matrix ensembles.

Every draw takes an explicit ``numpy.random.Generator``. Reproducible
per-trial streams come from :func:`trial_rng`, which splits a root seed by
trial index (counter-mode), so results do not depend on evaluation order.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .matrices import normalized


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for a trial index (or index tuple) under a root
    ``seed``; counter-mode splitting, so streams are order-independent."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(indices)))


def gaussian_matrix(rng: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    """Unnormalized Ginibre draw, complex by default."""
    G = rng.standard_normal((n, n))
    if not real:
        G = G + 1j * rng.standard_normal((n, n))
    return np.asarray(G, dtype=np.complex128)


def unit_gaussian(rng: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    """Gaussian draw scaled to unit Frobenius norm."""
    return normalized(gaussian_matrix(rng, n, real=real))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    Q, R = np.linalg.qr(gaussian_matrix(rng, n))
    d = np.diagonal(R).copy()
    d = d / np.abs(d)
    return Q * d.conj()


def random_normal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm normal matrix U diag(d) U* with complex Gaussian d."""
    U = haar_unitary(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalized((U * d) @ U.conj().T)


def random_rank_one(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm rank-one matrix u v*."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalized(np.outer(u, v.conj()))


def random_traceless_embedded(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm X = U diag(X0, 0) U* with a traceless 2x2 block X0.

    These are exactly the order-n matrices whose double-commutator operator
    attains the extremal eigenvalue 2.
    """
    if n < 2:
        raise DegenerateInputError("need n >= 2 for an embedded 2x2 block")
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X0 = normalized(G - (np.trace(G) / 2) * np.eye(2))
    U = haar_unitary(rng, n)
    return U[:, :2] @ X0 @ U[:, :2].conj().T
