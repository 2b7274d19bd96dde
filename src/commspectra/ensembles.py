"""Seeded random matrix ensembles.

Every draw takes an explicit ``numpy.random.Generator``. Reproducible
per-trial streams come from :func:`trial_rng`, which splits a root seed by
trial index (counter-mode), so results do not depend on evaluation order.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError


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
    G = gaussian_matrix(rng, n, real=real)
    nrm = np.linalg.norm(G)
    if nrm == 0.0:  # pragma: no cover - probability zero
        raise DegenerateInputError("degenerate Gaussian draw")
    return G / nrm


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
    X = (U * d) @ U.conj().T
    return X / np.linalg.norm(X)


def random_rank_one(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm rank-one matrix u v*."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X = np.outer(u, v.conj())
    return X / np.linalg.norm(X)


def random_traceless_embedded(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm X = U diag(X0, 0) U* with a traceless 2x2 block X0.

    These are exactly the order-n matrices whose double-commutator operator
    attains the extremal eigenvalue 2.
    """
    if n < 2:
        raise DegenerateInputError("need n >= 2 for an embedded 2x2 block")
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X0 = G - (np.trace(G) / 2) * np.eye(2)
    nrm = np.linalg.norm(X0)
    if nrm == 0.0:  # pragma: no cover - probability zero
        raise DegenerateInputError("degenerate traceless draw")
    X0 = X0 / nrm
    U = haar_unitary(rng, n)
    return U[:, :2] @ X0 @ U[:, :2].conj().T
