"""Shared test helpers: run Python (the CLI, the demos) of this checkout in a
subprocess, real test matrices of several classes, and random isotropic
families."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commspectra import commutator, unvec, vec

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*argv, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a subprocess that imports this checkout.

    The child's PYTHONPATH starts with the absolute path of this checkout's
    ``src`` (existing entries are kept after it), so it imports the working
    tree's ``commspectra`` from any ``cwd``, ahead of any installed copy.
    The child runs with ``-W error``, as pytest runs the tests in-process.
    """
    env = dict(os.environ)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    return subprocess.run(
        [sys.executable, "-W", "error", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def run_python():
    """``run_python(*argv, cwd=None)`` runs ``python *argv`` on this checkout."""
    return _run_python


@pytest.fixture
def run_cli():
    """``run_cli(*argv, cwd=None)`` runs ``python -m commspectra`` in a subprocess."""

    def run(*argv, cwd=None) -> subprocess.CompletedProcess:
        return _run_python("-m", "commspectra", *argv, cwd=cwd)

    return run


def _real_matrices(n: int) -> dict:
    """float64 order-n matrices: Gaussian, normal, rank-one and E12."""
    rng = np.random.default_rng([31, n])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    D = np.diag(rng.standard_normal(n))
    a, b = rng.standard_normal(2)
    D[:2, :2] = [[a, -b], [b, a]]  # a rotation block: normal, not symmetric
    E12 = np.zeros((n, n))
    E12[0, 1] = 1.0
    return {
        "gaussian": rng.standard_normal((n, n)),
        "normal": Q @ D @ Q.T,
        "rank_one": np.outer(rng.standard_normal(n), rng.standard_normal(n)),
        "E12": E12,
    }


@pytest.fixture
def real_matrices():
    """``real_matrices(n)`` maps a class name to a float64 order-n matrix."""
    return _real_matrices


def _isotropic_family(X, m: int, rng) -> list:
    """Random orthonormal family {w_i} of size m with <[X, w_i]*, w_j> = 0.

    Each member is a complex Gaussian draw projected off the span of the
    earlier members and their images [X, w]*; m <= n^2 / 2 leaves room.
    """
    n = X.shape[0]
    basis = []  # orthonormal, column-major vec coordinates
    out = []

    def project(v):
        for q in basis:
            v = v - q * np.vdot(q, v)
        return v

    while len(out) < m:
        v = project(vec(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        w = unvec(v / np.linalg.norm(v), n)
        out.append(w)
        for u in (vec(w), vec(commutator(X, w).conj().T)):
            u = project(u)
            if np.linalg.norm(u) > 1e-12:
                basis.append(u / np.linalg.norm(u))
    return out


@pytest.fixture
def isotropic_family():
    """``isotropic_family(X, m, rng)`` draws a random isotropic family for T_X."""
    return _isotropic_family
