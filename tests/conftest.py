"""Shared test helpers: run Python (the CLI, the demos) of this checkout in a
subprocess, and real test matrices of several classes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*argv, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a subprocess that imports this checkout.

    The child's PYTHONPATH starts with the absolute path of this checkout's
    ``src`` (existing entries are kept after it), so it imports the working
    tree's ``commspectra`` from any ``cwd``, ahead of any installed copy.
    """
    env = dict(os.environ)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    return subprocess.run(
        [sys.executable, *map(str, argv)],
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
