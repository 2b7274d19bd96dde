"""Shared test helpers: the report schema and content check, run Python
(the CLI, the demos) of this checkout in a subprocess, real test matrices
of several classes, random isotropic families, and random eigenvector
phases.

It also holds the oracles that state identities the library does not need:
the Frobenius inner product :func:`frobenius_inner`, the matrix-free
:func:`apply_double_commutator` (T_X Y = [X*, [X, Y]]), the canonical
BW-equality pair :func:`make_maximal_pair` and the equality-case draw
:func:`random_traceless_embedded` (X with lambda_1(T_X) = 2)."""
import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from commspectra import commutator, eigensolver, haar_unitary, normalized, reporting, unvec, vec
from commspectra.matrices import as_matrix, same_order

SRC = Path(__file__).resolve().parent.parent / "src"
REPORT_SCHEMA = json.loads(resources.files("commspectra").joinpath("report_schema.json").read_text())


def frobenius_inner(A, B) -> complex:
    """Frobenius inner product <A, B> = Tr(A B*), linear in A, conjugate-linear in B."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    same_order(A, B)
    return complex(np.vdot(B, A))


def apply_double_commutator(X, Y) -> np.ndarray:
    """T_X Y = [X*, [X, Y]], matrix-free.

    T_X is linear, self-adjoint and positive semidefinite for the Frobenius
    inner product: <T_X Y, Y> = ||[X, Y]||_F^2.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    same_order(X, Y)
    inner = X @ Y - Y @ X
    Xs = X.conj().T
    return Xs @ inner - inner @ Xs


def make_maximal_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order-n unit pair with ||[X, Y]||^2 = 2 ||X||^2 ||Y||^2 (n >= 2).

    The top-left 2x2 blocks are (E12 - E21)/sqrt(2) and (E11 - E22)/sqrt(2).
    """
    X = np.zeros((n, n), dtype=np.complex128)
    Y = np.zeros((n, n), dtype=np.complex128)
    r = 1.0 / np.sqrt(2.0)
    X[0, 1], X[1, 0] = r, -r
    Y[0, 0], Y[1, 1] = r, -r
    return X, Y


def random_traceless_embedded(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm X = U diag(X0, 0) U* with a traceless 2x2 block X0 and Haar
    U (n >= 2): exactly the order-n matrices with lambda_1(T_X) = 2."""
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X0 = normalized(G - (np.trace(G) / 2) * np.eye(2))
    U = haar_unitary(rng, n)
    return U[:, :2] @ X0 @ U[:, :2].conj().T


def report_validator(schema: dict):
    """A stock jsonschema validator of ``schema``, checked against its metaschema."""
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


_REPORT_VALIDATOR = report_validator(REPORT_SCHEMA)


def assert_report_valid(report: dict) -> None:
    """Raise ``jsonschema.ValidationError`` unless ``report`` conforms to the
    shipped ``report_schema.json``, and ``AssertionError`` unless its
    ``spectrum`` section is consistent: ``values`` and ``partial_sums`` hold
    order^2 finite entries, ``values`` never increase, ``partial_sums``
    never decrease, and the cluster multiplicities sum to order^2."""
    _REPORT_VALIDATOR.validate(report)
    if "spectrum" in report:
        section = report["spectrum"]
        size = section["order"] ** 2
        values, sums = np.array(section["values"]), np.array(section["partial_sums"])
        assert values.shape == sums.shape == (size,), f"expected {size} values and partial sums"
        assert np.isfinite(values).all() and np.isfinite(sums).all(), "non-finite spectrum entry"
        assert (np.diff(values) <= 0).all(), "values increase"
        assert (np.diff(sums) >= 0).all(), "partial sums decrease"
        assert sum(m for _, m in section["clusters"]) == size, "multiplicities do not sum to order^2"


@pytest.fixture(autouse=True)
def _validate_built_reports(monkeypatch):
    """Every report ``cli.main`` builds in-process is checked against the schema.

    The library does not validate its reports at run time; the suite does,
    by wrapping ``reporting.build_report``, which ``cli`` looks up on call.
    """
    build = reporting.build_report

    def build_and_validate(*args, **kwargs):
        report = build(*args, **kwargs)
        assert_report_valid(report)
        return report

    monkeypatch.setattr(reporting, "build_report", build_and_validate)


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


@pytest.fixture
def rotate_eigh_phases(monkeypatch):
    """``rotate_eigh_phases(rng)`` makes ``eigensolver.eigh``, as the library
    looks it up, multiply each eigenvector column by a random unimodular
    factor drawn from ``rng``."""

    def rotate(rng):
        eigh = eigensolver.eigh

        def rotated(*args, **kwargs):
            dec = eigh(*args, **kwargs)
            phases = np.exp(2j * np.pi * rng.random(dec.vectors.shape[1]))
            return dataclasses.replace(dec, vectors=dec.vectors * phases)

        monkeypatch.setattr(eigensolver, "eigh", rotated)

    return rotate
