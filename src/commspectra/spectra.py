"""Spectrum of the double-commutator operator and its bound ladder.

Eigenvalues are always reported for the unit-normalized matrix (the operator
scales as ||X||^2, recorded in ``norm_scale``). The proven bounds, with X
unit Frobenius norm and eigenvalues descending:

* lambda_1 <= 2
* lambda_1 <= 2 (s_1^2 + s_2^2) for the two largest singular values of X
* lambda_1 <= c_x, a sharper constant from the Hermitian/skew eigenvalues
* lambda_i <= 2 lambda_i(G_X) entrywise, G_X the Gram part of the lift
* lambda_1 + lambda_3 <= (4 + sqrt(10)) / 2
* sum of the top 2k eigenvalues <= 2k + 1 + 2 sqrt(k)

Two monitored conjectures sharpen the last two: partial sums <= 2k + 2
(id C2A) and weak majorization by the rank-one profile (id C4). C4 holds
exactly when C2A holds at every k <= n - 1: the spectrum's and the
profile's entries pair up, so the worst prefix is even.

One batched core: :func:`spectral_batch` (lift, stacked eigensolves with
real matrices in real arithmetic, trace-identity residuals),
:func:`ladder_batch` (the ladder and its one decision),
:func:`partial_sum_batch` (C2A) and :func:`majorization_batch` (C4). Each runs
the same lines on one matrix (n, n) as on a stack (..., n, n); fields carry
the input's leading shape, so one matrix's scalar fields are numpy scalars.
The per-matrix functions call it directly. The ladder and both monitor
batches read a :class:`Spectrum` only, never a bare array of values. The
ladder, the C2A monitor and :func:`majorization_target` refuse order 1;
:func:`verdicts.require` raises.

X / ||X|| is computed once, in :func:`spectral_batch`, from the same scaling
pass as ``norm_scale``; a :class:`Spectrum` carries it as ``matrix``, and the
ladder, the monitors and their bundles read it, so every verdict refers to
exactly the matrix that was judged. The prefix sums of a spectrum are taken
once too: the ladder, both monitors and the report read
``Spectrum.partial_sums``. Neighbours closer than ``CLUSTER_TOL`` share a
cluster: every spectrum is of a unit matrix, so one absolute gap serves all.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import eigensolver
from .errors import PreconditionError
from .lifted import double_commutator_lift
from .matrices import _unit_and_norm, as_matrix, herm_skew_split
from .verdicts import DEFAULT_TOL, IDENTITY_TOL, PROVEN_TOL, ConjectureVerdict, holds, judge, require

CLUSTER_TOL = 1e-7
LAMBDA13_BOUND = (4.0 + np.sqrt(10.0)) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Spectra of T_X, each for the unit-normalized X, descending.

    Fields carry the input's leading shape (...): none for one matrix.
    ``values`` holds the eigenvalues (..., n^2); ``norm_scale`` the ||X||^2
    divided out (multiply ``values`` by it to recover the spectrum of the
    raw input); ``trace_residual`` |sum(values) - (2n - 2|Tr Xhat|^2)|;
    ``matrix`` the unit matrices X / ||X|| (..., n, n) the values belong to.
    ``partial_sums`` and, for one matrix, ``clusters`` and ``pairing_ok``
    are derived from ``values`` on first read.
    """

    values: np.ndarray
    norm_scale: np.ndarray | np.float64
    trace_residual: np.ndarray | np.float64
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        """(representative value, multiplicity) per group under
        ``CLUSTER_TOL``, for the spectrum of one matrix."""
        return _cluster(self.values)

    @cached_property
    def pairing_ok(self) -> bool:
        """Whether every positive cluster of one matrix's spectrum has even multiplicity."""
        return all(mult % 2 == 0 for val, mult in self.clusters if val > CLUSTER_TOL)

    @cached_property
    def partial_sums(self) -> np.ndarray:
        """Prefix sums of ``values`` along the last axis, nondecreasing,
        taken once per spectrum and shared by the ladder, both monitors and
        the report (so read-only).

        Rounding noise below zero (bounded by the PSD invariant) is clipped so
        monotonicity holds exactly; the final entry equals the trace identity
        value to ``IDENTITY_TOL``.
        """
        sums = np.cumsum(np.maximum(self.values, 0.0), axis=-1)
        sums.flags.writeable = False
        return sums

    @property
    def positivity_holds(self) -> np.ndarray | np.bool_:
        """Per matrix, whether the lift kept positivity: min eigenvalue >= -``IDENTITY_TOL``."""
        return holds(-self.values[..., -1], 0.0, IDENTITY_TOL)

    @property
    def trace_identity_holds(self) -> np.ndarray | np.bool_:
        """Per matrix, whether ``trace_residual`` is at most ``IDENTITY_TOL``."""
        return holds(self.trace_residual, 0.0, IDENTITY_TOL)

    def require_identities(self, i: int | tuple = (), where: str = "") -> None:
        """Raise if matrix i (by default the one matrix) broke positivity, then the trace identity."""
        low, resid = self.values[..., -1][i], self.trace_residual[i]
        require(self.positivity_holds[i], f"lifted operator lost positivity: min eigenvalue {low:.3e}{where}")
        require(self.trace_identity_holds[i], f"trace identity failed: residual {resid:.3e}{where}")


def _cluster(values: np.ndarray) -> tuple[tuple[float, int], ...]:
    starts = np.flatnonzero(~(values[:-1] - values[1:] < CLUSTER_TOL)) + 1
    edges = np.concatenate(([0], starts, [values.size]))
    counts = np.diff(edges)
    # sum each group's offsets from its first value: a long sequential sum
    # of the values themselves would round worse than np.mean's pairwise one
    first = values[edges[:-1]]
    means = first + np.add.reduceat(values - np.repeat(first, counts), edges[:-1]) / counts
    return tuple(zip(means.tolist(), counts.tolist()))


def spectral_batch(X) -> Spectrum:
    """Spectra of T_X for one matrix (n, n) or every matrix of a stack (..., n, n).

    One O(n^4) lift per matrix, one stacked solve of the lifts as built (their
    lower triangles) for the real rows and one for the others, then the residual
    of the trace identity sum(lambda) = 2n - 2|Tr Xhat|^2 per matrix, decided by
    the caller (:meth:`Spectrum.require_identities`) among its own checks. The
    fields carry the input's leading shape.
    """
    # one scaling pass gives X / ||X|| and ||X||; the unit matrices are
    # complex128 for any input, so the ladder does not depend on it
    Xh, nrm, e = _unit_and_norm(X)
    n = Xh.shape[-1]
    # a matrix with no imaginary part gets the real lift and LAPACK's real
    # symmetric solver; deciding per row gives a matrix the same bits alone
    # or inside any stack (a 0-d mask solves one matrix as a stack of one)
    real = ~Xh.imag.any(axis=(-2, -1))
    values = np.empty((*Xh.shape[:-2], n * n))
    for rows, part in ((real, Xh.real), (~real, Xh)):
        if rows.any():
            values[rows] = eigensolver.eigvalsh(double_commutator_lift(part[rows]))
    tr = np.trace(Xh, axis1=-2, axis2=-1)
    residual = np.abs(values.sum(axis=-1) - (2.0 * n - 2.0 * np.square(np.hypot(tr.real, tr.imag))))
    # ||X||^2 saturates to inf beyond about 1e154 (np.square: a float's ** 2 raises there)
    with np.errstate(over="ignore"):
        norm_scale = np.square(np.ldexp(nrm, e))
    return Spectrum(values, norm_scale, residual, Xh)


def double_commutator_spectrum(X) -> Spectrum:
    """Spectrum of T_X via the Kronecker lift: :func:`spectral_batch` of one matrix.

    Internally verifies positivity and the trace identity
    sum(lambda) = 2n - 2|Tr Xhat|^2 at ``IDENTITY_TOL``, raising
    :class:`InvariantViolationError` if the numerics broke them. An order
    above the lift limit (:func:`lifted.check_lift_order`, 64) raises
    ``PreconditionError``.
    """
    spec = spectral_batch(as_matrix(X))
    spec.require_identities()
    return spec


def partial_sum_caps(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Caps on the top-2k eigenvalue sum of T_X for unit X of order n, per k:
    the conjectured 2k + 2 (id C2A) and the proven min(2k + 1 + 2 sqrt(k), 2n).
    """
    k = np.asarray(k, dtype=np.float64)
    return 2.0 * k + 2.0, np.minimum(2.0 * k + 1.0 + 2.0 * np.sqrt(k), 2.0 * n)


def partial_sum_batch(spec: Spectrum, ks, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C2A on the spectra (..., n^2) of a :class:`Spectrum`.

    Returns (holds, lhs, rhs): per (matrix, k) whether the top-2k sum lhs
    (..., len(ks)) is at most the conjectured cap rhs = 2k + 2 (len(ks),).
    """
    ks = np.asarray(ks, dtype=np.intp)
    lhs = spec.partial_sums[..., 2 * ks - 1]
    rhs = 2.0 * ks.astype(np.float64) + 2.0  # partial_sum_caps' conjectured cap, bit for bit
    return holds(lhs, rhs, tol), lhs, rhs


def majorization_target(n: int) -> np.ndarray:
    """The conjectured dominating profile {2, 2, 1 x (2n-4), 0 x ((n-1)^2+1)}."""
    if n < 2:
        raise PreconditionError(f"the profile needs n >= 2, got {n}")
    return np.array([2.0] * 2 + [1.0] * (2 * n - 4) + [0.0] * ((n - 1) ** 2 + 1))


@lru_cache
def _majorization_prefix(n: int) -> np.ndarray:
    """Prefix sums of :func:`majorization_target`, built once per order (so read-only)."""
    sums = np.cumsum(majorization_target(n))
    sums.flags.writeable = False
    return sums


def majorization_batch(spec: Spectrum, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C4 on the spectra (..., n^2) of a :class:`Spectrum`.

    Returns per matrix (dominated, lhs, rhs): ``Spectrum.partial_sums`` and
    the prefix sums of :func:`majorization_target` at the worst prefix, the
    first where the excess of the one over the other is largest.
    """
    cv, ct = spec.partial_sums, _majorization_prefix(spec.order)
    worst = np.argmax(cv - ct, axis=-1)
    lhs, rhs = np.take_along_axis(cv, worst[..., None], -1)[..., 0], ct[worst]
    return holds(lhs, rhs, tol), lhs, rhs


@dataclass(frozen=True)
class BoundReport:
    """The proven bound ladder on unit-normalized matrices, decided by
    ``all_proven_hold``: every slack is at least -``PROVEN_TOL``. Fields and
    dict entries carry the leading shape of the :class:`Spectrum`."""

    lambda1: np.ndarray | np.float64
    norm_scale: np.ndarray | np.float64
    bounds: dict
    slacks: dict
    all_proven_hold: np.ndarray | np.bool_


def _part_spectra(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The singular values of a matrix or of each matrix of a stack
    (..., n, n) and the descending eigenvalues of its Hermitian part A and of
    B / i, B its skew-Hermitian part: three (..., n) arrays, for the ladder
    and the certificate."""
    A, Bsk = herm_skew_split(matrices)
    # one stacked solve; LAPACK solves each matrix of a stack on its own
    a, b = eigensolver.eigvalsh(np.stack((A, Bsk / 1j)))
    return eigensolver.svd(matrices), a, b


def ladder_batch(spec: Spectrum) -> BoundReport:
    """Evaluate every proven bound and its slack, and decide the ladder, for
    the matrix or each matrix of a :func:`spectral_batch` of order n >= 2."""
    if spec.order < 2:
        raise PreconditionError(f"the bound ladder needs n >= 2, got {spec.order}")
    values = spec.values
    lead, N = values.shape[:-1], values.shape[-1]
    s, a, b = _part_spectra(spec.matrix)
    top2 = s[..., 0] ** 2 + s[..., 1] ** 2
    norm22 = 2.0 * top2
    cx = (
        2.0
        * (
            (-(a[..., :, None] * a[..., None, :])).max(axis=(-2, -1))
            + (-(b[..., :, None] * b[..., None, :])).max(axis=(-2, -1))
        )
        + top2
    )
    s2 = s**2
    k1 = 2.0 * np.sort((s2[..., :, None] + s2[..., None, :]).reshape(*lead, -1), axis=-1)[..., ::-1]
    ks = np.arange(1, N // 2 + 1)
    partial_weak = 2.0 * ks + 1.0 + 2.0 * np.sqrt(ks)
    # [()] makes a 0-d result a numpy scalar: one matrix's fields hold no view of its spectrum
    lam1 = values[..., 0][()]
    min_bound = np.minimum(np.minimum(2.0, norm22), cx)
    bounds = {
        "bw": np.full(lead, 2.0)[()],
        "norm22": norm22,
        "cx": cx,
        "min_bound": min_bound,
        "k1_entrywise": k1,
        "lambda13_weak": np.full(lead, LAMBDA13_BOUND)[()],
        "partial_sum_weak": np.broadcast_to(partial_weak, (*lead, ks.size)),
    }
    slacks = {
        "bw": 2.0 - lam1,
        "norm22": norm22 - lam1,
        "cx": cx - lam1,
        "min_bound": min_bound - lam1,
        "k1_entrywise": (k1 - values).min(axis=-1),
        "lambda13_weak": LAMBDA13_BOUND - (values[..., 0] + values[..., 2]),
        "partial_sum_weak": (partial_weak - spec.partial_sums[..., 2 * ks - 1]).min(axis=-1),
    }
    min_slack = np.min(list(slacks.values()), axis=0)
    return BoundReport(lam1, spec.norm_scale, bounds, slacks, holds(-min_slack, 0.0, PROVEN_TOL))


def bound_report(X, spectrum: Spectrum | None = None) -> BoundReport:
    """The :func:`ladder_batch` of X / ||X||: every proven bound and its slack.

    ``spectrum`` may be passed to reuse a precomputed
    :func:`double_commutator_spectrum` of the same X; the ladder reads its
    unit matrix.
    """
    return ladder_batch(double_commutator_spectrum(X) if spectrum is None else spectrum)


def first_four_sum_bound(X) -> float:
    """Certificate upper bound for lambda_1 + ... + lambda_4 of T_X.

    Computed on X as given (the value scales as ||X||^2):
    4 (s_1^2 + s_2^2) plus a correction from the three largest eigenvalues
    of the Kronecker squares of the Hermitian and skew parts.
    """
    X = as_matrix(X)
    if X.shape[0] < 2:
        raise PreconditionError("the certificate needs n >= 2")
    s, a, b = _part_spectra(X)
    mu_a = np.sort((-np.outer(a, a)).ravel())[::-1]
    mu_b = np.sort((-np.outer(b, b)).ravel())[::-1]
    phi = (4.0 * mu_a[0] + 2.0 * mu_a[1:3].sum()) + (
        4.0 * mu_b[0] + 2.0 * mu_b[1:3].sum()
    )
    return float(4.0 * (s[0] ** 2 + s[1] ** 2) + phi)


def monitor_partial_sums(
    X, spectrum: Spectrum | None = None, tol: float = DEFAULT_TOL, seed: int | None = None
) -> ConjectureVerdict:
    """Monitor the open bound sum(top 2k) <= 2k + 2 for every k (id C2A)."""
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    if spec.order < 2:
        raise PreconditionError(f"the partial-sum monitor needs n >= 2, got {spec.order}")
    _, lhs, rhs = partial_sum_batch(spec, np.arange(1, spec.values.shape[-1] // 2 + 1), tol)
    worst = int(np.argmax(lhs - rhs))
    return judge("C2A", [spec.matrix], lhs[worst], rhs[worst], 0.0, tol, seed)


def monitor_majorization(
    X, spectrum: Spectrum | None = None, tol: float = DEFAULT_TOL, seed: int | None = None
) -> ConjectureVerdict:
    """Monitor weak majorization by the rank-one profile (id C4)."""
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    _, lhs, rhs = majorization_batch(spec, tol=tol)
    return judge("C4", [spec.matrix], lhs, rhs, 0.0, tol, seed)
