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
(id C2A) and weak majorization by the rank-one profile (id C4).

Everything runs on stacks (B, n, n) through one batched core:
:func:`spectral_batch` (lift, stacked eigensolves with real matrices in
real arithmetic, the positivity and trace invariants), :func:`ladder_batch`
(the bound ladder and prefix sums) and :func:`majorization_batch` (the C4
monitor). The per-matrix functions are batches of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .errors import (
    DegenerateInputError,
    InvariantViolationError,
    OrderMismatchError,
    PreconditionError,
)
from .lifted import double_commutator_lift
from .matrices import (
    DEFAULT_ORDER_CAP,
    as_matrix,
    as_stack,
    check_order_cap,
    commutator,
    herm_skew_split,
    normalized,
    unvec,
    vec,
)
from .verdicts import ConjectureVerdict, holds, judge

CLUSTER_TOL_FLOOR = 1e-7
LAMBDA13_BOUND = (4.0 + np.sqrt(10.0)) / 2.0


def cluster_tolerance(lambda1: float) -> float:
    """Gap below which neighboring eigenvalues belong to one cluster."""
    return max(CLUSTER_TOL_FLOOR, 1e-9 * lambda1)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of T_X for the unit-normalized X, descending.

    ``clusters`` holds (representative value, multiplicity) per group under
    :func:`cluster_tolerance`; ``pairing_ok`` records whether every positive
    cluster has even multiplicity; ``norm_scale`` is the ||X||^2 divided out
    (multiply ``values`` by it to recover the spectrum of the raw input).
    """

    values: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    pairing_ok: bool
    norm_scale: float

    @property
    def order(self) -> int:
        return int(round(np.sqrt(self.values.size)))


def _cluster(values: np.ndarray) -> tuple[tuple[float, int], ...]:
    tol = cluster_tolerance(float(values[0]))
    starts = np.flatnonzero(~(values[:-1] - values[1:] < tol)) + 1
    edges = np.concatenate(([0], starts, [values.size]))
    counts = np.diff(edges)
    # sum each group's offsets from its first value: a long sequential sum
    # of the values themselves would round worse than np.mean's pairwise one
    first = values[edges[:-1]]
    means = first + np.add.reduceat(values - np.repeat(first, counts), edges[:-1]) / counts
    return tuple(zip(means.tolist(), counts.tolist()))


@dataclass(frozen=True)
class SpectralBatch:
    """Spectra of T_X for a stack of matrices, each unit-normalized.

    ``matrices`` holds X / ||X|| (B, n, n), ``values`` the descending
    eigenvalues (B, n^2) and ``norm_scale`` the ||X||^2 divided out (B,).
    ``failures[i]`` is the message of the first invariant that matrix i
    broke (positivity, then the trace identity), or None.
    """

    matrices: np.ndarray
    values: np.ndarray
    norm_scale: np.ndarray
    failures: tuple[str | None, ...]


def _unit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X / ||X|| and ||X|| for each matrix of a stack (B, n, n)."""
    nrm = np.linalg.norm(X, axis=(-2, -1))
    if not nrm.all():
        raise DegenerateInputError("the zero matrix has no normalized spectrum")
    return X / nrm[:, None, None], nrm


def spectral_batch(X) -> SpectralBatch:
    """Spectra of T_X for every matrix of a stack (B, n, n).

    One O(n^4) lift per matrix, one stacked eigensolve for the real rows
    and one for the others, then positivity and the trace identity
    sum(lambda) = 2n - 2|Tr Xhat|^2, both at 1e-9, per matrix. Broken
    invariants are reported in ``failures``, not raised, so callers can
    order them with their own checks.
    """
    # the normalized matrices stay complex128 whatever the input dtype, so
    # the ladder computed from them does not depend on it
    X = as_stack(np.asarray(X, dtype=np.complex128))
    if X.ndim != 3:
        raise OrderMismatchError(f"expected a stack (B, n, n), got shape {X.shape}")
    Xh, nrm = _unit(X)
    n = X.shape[-1]
    # a matrix with no imaginary part gets the real lift and LAPACK's real
    # symmetric solver; deciding per row gives a matrix the same bits alone
    # or inside any stack
    real = ~Xh.imag.any(axis=(-2, -1))
    values = np.empty((len(Xh), n * n))
    for rows, part in ((real, Xh.real), (~real, Xh)):
        if rows.any():
            values[rows] = eigensolver.eigvalsh(double_commutator_lift(part[rows]))
    sums = values.sum(axis=-1)
    targets = 2.0 * n - 2.0 * np.abs(np.trace(Xh, axis1=-2, axis2=-1)) ** 2
    lost = values[:, -1] < -1e-9
    failures: list[str | None] = [None] * len(values)
    for i in np.flatnonzero(lost | (np.abs(sums - targets) > 1e-9)):
        failures[i] = (
            f"lifted operator lost positivity: min eigenvalue {values[i, -1]:.3e}"
            if lost[i]
            else f"trace identity failed: sum {sums[i]!r} vs {targets[i]!r}"
        )
    return SpectralBatch(
        matrices=Xh, values=values, norm_scale=nrm**2, failures=tuple(failures)
    )


def double_commutator_spectrum(X, max_order: int = DEFAULT_ORDER_CAP) -> Spectrum:
    """Spectrum of T_X via the Kronecker lift (a batch of one).

    Internally verifies positivity and the trace identity
    sum(lambda) = 2n - 2|Tr Xhat|^2 at 1e-9, raising
    :class:`InvariantViolationError` if the numerics broke them.
    """
    X = as_matrix(X)
    check_order_cap(X.shape[0], max_order)
    batch = spectral_batch(X[None])
    if batch.failures[0] is not None:
        raise InvariantViolationError(batch.failures[0])
    values = batch.values[0]
    clusters = _cluster(values)
    tol = cluster_tolerance(float(values[0]))
    pairing_ok = all(mult % 2 == 0 for val, mult in clusters if val > tol)
    return Spectrum(
        values=values,
        clusters=clusters,
        pairing_ok=pairing_ok,
        norm_scale=float(batch.norm_scale[0]),
    )


def paired_top_family(X, count: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Orthonormal eigenvector matrices spanning the top ``count`` eigenvalues.

    ``count`` must be even. Within each positive eigenvalue cluster the family
    is built in partner pairs (Y, [X,Y]*/sqrt(lambda)); kernel slots, when
    reached, are filled with unpaired kernel basis matrices. Returns the
    matrices and their eigenvalues.
    """
    X = as_matrix(X)
    n = X.shape[0]
    N = n * n
    if count % 2 != 0 or count < 2:
        raise PreconditionError(f"count must be a positive even number, got {count}")
    if count > N:
        raise PreconditionError(f"count {count} exceeds the lifted order {N}")
    Xh = normalized(X)
    dec = eigensolver.eigh(double_commutator_lift(Xh))
    tol = cluster_tolerance(float(dec.values[0]))

    chosen: list[np.ndarray] = []  # vec coordinates
    chosen_vals: list[float] = []
    i = 0
    while len(chosen) < count and i < N:
        j = i + 1
        while j < N and dec.values[j - 1] - dec.values[j] < tol:
            j += 1
        cluster_vals = dec.values[i:j]
        cluster_vecs = dec.vectors[:, i:j]
        lam = float(cluster_vals.mean())
        if lam <= tol:
            # kernel: plain orthonormal columns, no pairing needed
            for c in range(cluster_vecs.shape[1]):
                if len(chosen) >= count:
                    break
                chosen.append(cluster_vecs[:, c])
                chosen_vals.append(float(cluster_vals[c]))
        else:
            in_cluster: list[np.ndarray] = []
            c = 0
            while len(chosen) < count and c < cluster_vecs.shape[1]:
                y = cluster_vecs[:, c].copy()
                for q in in_cluster:
                    y = y - q * np.vdot(q, y)
                ny = np.linalg.norm(y)
                c += 1
                if ny < 0.5:
                    # this column lives in the span already consumed by partners
                    continue
                y = y / ny
                partner_mat = commutator(Xh, unvec(y, n)).conj().T / np.sqrt(lam)
                p = vec(partner_mat)
                for q in in_cluster + [y]:
                    p = p - q * np.vdot(q, p)
                npn = np.linalg.norm(p)
                if npn < 0.5:  # pragma: no cover - even pairing guarantees room
                    raise InvariantViolationError(
                        "partner collapsed inside its eigenvalue cluster"
                    )
                p = p / npn
                in_cluster.extend([y, p])
                chosen.extend([y, p])
                chosen_vals.extend([lam, lam])
        i = j
    if len(chosen) < count:  # pragma: no cover - count <= N rules this out
        raise InvariantViolationError("could not assemble the requested family")
    mats = [unvec(v, n) for v in chosen[:count]]
    return mats, np.asarray(chosen_vals[:count], dtype=np.float64)


def partial_sums(spectrum: Spectrum) -> np.ndarray:
    """Prefix sums of the spectrum, nondecreasing.

    Rounding noise below zero (bounded by the PSD invariant) is clipped so
    monotonicity holds exactly; the final entry equals the trace identity
    value to 1e-9.
    """
    return _prefix_sums(spectrum.values)


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    return np.cumsum(np.maximum(values, 0.0), axis=-1)


def majorization_target(n: int) -> np.ndarray:
    """The conjectured dominating profile {2, 2, 1 x (2n-4), 0 x ((n-1)^2+1)}."""
    if n < 2:
        raise PreconditionError(f"the profile needs n >= 2, got {n}")
    return np.array([2.0] * 2 + [1.0] * (2 * n - 4) + [0.0] * ((n - 1) ** 2 + 1))


def _dominance(v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of each row of v and of t at the row's worst prefix,
    the one where the excess of v over t is largest.

    Rows of ``v`` (B, N) and ``t`` (N,) must be descending.
    """
    scale = np.maximum(np.abs(v).max(axis=-1, initial=1.0), np.abs(t).max(initial=0.0))
    if np.any(np.diff(v, axis=-1) > 1e-9 * scale[:, None]) or np.any(
        np.diff(t)[None, :] > 1e-9 * scale[:, None]
    ):
        raise PreconditionError("inputs must be sorted in descending order")
    cv, ct = np.cumsum(v, axis=-1), np.cumsum(t)
    worst = np.argmax(cv - ct, axis=-1)
    return cv[np.arange(len(v)), worst], ct[worst]


def majorization_batch(
    values: np.ndarray, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C4 on a stack of descending spectra (B, n^2) of unit-norm matrices.

    Returns per matrix (dominated, lhs, rhs): the prefix sums of the
    spectrum and of :func:`majorization_target` at the worst prefix.
    """
    n = round(np.sqrt(values.shape[-1]))
    lhs, rhs = _dominance(values, majorization_target(n))
    return holds(lhs, rhs, tol), lhs, rhs


@dataclass(frozen=True)
class BoundReport:
    """The proven bound ladder evaluated on one unit-normalized matrix."""

    lambda1: float
    norm_scale: float
    bounds: dict
    slacks: dict
    all_proven_hold: bool


@dataclass(frozen=True)
class LadderBatch:
    """The proven bound ladder on a stack of unit-normalized matrices.

    Every entry of ``bounds`` and ``slacks`` has the batch as its first
    axis; ``prefix`` holds the prefix sums of each spectrum and ``hold``
    whether every slack of a matrix is at least -1e-8.
    """

    bounds: dict
    slacks: dict
    prefix: np.ndarray
    hold: np.ndarray


def ladder_batch(matrices: np.ndarray, values: np.ndarray) -> LadderBatch:
    """Evaluate every proven bound and its slack for a stack of
    unit-normalized matrices (B, n, n), n >= 2, and their spectra (B, n^2).
    """
    B, N = values.shape
    s = eigensolver.svd(matrices)
    A, Bsk = herm_skew_split(matrices)
    a = eigensolver.eigvalsh(A)
    b = eigensolver.eigvalsh(Bsk / 1j)
    top2 = s[:, 0] ** 2 + s[:, 1] ** 2
    norm22 = 2.0 * top2
    cx = (
        2.0
        * (
            (-(a[:, :, None] * a[:, None, :])).max(axis=(1, 2))
            + (-(b[:, :, None] * b[:, None, :])).max(axis=(1, 2))
        )
        + top2
    )
    s2 = s**2
    k1 = 2.0 * np.sort((s2[:, :, None] + s2[:, None, :]).reshape(B, -1), axis=-1)[:, ::-1]
    ks = np.arange(1, N // 2 + 1)
    partial_weak = 2.0 * ks + 1.0 + 2.0 * np.sqrt(ks)
    prefix = _prefix_sums(values)
    lam1 = values[:, 0]
    min_bound = np.minimum(np.minimum(2.0, norm22), cx)
    bounds = {
        "bw": np.full(B, 2.0),
        "norm22": norm22,
        "cx": cx,
        "min_bound": min_bound,
        "k1_entrywise": k1,
        "lambda13_weak": np.full(B, LAMBDA13_BOUND),
        "partial_sum_weak": np.broadcast_to(partial_weak, (B, ks.size)),
    }
    slacks = {
        "bw": 2.0 - lam1,
        "norm22": norm22 - lam1,
        "cx": cx - lam1,
        "min_bound": min_bound - lam1,
        "k1_entrywise": (k1 - values).min(axis=-1),
        "lambda13_weak": LAMBDA13_BOUND - (values[:, 0] + values[:, 2]),
        "partial_sum_weak": (partial_weak - prefix[:, 2 * ks - 1]).min(axis=-1),
    }
    hold = np.min(list(slacks.values()), axis=0) >= -1e-8
    return LadderBatch(bounds=bounds, slacks=slacks, prefix=prefix, hold=hold)


def bound_report(X, spectrum: Spectrum | None = None) -> BoundReport:
    """Evaluate every proven bound and its slack for X / ||X|| (a batch of one).

    ``spectrum`` may be passed to reuse a precomputed
    :func:`double_commutator_spectrum` of the same X.
    """
    X = as_matrix(X)
    if X.shape[0] < 2:
        raise PreconditionError("the bound ladder needs n >= 2")
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    Xh, _ = _unit(X[None])
    ladder = ladder_batch(Xh, spec.values[None])
    return BoundReport(
        lambda1=float(spec.values[0]),
        norm_scale=spec.norm_scale,
        bounds={
            name: v[0].copy() if v.ndim > 1 else float(v[0])
            for name, v in ladder.bounds.items()
        },
        slacks={name: float(v[0]) for name, v in ladder.slacks.items()},
        all_proven_hold=bool(ladder.hold[0]),
    )


def first_four_sum_bound(X) -> float:
    """Certificate upper bound for lambda_1 + ... + lambda_4 of T_X.

    Computed on X as given (the value scales as ||X||^2):
    4 (s_1^2 + s_2^2) plus a correction from the three largest eigenvalues
    of the Kronecker squares of the Hermitian and skew parts.
    """
    X = as_matrix(X)
    if X.shape[0] < 2:
        raise PreconditionError("the certificate needs n >= 2")
    s = eigensolver.svd(X)
    A, B = herm_skew_split(X)
    a = eigensolver.eigvalsh(A)
    b = eigensolver.eigvalsh(B / 1j)
    mu_a = np.sort((-np.outer(a, a)).ravel())[::-1]
    mu_b = np.sort((-np.outer(b, b)).ravel())[::-1]
    phi = (4.0 * mu_a[0] + 2.0 * mu_a[1:3].sum()) + (
        4.0 * mu_b[0] + 2.0 * mu_b[1:3].sum()
    )
    return float(4.0 * (s[0] ** 2 + s[1] ** 2) + phi)


def monitor_partial_sums(
    X, spectrum: Spectrum | None = None, tol: float = 1e-8, seed: int | None = None
) -> ConjectureVerdict:
    """Monitor the open bound sum(top 2k) <= 2k + 2 for every k (id C2A)."""
    X = as_matrix(X)
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    prefix = partial_sums(spec)
    N = spec.values.size
    ks = np.arange(1, N // 2 + 1)
    lhs_all = prefix[2 * ks - 1]
    rhs_all = 2.0 * ks + 2.0
    worst = int(np.argmax(lhs_all - rhs_all))
    return judge("C2A", [normalized(X)], lhs_all[worst], rhs_all[worst], 0.0, tol, seed)


def monitor_majorization(
    X, spectrum: Spectrum | None = None, tol: float = 1e-8, seed: int | None = None
) -> ConjectureVerdict:
    """Monitor weak majorization by the rank-one profile (id C4)."""
    X = as_matrix(X)
    spec = double_commutator_spectrum(X) if spectrum is None else spectrum
    _, lhs, rhs = majorization_batch(spec.values[None], tol=tol)
    return judge("C4", [normalized(X)], lhs[0], rhs[0], 0.0, tol, seed)
