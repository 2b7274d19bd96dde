"""Monotone alternating ascent for extremal partial eigenvalue sums.

The objective f_k(X) = sum of the top 2k eigenvalues of T_X on the unit
Frobenius sphere alternates two exact maximizations:

(a) with X fixed, the optimal orthonormal 2k-family {Y_i} consists of the
    top eigenvectors of the lifted operator, achieving f_k(X);
(b) with {Y_i} fixed, sum_i ||[X, Y_i]||^2 is a quadratic form in vec(X)
    with matrix sum_i L_{Y_i}* L_{Y_i}, maximized by its top eigenvector.

Each half-step is a global maximum of its subproblem, so the objective
never decreases. Every iterate is checked against the proven caps
(lambda_1 <= 2 and f_k <= min(2k + 1 + 2 sqrt(k), 2n)); the open question
is whether f_k can exceed 2k + 2 (id C2A), and any observed breach is
serialized as a violation bundle.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import ensembles
from .errors import PreconditionError
from .lifted import check_lift_order, double_commutator_lift
from .matrices import as_matrix, normalized, unvec
from .spectra import LAMBDA13_BOUND, ladder_batch, majorization_batch, partial_sum_caps, spectral_batch
from .matrixio import matrix_payload
from .verdicts import DEFAULT_TOL, IDENTITY_TOL, PROVEN_TOL, holds, judge, require
from . import eigensolver

INIT_KINDS = ("random_gaussian", "normal_class", "rank_one", "user_matrix")
VIOLATION_MARGIN = 1e-6
# A restart stops after FLAT_ITERS consecutive steps whose relative gain is
# below ASCENT_TOL.
ASCENT_TOL = 1e-12
FLAT_ITERS = 3
# Complex entries of stacked lifts held at once (1 MiB): sweep trials run
# in chunks of at most this many n^4-entry lifts (at least one). Larger
# stacks fall out of cache and cost more per matrix.
CHUNK_LIFT_ENTRIES = 2**16


def _chunk_size(n: int) -> int:
    return max(1, CHUNK_LIFT_ENTRIES // n**4)


@dataclass(frozen=True)
class SearchConfig:
    """Ascent parameters; all randomness flows from ``seed``. ``order`` runs from 2
    to 64, the lift limit (:func:`lifted.check_lift_order`) checked before any draw."""

    order: int
    k: int
    restarts: int = 20
    max_iters: int = 500
    seed: int = 0
    init: str = "random_gaussian"
    matrix: np.ndarray | None = None


@dataclass(frozen=True)
class RestartTrace:
    index: int
    first_objective: float
    last_objective: float
    iterations: int


@dataclass(frozen=True)
class SearchResult:
    objective: str
    order: int
    k: int
    best_objective: float
    best_matrix: np.ndarray
    conjectured_bound: float
    proven_bound: float
    gap_to_conjecture: float
    monotone_ok: bool
    restarts: tuple[RestartTrace, ...] = field(default=())
    violation: dict | None = None


def _require_integer(value, name: str) -> int:
    """``value`` as an int. A bool or a float (2.5, and 2.0 too) is refused,
    not truncated; a numpy integer is accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_order_and_k(n: int, ks) -> None:
    """Refuse an order or k that is not an integer, an order below 2 or above
    the lift limit, or a k outside 1..n^2/2."""
    if _require_integer(n, "order") < 2:
        raise PreconditionError(f"need order >= 2, got {n}")
    check_lift_order(n)
    for k in ks:
        if not 1 <= _require_integer(k, "k") <= n * n // 2:
            raise PreconditionError(f"k = {k} out of range for order {n}")


def validate_config(config: SearchConfig) -> None:
    n = config.order
    _check_order_and_k(n, [config.k])
    if _require_integer(config.restarts, "restarts") < 1:
        raise PreconditionError("need at least one restart")
    if _require_integer(config.max_iters, "max_iters") < 1:
        raise PreconditionError("need at least one iteration")
    if _require_integer(config.seed, "seed") < 0:
        raise PreconditionError(f"seed must be nonnegative, got {config.seed}")
    if config.init not in INIT_KINDS:
        raise PreconditionError(f"init must be one of {INIT_KINDS}, got {config.init!r}")
    if config.init == "user_matrix":
        if config.matrix is None:
            raise PreconditionError("init='user_matrix' requires a matrix")
        M = as_matrix(config.matrix, "matrix")
        if M.shape[0] != n:
            raise PreconditionError(
                f"user matrix order {M.shape[0]} does not match config order {n}"
            )
    elif config.matrix is not None:
        raise PreconditionError("matrix is only accepted with init='user_matrix'")


def _draw_init(config: SearchConfig, index: int) -> np.ndarray:
    if config.init == "user_matrix":
        # restarts beyond the first perturb the user matrix deterministically
        X = normalized(config.matrix)
        if index == 0:
            return X
        rng = ensembles.trial_rng(config.seed, index)
        return normalized(X + 0.05 * ensembles.unit_gaussian(rng, config.order))
    rng = ensembles.trial_rng(config.seed, index)
    if config.init == "normal_class":
        return ensembles.random_normal_matrix(rng, config.order)
    if config.init == "rank_one":
        return ensembles.random_rank_one(rng, config.order)
    return ensembles.unit_gaussian(rng, config.order)


def _objective_and_vectors(X: np.ndarray, k2: int, proven: float):
    """f_k(X) and the top-2k eigenpairs of T_X, held to the caps lambda_1 <= 2, f_k <= ``proven``."""
    dec = eigensolver.eigh(double_commutator_lift(X), top=k2)
    top, obj = dec.values[0], float(dec.values.sum())
    require(top, 2.0, PROVEN_TOL, f"iterate broke the proven top-eigenvalue cap: {top!r}")
    require(obj, proven, PROVEN_TOL, f"iterate broke the proven partial-sum cap: {obj!r} > {proven!r}")
    return obj, dec


def _family_form(vectors: np.ndarray, n: int) -> np.ndarray:
    """sum_j L_{Y_j}* L_{Y_j} for the columns Y_j (vec coordinates) of
    ``vectors``, assembled once as in :func:`double_commutator_lift`.

    The Gram part takes the two n x n sums sum_j Y_j* Y_j and
    sum_j conj(Y_j) Y_j^T; the cross part
    -sum_j (Y_j^T kron Y_j* + conj(Y_j) kron Y_j) is one (n^2 x 4k)(4k x n^2)
    product indexed (i, j), (k, l), realigned to row (i, k), column (j, l).
    The form is Hermitian to about one ulp of its largest entry, not
    exactly: max |M - M*| was at most 1.04 eps max |M| over 5 unit Gaussian
    draws at each of orders 3, 6, 10 and 16 (top-6 vectors of the lift).
    """
    Ys = vectors.T.reshape(-1, n, n).swapaxes(-1, -2)
    Yt = Ys.swapaxes(-1, -2)
    Yc = Ys.conj()
    left = np.concatenate([Yt, Yc]).reshape(-1, n * n)
    right = np.concatenate([Yc.swapaxes(-1, -2), Ys]).reshape(-1, n * n)
    M = np.ascontiguousarray((left.T @ -right).reshape(n, n, n, n).transpose(0, 2, 1, 3))
    rows = Ys.reshape(-1, n)  # the Y_j stacked vertically
    cols = Yt.reshape(-1, n).T  # and side by side
    d = np.arange(n)
    M[d, :, d, :] += rows.conj().T @ rows
    M[:, d, :, d] += cols.conj() @ cols.T
    return M.reshape(n * n, n * n)


def _single_ascent(
    X: np.ndarray, config: SearchConfig, proven: float
) -> tuple[float, np.ndarray, int, float, bool]:
    n, k2 = config.order, 2 * config.k
    obj, dec = _objective_and_vectors(X, k2, proven)
    first, monotone, flat = obj, True, 0
    for iterations in range(1, config.max_iters + 1):  # max_iters >= 1 (validate_config)
        M = _family_form(dec.vectors, n)
        X = normalized(unvec(eigensolver.eigh(M, top=1).vectors[:, 0], n))
        new_obj, dec = _objective_and_vectors(X, k2, proven)
        monotone = monotone and new_obj >= obj - 1e-10
        rel = (new_obj - obj) / max(abs(obj), 1e-300)
        obj = new_obj
        flat = flat + 1 if rel < ASCENT_TOL else 0
        if flat >= FLAT_ITERS:
            break
    return obj, X, iterations, first, monotone


def ascend(config: SearchConfig) -> SearchResult:
    """Multi-restart ascent on f_k; deterministic for a fixed config.

    Restart streams are split from the root seed by index, so the result does
    not depend on evaluation order; the best restart wins, ties to the lower
    index. Objectives are compared as computed, so restarts that reach the
    same optimum up to rounding are not ties: a rounding-level change can
    move ``best_matrix`` to another maximizer.
    """
    validate_config(config)
    n, k = config.order, config.k
    conjectured, proven = map(float, partial_sum_caps(k, n))
    best_obj = -np.inf
    best_X: np.ndarray | None = None
    traces: list[RestartTrace] = []
    monotone_all = True
    for r in range(config.restarts):
        obj, X, iters, first, mono = _single_ascent(_draw_init(config, r), config, proven)
        monotone_all = monotone_all and mono
        traces.append(RestartTrace(index=r, first_objective=first, last_objective=obj, iterations=iters))
        if obj > best_obj:
            best_obj, best_X = obj, X
    verdict = judge(
        "C2A", [best_X], best_obj, conjectured, 0.0, VIOLATION_MARGIN, config.seed
    )
    return SearchResult(
        objective="partial_sum",
        order=n,
        k=k,
        best_objective=best_obj,
        best_matrix=best_X,
        conjectured_bound=conjectured,
        proven_bound=proven,
        gap_to_conjecture=float(conjectured - best_obj),
        monotone_ok=monotone_all,
        restarts=tuple(traces),
        violation=verdict.witness,
    )


def lambda13_search(config: SearchConfig) -> SearchResult:
    """Maximize lambda_1 + lambda_3 (half the k=2 partial sum under pairing).

    Runs :func:`ascend` on ``config``, whose ``k`` must be 2. For n = 2 the
    third eigenvalue vanishes and the value reduces to lambda_1. The
    conjectured cap is 3, the proven cap (4 + sqrt(10))/2. A breach is the
    ascent's own C2A bundle: f_2 above 6 + ``VIOLATION_MARGIN``.
    """
    if config.k != 2:
        raise PreconditionError(f"lambda13_search needs k = 2, got {config.k}")
    base = ascend(config)
    half = base.best_objective / 2.0
    broke = f"lambda_1 + lambda_3 = {half!r} broke its proven cap {LAMBDA13_BOUND!r}"
    require(half, LAMBDA13_BOUND, PROVEN_TOL, broke)
    return replace(
        base,
        objective="lambda13",
        best_objective=half,
        conjectured_bound=3.0,
        proven_bound=float(LAMBDA13_BOUND),
        gap_to_conjecture=float(3.0 - half),
        restarts=tuple(
            replace(t, first_objective=t.first_objective / 2, last_objective=t.last_objective / 2)
            for t in base.restarts
        ),
    )


def sweep(
    n_values,
    k_rule="all",
    trials: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Random-ensemble monitor sweep over orders and partial-sum indices.

    Draws alternate complex (even trial index) and real (odd) Gaussian
    matrices, normalized once by the spectral core, so each is bit for bit
    ``ensembles.unit_gaussian`` of its trial stream. Per trial the proven
    ladder is asserted hard; a C2A breach at some k lands as a bundle in
    that (n, k) row, and weak-majorization (C4) breaches, which are not tied
    to a single k, go to the report's top-level ``majorization_violations``.
    Every bundle is the witness of a :func:`verdicts.judge` verdict, as in
    the monitors. ``k_rule`` is "all" or one int k. Orders run from 2 to 64,
    the lift limit (:func:`lifted.check_lift_order`).

    Every order, k, ``trials`` and ``seed`` is checked before the first draw;
    a bool, a float or a negative seed among them is refused. Each order's trials
    run through the batched spectral core in chunks of at most
    ``CHUNK_LIFT_ENTRIES`` lift entries; the report does not depend on where
    the chunks break, and a failed check raises what the lowest failing trial raises.
    """
    if _require_integer(trials, "trials") < 1:
        raise PreconditionError(f"sweep needs at least one trial, got {trials}")
    if _require_integer(seed, "seed") < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    orders = [_require_integer(n, "order") for n in n_values]
    if len(set(orders)) != len(orders):
        raise PreconditionError(f"sweep names an order twice: {orders}")
    plan = []
    for n in orders:
        ks = list(range(1, n * n // 2 + 1)) if k_rule == "all" else [_require_integer(k_rule, "k")]
        _check_order_and_k(n, ks)
        plan.append((n, ks))
    rows = []
    majorization_violations: list[dict] = []
    for n, ks in plan:
        cols = 2 * np.asarray(ks, dtype=np.intp) - 1
        caps, proven = partial_sum_caps(ks, n)
        max_f = np.full(len(ks), -np.inf)
        argmax: list[np.ndarray | None] = [None] * len(ks)
        row_violations: list[list[dict]] = [[] for _ in ks]
        step = _chunk_size(n)
        for start in range(0, trials, step):
            X = np.stack(
                [
                    ensembles.gaussian_matrix(ensembles.trial_rng(seed, n, t), n, real=bool(t % 2))
                    for t in range(start, min(start + step, trials))
                ]
            )
            spec = spectral_batch(X)
            ladder = ladder_batch(spec.matrices, spec.values)
            # raise what the lowest failing trial would raise on its own
            min_slack = ladder.min_slack()
            ok = holds(-spec.values[:, -1], 0.0, IDENTITY_TOL) & holds(spec.trace_residual, 0.0, IDENTITY_TOL)
            for i in np.flatnonzero(~(ok & holds(-min_slack, 0.0, PROVEN_TOL)))[:1]:
                where = f" (order {n}, trial {start + i})"
                spec.require_identities(i, where)
                require(-min_slack[i], 0.0, PROVEN_TOL, "proven ladder failed on a sweep draw" + where)
            f = ladder.prefix[:, cols]
            best = np.argmax(f, axis=0)  # first occurrence, as a strict > scan
            top = f[best, np.arange(len(ks))]
            for j in np.flatnonzero(top > max_f):
                max_f[j] = top[j]
                argmax[j] = spec.matrices[best[j]]
            # holds() flags the chunk's breaches; judge() decides each on the same floats
            for i, j in zip(*np.nonzero(~holds(f, caps, tol))):
                verdict = judge("C2A", [spec.matrices[i]], f[i, j], caps[j], 0.0, tol, seed)
                row_violations[j].append(verdict.witness)
            c4_ok, c4_lhs, c4_rhs = majorization_batch(spec.values, tol=tol)
            for i in np.flatnonzero(~c4_ok):
                verdict = judge("C4", [spec.matrices[i]], c4_lhs[i], c4_rhs[i], 0.0, tol, seed)
                majorization_violations.append(verdict.witness)
        for j, k in enumerate(ks):
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "trials": trials,
                    "max_f": float(max_f[j]),
                    "argmax_matrix": None if argmax[j] is None else matrix_payload(argmax[j]),
                    "bound_conjectured": float(caps[j]),
                    "bound_proven": float(proven[j]),
                    "violations": row_violations[j],
                }
            )
    return {
        "seed": int(seed),
        "trials_per_order": int(trials),
        "ensemble": "unit gaussian, alternating complex/real",
        "rows": rows,
        "majorization_violations": majorization_violations,
    }
