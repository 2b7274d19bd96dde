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

from dataclasses import dataclass, field

import numpy as np

from . import ensembles
from .errors import InvariantViolationError, PreconditionError
from .lifted import double_commutator_lift
from .matrices import DEFAULT_ORDER_CAP, as_matrix, check_order_cap, normalized, unvec
from .spectra import LAMBDA13_BOUND, ladder_batch, majorization_batch, spectral_batch
from .verdicts import holds, judge, make_bundle, matrix_payload
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
    """Ascent parameters; all randomness flows from ``seed``."""

    order: int
    k: int
    restarts: int = 20
    max_iters: int = 500
    seed: int = 0
    init: str = "random_gaussian"
    matrix: np.ndarray | None = None
    max_order: int = DEFAULT_ORDER_CAP


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


def validate_config(config: SearchConfig) -> None:
    n = config.order
    if n < 2:
        raise PreconditionError(f"need order >= 2, got {n}")
    check_order_cap(n, config.max_order)
    if not 1 <= config.k <= (n * n) // 2:
        raise PreconditionError(f"need 1 <= k <= {(n * n) // 2}, got {config.k}")
    if config.restarts < 1:
        raise PreconditionError("need at least one restart")
    if config.max_iters < 1:
        raise PreconditionError("need at least one iteration")
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


def _objective_and_vectors(X: np.ndarray, k2: int):
    dec = eigensolver.eigh(double_commutator_lift(X), top=k2)
    return float(dec.values.sum()), dec


def _family_form(vectors: np.ndarray, n: int) -> np.ndarray:
    """sum_j L_{Y_j}* L_{Y_j} for the columns Y_j (vec coordinates) of
    ``vectors``, assembled once as in :func:`double_commutator_lift`.

    The Gram part takes the two n x n sums sum_j Y_j* Y_j and
    sum_j conj(Y_j) Y_j^T; the cross part
    -sum_j (Y_j^T kron Y_j* + conj(Y_j) kron Y_j) is one (n^2 x 4k)(4k x n^2)
    product indexed (i, j), (k, l), realigned to row (i, k), column (j, l).
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


def _check_caps(values: np.ndarray, obj: float, proven: float) -> None:
    if values[0] > 2.0 + 1e-8:
        raise InvariantViolationError(
            f"iterate broke the proven top-eigenvalue cap: {values[0]!r}"
        )
    if obj > proven + 1e-8:
        raise InvariantViolationError(
            f"iterate broke the proven partial-sum cap: {obj!r} > {proven!r}"
        )


def _single_ascent(
    X0: np.ndarray, config: SearchConfig, proven: float
) -> tuple[float, np.ndarray, int, float, bool]:
    n = config.order
    k2 = 2 * config.k
    X = X0
    obj, dec = _objective_and_vectors(X, k2)
    _check_caps(dec.values, obj, proven)
    first = obj
    monotone = True
    flat = 0
    iterations = 0
    for _ in range(config.max_iters):
        iterations += 1
        M = _family_form(dec.vectors, n)
        X = normalized(unvec(eigensolver.eigh(M, top=1).vectors[:, 0], n))
        new_obj, dec = _objective_and_vectors(X, k2)
        _check_caps(dec.values, new_obj, proven)
        if new_obj < obj - 1e-10:
            monotone = False
        rel = (new_obj - obj) / max(abs(obj), 1e-300)
        obj = new_obj
        if rel < ASCENT_TOL:
            flat += 1
            if flat >= FLAT_ITERS:
                break
        else:
            flat = 0
    return obj, X, iterations, first, monotone


def ascend(config: SearchConfig) -> SearchResult:
    """Multi-restart ascent on f_k; deterministic for a fixed config.

    Restart streams are split from the root seed by index, so the result does
    not depend on evaluation order; the best restart wins, ties to the lower
    index.
    """
    validate_config(config)
    n, k = config.order, config.k
    proven = float(min(2 * k + 1 + 2 * np.sqrt(k), 2.0 * n))
    conjectured = float(2 * k + 2)
    best_obj = -np.inf
    best_X: np.ndarray | None = None
    traces: list[RestartTrace] = []
    monotone_all = True
    for r in range(config.restarts):
        obj, X, iters, first, mono = _single_ascent(_draw_init(config, r), config, proven)
        monotone_all = monotone_all and mono
        traces.append(RestartTrace(index=r, first_objective=first, last_objective=obj, iterations=iters))
        if obj > best_obj:
            best_obj = obj
            best_X = X
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
    if half > LAMBDA13_BOUND + 1e-8:
        raise InvariantViolationError(
            f"lambda_1 + lambda_3 = {half!r} broke its proven cap {LAMBDA13_BOUND!r}"
        )
    return SearchResult(
        objective="lambda13",
        order=config.order,
        k=2,
        best_objective=half,
        best_matrix=base.best_matrix,
        conjectured_bound=3.0,
        proven_bound=float(LAMBDA13_BOUND),
        gap_to_conjecture=float(3.0 - half),
        monotone_ok=base.monotone_ok,
        restarts=tuple(
            RestartTrace(t.index, t.first_objective / 2.0, t.last_objective / 2.0, t.iterations)
            for t in base.restarts
        ),
        violation=base.violation,
    )


def sweep(
    n_values,
    k_rule="all",
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
    max_order: int = DEFAULT_ORDER_CAP,
) -> dict:
    """Random-ensemble monitor sweep over orders and partial-sum indices.

    Draws alternate complex (even trial index) and real (odd) unit Gaussian
    matrices. Per trial the proven ladder is asserted hard; a C2A breach at
    some k lands as a bundle in that (n, k) row, and weak-majorization (C4)
    breaches, which are not tied to a single k, go to the report's top-level
    ``majorization_violations``. ``k_rule`` is "all" or one int k.

    Each order's trials run through the batched spectral core in chunks of
    at most ``CHUNK_LIFT_ENTRIES`` lift entries; the report does not depend
    on where the chunks break, and a failed check raises what the lowest
    failing trial raises.
    """
    if trials < 1:
        raise PreconditionError(f"sweep needs at least one trial, got {trials}")
    rows = []
    majorization_violations: list[dict] = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise PreconditionError(f"sweep needs orders >= 2, got {n}")
        check_order_cap(n, max_order)
        N = n * n
        ks = list(range(1, N // 2 + 1)) if k_rule == "all" else [int(k_rule)]
        for k in ks:
            if not 1 <= k <= N // 2:
                raise PreconditionError(f"k = {k} out of range for order {n}")
        cols = 2 * np.asarray(ks, dtype=np.intp) - 1
        caps = 2.0 * np.asarray(ks, dtype=np.float64) + 2.0
        max_f = np.full(len(ks), -np.inf)
        argmax: list[np.ndarray | None] = [None] * len(ks)
        row_violations: list[list[dict]] = [[] for _ in ks]
        step = _chunk_size(n)
        for start in range(0, trials, step):
            X = np.stack(
                [
                    ensembles.unit_gaussian(ensembles.trial_rng(seed, n, t), n, real=bool(t % 2))
                    for t in range(start, min(start + step, trials))
                ]
            )
            spec = spectral_batch(X)
            ladder = ladder_batch(spec.matrices, spec.values)
            # raise what the lowest failing trial would raise on its own
            failed = [i for i, msg in enumerate(spec.failures) if msg or not ladder.hold[i]]
            if failed:
                i = failed[0]
                raise InvariantViolationError(
                    spec.failures[i]
                    or f"proven ladder failed on a sweep draw (order {n}, trial {start + i})"
                )
            f = ladder.prefix[:, cols]
            best = np.argmax(f, axis=0)  # first occurrence, as a strict > scan
            top = f[best, np.arange(len(ks))]
            for j in np.flatnonzero(top > max_f):
                max_f[j] = top[j]
                argmax[j] = X[best[j]]
            c2a = ~holds(f, caps, tol)
            c4_ok, c4_lhs, c4_rhs = majorization_batch(spec.values, tol=tol)
            for i in np.flatnonzero(c2a.any(axis=1) | ~c4_ok):
                for j, k in enumerate(ks):
                    if c2a[i, j]:
                        row_violations[j].append(
                            make_bundle("C2A", [X[i]], f[i, j], caps[j], 0.0, seed)
                        )
                if not c4_ok[i]:
                    majorization_violations.append(
                        make_bundle("C4", [normalized(X[i])], c4_lhs[i], c4_rhs[i], 0.0, seed)
                    )
        for j, k in enumerate(ks):
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "trials": trials,
                    "max_f": float(max_f[j]),
                    "argmax_matrix": None if argmax[j] is None else matrix_payload(argmax[j]),
                    "bound_conjectured": float(2 * k + 2),
                    "bound_proven": float(min(2 * k + 1 + 2 * np.sqrt(k), 2.0 * n)),
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
