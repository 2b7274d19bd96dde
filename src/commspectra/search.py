"""Monotone alternating ascent for extremal partial eigenvalue sums.

The objective f_k(X) = sum of the top 2k eigenvalues of T_X on the unit
Frobenius sphere alternates two maximizations:

(a) with X fixed, the optimal orthonormal 2k-family {Y_i} consists of the
    top eigenvectors of the lifted operator, achieving f_k(X);
(b) with {Y_i} fixed, sum_i ||[X, Y_i]||^2 is a quadratic form in vec(X)
    with matrix sum_i L_{Y_i}* L_{Y_i}, maximized by its top eigenvector.

Each half-step is one ``eigensolver.eigh`` of a :class:`lifted.FamilyForm`:
T_X, the family {X}'s form, for the top 2k pairs in step (a) (two more
above the size rule), and F = sum_i L_{Y_i}* L_{Y_i} for the top pair in
step (b). A start block selects a Rayleigh-Ritz step, and no start block a
dense solve of the form's lift; :func:`_warm_start_pays` picks per restart.

Below the size rule no step carries a start block: each solves its lift,
each half-step is a global maximum of its subproblem, the last step (a)
is already exact, and ``first_objective`` is f_k of the start. Above it
the first step (a) starts from an N x (2k + 2) Gaussian block of the
restart's own stream (real for a real start), every later one from the
previous 2k + 2 vectors, and step (b) from vec(X). The forms are applied
as commutators, T_X V = [X*, [X, V]] and F x = sum_i [Y_i*, [Y_i, x]], so
no lift is built and no dense solve is made until the last. By Ky Fan's
maximum principle on a subspace that holds the previous iterate, step (a)'s
top-2k Ritz sum is at least sum_i <T_X Y_i, Y_i>, step (b)'s value, and
step (b)'s is at least the form at the previous X; so the objective never
decreases from the first Ritz sum, the restart's ``first_objective``. A
Ritz value is at most the eigenvalue of its rank (Cauchy interlacing), so
that first objective is a lower bound on f_k of the start, and the proven
caps (lambda_1 <= 2 and f_k <= min(2k + 1 + 2 sqrt(k), 2n)) checked on
every iterate cannot fire falsely. The restart ends with the spectral
core's checked spectrum of its last iterate, the one lift it builds: that
f_k is the one reported and held to the caps.

The open question is whether f_k can exceed 2k + 2 (id C2A), and any
observed breach is serialized as a violation bundle. :func:`sweep` monitors
C2A and C4 on random ensembles and only orchestrates: ``ensembles`` draws
each chunk, the spectral core checks and judges it, and ``reporting``
encodes the rows.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import ensembles
from .errors import PreconditionError
from .lifted import FamilyForm, check_lift_order
from .matrices import as_matrix, normalized, unvec, vec
from .spectra import LAMBDA13_BOUND, double_commutator_spectrum, ladder_batch, majorization_batch
from .spectra import partial_sum_batch, partial_sum_caps, spectral_batch
from .verdicts import DEFAULT_TOL, PROVEN_TOL, holds, judge, require
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
    """One restart: its index, the objective of its first step (a) and of
    its last iterate, and its iteration count. The first objective is f_k
    of the start below the size rule (:func:`_warm_start_pays`: dense
    solves), and a Ritz lower bound on it above (Ritz steps)."""

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


def _checked_sum(values: np.ndarray, k2: int, proven: float) -> float:
    """The sum of the top ``k2`` of ``values`` (descending), held to the caps
    lambda_1 <= 2 and f_k <= ``proven``."""
    top, obj = values[0], float(values[:k2].sum())
    require(holds(top, 2.0, PROVEN_TOL), f"iterate broke the proven top-eigenvalue cap: {top!r}")
    require(holds(obj, proven, PROVEN_TOL), f"iterate broke the proven partial-sum cap: {obj!r} > {proven!r}")
    return obj


def _warm_start_pays(n: int, k: int) -> bool:
    """Whether the order-n ascent on f_k passes start blocks (Ritz steps):
    from order 6, where its step-(a) basis of 3(2k + 2) vectors is at most
    half of n^2. Median dense / Ritz restart time (16 seeds, one restart,
    one BLAS thread, alternating): 0.74-0.75 at (n, k) = (5, 1), 0.84-0.91
    at (6, 3), 0.97-1.00 at (7, 4), 1.10-1.11 at (8, 5) and 1.29-1.49 at
    (10, 8). So the rule is right at orders 5-7, and forgoes about 1.1x at
    (8, 5) and 1.3-1.5x at (10, 8)."""
    return n >= 6 and 6 * (2 * k + 2) <= n * n


def _single_ascent(
    config: SearchConfig, index: int, proven: float
) -> tuple[float, np.ndarray, int, float, bool]:
    n, k2 = config.order, 2 * config.k
    X = _draw_init(config, index)
    x = vec(X)[:, None]
    # above the size rule every step carries a start block, and step (a)
    # keeps two vectors beyond the 2k, so its block does not cut a pair; the
    # first block is Gaussian, real for a real X so a real start stays real
    warm = _warm_start_pays(n, config.k)
    p, start = k2, None
    if warm:
        p = k2 + 2
        rng = ensembles.trial_rng(config.seed, index, 1)
        start = rng.standard_normal((n * n, p))
        if X.imag.any():
            start = start + 1j * rng.standard_normal((n * n, p))
    dec = eigensolver.eigh(FamilyForm(X[None]), top=p, start=start)
    obj = first = _checked_sum(dec.values, k2, proven)
    monotone, flat = True, 0
    for iterations in range(1, config.max_iters + 1):  # max_iters >= 1 (validate_config)
        family = dec.vectors[:, :k2].T.reshape(k2, n, n).swapaxes(-1, -2)  # the unvec'd columns
        x = eigensolver.eigh(FamilyForm(family), top=1, start=x if warm else None).vectors
        X = normalized(unvec(x, n))
        dec = eigensolver.eigh(FamilyForm(X[None]), top=p, start=dec.vectors if warm else None)
        new_obj = _checked_sum(dec.values, k2, proven)
        monotone = monotone and new_obj >= obj - 1e-10
        rel = (new_obj - obj) / max(abs(obj), 1e-300)
        obj = new_obj
        flat = flat + 1 if rel < ASCENT_TOL else 0
        if flat >= FLAT_ITERS:
            break
    if warm:
        # a Ritz sum is a lower bound on f_k; the top 2k eigenvalues of the
        # last iterate are f_k, reported and held to the caps (the core
        # normalizes x as normalized() did, to X bit for bit)
        certified = _checked_sum(double_commutator_spectrum(unvec(x, n)).values, k2, proven)
        monotone = monotone and certified >= obj - 1e-10
        obj = certified
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
        obj, X, iters, first, mono = _single_ascent(config, r, proven)
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
    require(holds(half, LAMBDA13_BOUND, PROVEN_TOL), broke)
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
    ``ensembles.unit_gaussian`` of its trial stream: trial t of order n
    draws from ``trial_rng(seed, n, t)``'s stream, each chunk through
    :func:`ensembles.gaussian_trials` on the one generator of the call.
    Per trial the proven ladder is asserted hard; a C2A breach at some k
    lands as a bundle in that (n, k) row, and weak-majorization (C4)
    breaches, which are not tied to a single k, go to the report's
    top-level ``majorization_violations``.
    Every bundle is the witness of a :func:`verdicts.judge` verdict, as in
    the monitors. ``k_rule`` is "all" or one int k. Orders run from 2 to 64,
    the lift limit (:func:`lifted.check_lift_order`).

    Every order, k, ``trials`` and ``seed`` is checked before the first draw;
    a bool, a float or a negative seed among them is refused, and so is an
    empty or repeating list of orders. Each order's trials
    run through the batched spectral core in chunks of at most
    ``CHUNK_LIFT_ENTRIES`` lift entries; the report does not depend on where
    the chunks break, and a failed check raises what the lowest failing trial raises.
    Rows hold data, not JSON: ``argmax_matrix`` is a copy of the n x n unit matrix
    that first reached ``max_f``, which :func:`reporting.jsonable` encodes.
    """
    # kept as ints: a numpy integer in the rows or bundles is not JSON
    trials = _require_integer(trials, "trials")
    if trials < 1:
        raise PreconditionError(f"sweep needs at least one trial, got {trials}")
    seed = _require_integer(seed, "seed")
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    orders = [_require_integer(n, "order") for n in n_values]
    if not orders:
        raise PreconditionError("sweep names no order")
    if len(set(orders)) != len(orders):
        raise PreconditionError(f"sweep names an order twice: {orders}")
    plan = []
    for n in orders:
        if k_rule == "all":
            _check_order_and_k(n, ())
            plan.append((n, list(range(1, n * n // 2 + 1))))  # in range by construction
        else:
            ks = [_require_integer(k_rule, "k")]
            _check_order_and_k(n, ks)
            plan.append((n, ks))
    # one generator for the whole sweep, moved onto each trial's stream
    rng = np.random.default_rng(0)
    rows = []
    majorization_violations: list[dict] = []
    for n, ks in plan:
        caps, proven = partial_sum_caps(ks, n)
        max_f = np.full(len(ks), -np.inf)
        argmax: list[np.ndarray | None] = [None] * len(ks)
        row_violations: list[list[dict]] = [[] for _ in ks]
        step = _chunk_size(n)
        for start in range(0, trials, step):
            X = ensembles.gaussian_trials(rng, seed, n, range(start, min(start + step, trials)))
            spec = spectral_batch(X)
            ladder = ladder_batch(spec)
            # raise what the lowest failing trial would raise on its own
            ok = spec.positivity_holds & spec.trace_identity_holds & ladder.all_proven_hold
            for i in np.flatnonzero(~ok)[:1]:
                where = f" (order {n}, trial {start + i})"
                spec.require_identities(i, where)
                require(ladder.all_proven_hold[i], "proven ladder failed on a sweep draw" + where)
            c2a_ok, f, _ = partial_sum_batch(spec, ks, tol)
            best = np.argmax(f, axis=0)  # first occurrence, as a strict > scan
            top = f[best, np.arange(len(ks))]
            for j in np.flatnonzero(top > max_f):
                # a copy, so a row does not hold its whole chunk
                max_f[j], argmax[j] = top[j], spec.matrix[best[j]].copy()
            # the batch flags the chunk's breaches; judge() decides each on the same floats
            for i, j in zip(*np.nonzero(~c2a_ok)):
                verdict = judge("C2A", [spec.matrix[i]], f[i, j], caps[j], 0.0, tol, seed)
                row_violations[j].append(verdict.witness)
            c4_ok, c4_lhs, c4_rhs = majorization_batch(spec, tol=tol)
            for i in np.flatnonzero(~c4_ok):
                verdict = judge("C4", [spec.matrix[i]], c4_lhs[i], c4_rhs[i], 0.0, tol, seed)
                majorization_violations.append(verdict.witness)
        rows += [
            {"n": n, "k": k, "trials": trials, "max_f": value, "argmax_matrix": M,
             "bound_conjectured": cap, "bound_proven": weak, "violations": found}
            for k, value, M, cap, weak, found in zip(
                ks, max_f.tolist(), argmax, caps.tolist(), proven.tolist(), row_violations
            )
        ]
    return {
        "seed": seed,
        "trials_per_order": trials,
        "ensemble": "unit gaussian, alternating complex/real",
        "rows": rows,
        "majorization_violations": majorization_violations,
    }
