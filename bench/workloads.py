"""The four benchmark workloads: inputs, the timed operation, and its checks.

Each workload is a closed loop with one caller. Inputs come from the
benchmark seed alone: operation ``i`` of a run with seed ``s`` always sees
the same input. The library sees only generated matrices, seeds and files,
and every call into it goes through a module attribute at call time, so the
tracer's wrappers are the ones that run.

Why these four (each stresses a different cost):

* ``sweep``: thousands of tiny matrices, where per-matrix Python overhead in
  spectra, search, ensembles and matrices dominates and LAPACK is minor.
* ``spectrum``: orders 10-16, where the O(n^6) lift and ``eigvalsh``
  dominate; structured classes give large eigenvalue clusters.
* ``ascent``: full ``eigh`` with eigenvectors, phase fixing and the
  commutator-lift assembly of the ascent's quadratic form.
* ``cli``: the only path through cli, matrixio, reporting (schema
  validation), verdicts (bundles) and closed_forms.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import commspectra
import commspectra.cli  # not imported by the package itself

SWEEP_ORDERS = (2, 3, 4, 5, 6)
SWEEP_TRIALS = 10  # trials per order in one sweep call
SPECTRUM_ORDERS = (10, 16)  # inclusive range
SPECTRUM_CLASSES = ("ginibre", "real_ginibre", "normal", "rank_one", "embedded")
SPECTRUM_LOG10_SCALE = 3.0  # Frobenius norm log-uniform in [1e-3, 1e3]
EXTREME_LOG10_SCALE = (150.0, 300.0)  # |log10 norm| of the extreme-scale probes
EXTREME_PROBES = 40
ASCENT_ORDER, ASCENT_K = 10, 3
ASCENT_POOL = Path(__file__).resolve().parent / "ascent_pool.json"
CLI_ORDER = 8
CLI_FAMILY = 3  # isotropic family size for `check isotropic`
CLI_SETS = 4  # distinct matrix sets the command cycle reads

# Stated tolerances of the output checks (eigenvalues of unit-norm inputs
# lie in [0, 2]; double precision reaches about 1e-13 at order 256).
TRACE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8
BOUND_TOL = 1e-8


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def op_seed(seed: int, *index: int) -> int:
    """Library seed for operation ``index`` of a run with benchmark ``seed``."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def _rng(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, *index])


def _ginibre(rng, n, real=False):
    G = rng.standard_normal((n, n))
    return G if real else G + 1j * rng.standard_normal((n, n))


def _haar(rng, n):
    Q, R = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def draw_matrix(rng, n: int, kind: str) -> np.ndarray:
    """Unit-Frobenius-norm draw of one spectrum class."""
    if kind in ("ginibre", "real_ginibre"):
        X = _ginibre(rng, n, real=kind == "real_ginibre")
    elif kind == "normal":
        U = _haar(rng, n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = (U * d) @ U.conj().T
    elif kind == "rank_one":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = np.outer(u, v.conj())
    elif kind == "embedded":
        X0 = _ginibre(rng, 2)
        X0 = X0 - np.trace(X0) / 2 * np.eye(2)
        Q = _haar(rng, n)[:, :2]
        X = Q @ X0 @ Q.conj().T
    else:
        raise ValueError(f"unknown class {kind!r}")
    return np.asarray(X / np.linalg.norm(X), dtype=np.complex128)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = commspectra.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Interface of a workload; ``x`` is one operation's input."""

    name: str
    work_unit: str  # what ``work`` counts, for work_per_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, i: int):
        raise NotImplementedError

    @staticmethod
    def run(x):
        raise NotImplementedError

    def check(self, x, out) -> None:
        """Raise CheckFailed unless ``out`` is a correct output for ``x``."""
        raise NotImplementedError

    def reference(self, x, out) -> dict:
        """Values compared with reference.json for the reference seed."""
        raise NotImplementedError

    def work(self, x) -> int:
        return 1

    def probe_inputs(self) -> list:
        """Inputs known to fail today, run untimed after the timed loop."""
        return []

    def probe_arg(self, x):
        """JSON form of ``x`` for the fresh-interpreter set-up probe."""
        return x

    @staticmethod
    def from_probe_arg(arg):
        return arg


class Sweep(Workload):
    """One op is ``sweep(SWEEP_ORDERS, trials=SWEEP_TRIALS, seed=s_i)``."""

    name = "sweep"
    work_unit = "trials"

    def make_input(self, i: int) -> int:
        return op_seed(self.seed, i)

    def work(self, x) -> int:
        return SWEEP_TRIALS * len(SWEEP_ORDERS)

    @staticmethod
    def run(x):
        return commspectra.search.sweep(SWEEP_ORDERS, trials=SWEEP_TRIALS, seed=x)

    def check(self, x, out) -> None:
        rows = out["rows"]
        _require(len(rows) == sum(n * n // 2 for n in SWEEP_ORDERS), "sweep row count")
        for row in rows:
            _require(row["trials"] == SWEEP_TRIALS, "sweep trials per row")
            _require(row["max_f"] <= row["bound_proven"] + BOUND_TOL, "sweep proven bound")
            _require(not row["violations"], "sweep C2A violation on a random draw")
        _require(not out["majorization_violations"], "sweep C4 violation on a random draw")

    def reference(self, x, out) -> dict:
        return {"max_f": [row["max_f"] for row in out["rows"]]}


class Spectrum(Workload):
    """One op is the spectrum, bound ladder and both monitors of one matrix."""

    name = "spectrum"
    work_unit = "matrices"
    probe_label = "|log10 ||X||| in [{:g}, {:g}]".format(*EXTREME_LOG10_SCALE)

    # Every (order, class) cell once per block of ops, in a shuffled order:
    # op time grows as n^6, so a free draw of the mix would move op_ms.p50
    # from seed to seed more than the machine does.
    CELLS = [
        (n, kind)
        for n in range(SPECTRUM_ORDERS[0], SPECTRUM_ORDERS[1] + 1)
        for kind in SPECTRUM_CLASSES
    ]

    def make_input(self, i: int):
        block, j = divmod(i, len(self.CELLS))
        n, kind = self.CELLS[_rng(self.seed, 4, block).permutation(len(self.CELLS))[j]]
        rng = _rng(self.seed, 0, i)
        scale = 10.0 ** rng.uniform(-SPECTRUM_LOG10_SCALE, SPECTRUM_LOG10_SCALE)
        return kind, scale * draw_matrix(rng, n, kind)

    def probe_inputs(self) -> list:
        return [self.extreme_input(j) for j in range(EXTREME_PROBES)]

    def extreme_input(self, j: int):
        """Extreme-scale probe j: |log10 ||X||| in EXTREME_LOG10_SCALE."""
        rng = _rng(self.seed, 1, j)
        n = int(rng.integers(SPECTRUM_ORDERS[0], SPECTRUM_ORDERS[1] + 1))
        kind = SPECTRUM_CLASSES[int(rng.integers(len(SPECTRUM_CLASSES)))]
        exponent = rng.uniform(*EXTREME_LOG10_SCALE) * rng.choice((-1.0, 1.0))
        return kind, 10.0**exponent * draw_matrix(rng, n, kind)

    @staticmethod
    def run(x):
        X = x[1]
        spec = commspectra.spectra.double_commutator_spectrum(X)
        return (
            spec,
            commspectra.spectra.bound_report(X, spectrum=spec),
            commspectra.spectra.monitor_partial_sums(X, spectrum=spec),
            commspectra.spectra.monitor_majorization(X, spectrum=spec),
        )

    def check(self, x, out) -> None:
        kind, X = x
        spec, ladder, c2a, c4 = out
        n = X.shape[0]
        values = spec.values
        _require(values.shape == (n * n,), "spectrum size")
        m = np.abs(X).max()  # prescale: extreme-scale probes reach this check too
        Xh = (X / m) / np.linalg.norm(X / m)
        target = 2.0 * n - 2.0 * abs(np.trace(Xh)) ** 2
        _require(abs(values.sum() - target) <= TRACE_TOL, "trace identity")
        _require(ladder.all_proven_hold, "proven bound ladder")
        _require(c2a.satisfied and c4.satisfied, "conjecture monitor on a class draw")
        cf = commspectra.closed_forms
        if kind == "normal":
            diff = np.abs(cf.normal_spectrum(X) - values).max()
            _require(diff <= CLOSED_FORM_TOL, "normal closed form")
        elif kind == "rank_one":
            is_r1, t = cf.detect_rank_one(X)
            _require(is_r1, "rank-one detection")
            diff = np.abs(cf.rank_one_spectrum(n, t) - values).max()
            _require(diff <= CLOSED_FORM_TOL, "rank-one closed form")
        elif kind == "embedded":
            witness = cf.detect_equality_case(X, spectrum=spec)
            _require(witness is not None, "equality case lambda_1 = 2 detected")
            _require(abs(witness.lambda1 - 2.0) <= CLOSED_FORM_TOL, "equality value")

    def reference(self, x, out) -> dict:
        spec = out[0]
        return {"top4": spec.values[:4].tolist(), "norm_scale": spec.norm_scale}

    def probe_arg(self, x):
        kind, X = x
        return [kind, X.real.tolist(), X.imag.tolist()]

    @staticmethod
    def from_probe_arg(arg):
        kind, re, im = arg
        return kind, np.asarray(re) + 1j * np.asarray(im)


class Ascent(Workload):
    """One op is ``ascend(SearchConfig(order=10, k=3, restarts=1, seed=s_i))``.

    The library seeds ``s_i`` come from the stored pool (see
    make_ascent_pool.py), in an order set by the benchmark seed. The pool's
    known-failing seeds are the untimed probes.
    """

    name = "ascent"
    work_unit = "restarts"
    probe_label = "pool seeds where LAPACK zheevd does not converge"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        pool = json.loads(ASCENT_POOL.read_text())
        self.pool = pool["seeds"]
        self.failing = [entry["seed"] for entry in pool["failing"]]
        self.perm = _rng(seed, 3).permutation(len(self.pool))

    def make_input(self, i: int) -> int:
        return self.pool[self.perm[i % len(self.pool)]]

    def probe_inputs(self) -> list:
        return self.failing

    @staticmethod
    def run(x):
        search = commspectra.search
        return search.ascend(
            search.SearchConfig(order=ASCENT_ORDER, k=ASCENT_K, restarts=1, seed=x)
        )

    def check(self, x, out) -> None:
        _require(out.best_objective <= out.proven_bound + BOUND_TOL, "ascent proven bound")
        _require(out.monotone_ok, "ascent monotone")
        _require(out.violation is None, "ascent C2A violation")
        _require(len(out.restarts) == 1 and out.restarts[0].iterations >= 1, "ascent trace")

    def reference(self, x, out) -> dict:
        return {"best_objective": out.best_objective}


def isotropic_family(X: np.ndarray, m: int, rng) -> list[np.ndarray]:
    """Orthonormal family {w_i} with <[X, w_i]*, w_j> = 0 for all pairs.

    Each member is a Gaussian draw projected off the span of the earlier
    members and their images [X, w]*.
    """
    n = X.shape[0]
    basis: list[np.ndarray] = []  # orthonormal, column-major vec coordinates
    out = []

    def project(v):
        for q in basis:
            v = v - q * np.vdot(q, v)
        return v

    while len(out) < m:
        v = project(_ginibre(rng, n).ravel(order="F"))
        w = (v / np.linalg.norm(v)).reshape((n, n), order="F")
        out.append(w)
        for u in (w, (X @ w - w @ X).conj().T):
            u = project(u.ravel(order="F"))
            basis.append(u / np.linalg.norm(u))
    return out


def _write_matrix(path: Path, X: np.ndarray) -> None:
    payload = {"n": X.shape[0], "re": X.real.tolist(), "im": X.imag.tolist()}
    path.write_text(json.dumps(payload))


class Cli(Workload):
    """One op is one in-process ``cli.main(argv)`` call with ``--json``.

    The command cycle is fixed: six commands that exit 0 and one forced C4
    violation (``--tol -100``) that must exit 1 and write a bundle.
    """

    name = "cli"
    work_unit = "commands"
    COMMANDS = (
        "spectrum",
        "bounds",
        "closed-form",
        "conj4",
        "isotropic",
        "verify-paper-example",
        "violation",
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.dir = workdir
        self.sets = []
        for s in range(CLI_SETS):
            rng = _rng(seed, 2, s)
            X = 10.0 ** rng.uniform(-1, 1) * _ginibre(rng, CLI_ORDER)
            files = [self.dir / f"x{s}.json"]
            _write_matrix(files[0], X)
            for j, W in enumerate(isotropic_family(X, CLI_FAMILY, rng)):
                files.append(self.dir / f"x{s}_w{j}.json")
                _write_matrix(files[-1], W)
            self.sets.append([str(f) for f in files])
        self.bundle = self.dir / "bundle.json"

    def make_input(self, i: int):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        files = self.sets[(i // len(self.COMMANDS)) % CLI_SETS]
        x = files[0]
        argv = {
            "spectrum": ["spectrum", x],
            "bounds": ["bounds", x],
            "closed-form": ["closed-form", x],
            "conj4": ["check", "conj4", x],
            "isotropic": ["check", "isotropic", *files],
            "verify-paper-example": ["verify-paper-example"],
            "violation": ["check", "conj4", x, "--tol", "-100", "--bundle-out", str(self.bundle)],
        }[command]
        if command == "violation" and self.bundle.exists():
            self.bundle.unlink()  # the check needs a bundle this op wrote
        return command, argv + ["--json"]

    @staticmethod
    def run(x):
        return _run_cli(x[1])

    def check(self, x, out) -> None:
        command, _ = x
        code, text = out
        expected = 1 if command == "violation" else 0
        _require(code == expected, f"cli {command} exit code {code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"cli {command} stdout is not JSON") from exc
        _require(report.get("exit_code") == expected, f"cli {command} report exit code")
        if command == "violation":
            _require(self.bundle.exists(), "cli violation bundle written")
            bundle = json.loads(self.bundle.read_text())
            _require(bundle.get("conjecture_id") == "C4", "cli bundle id")
        if command == "isotropic":
            verdict = report["verdicts"][0]
            _require(verdict["satisfied"], "cli isotropic bound")

    def reference(self, x, out) -> dict:
        command, _ = x
        report = json.loads(out[1])
        value = {
            "spectrum": lambda r: r["spectrum"]["values"][0],
            "bounds": lambda r: r["bounds"]["lambda1"],
            "closed-form": lambda r: r["closed_form"]["dense_values"][0],
            "conj4": lambda r: r["verdicts"][0]["lhs"],
            "isotropic": lambda r: r["verdicts"][0]["lhs"],
            "verify-paper-example": lambda r: r["reference_check"]["first_four_sum"],
            "violation": lambda r: r["verdicts"][0]["rhs"],
        }[command](report)
        return {"command": command, "exit_code": out[0], "value": value}

    @staticmethod
    def from_probe_arg(arg):
        return tuple(arg)


WORKLOADS = {cls.name: cls for cls in (Sweep, Spectrum, Ascent, Cli)}

# Operations compared against the stored reference values, run with seed 0.
REFERENCE_SEED = 0
REFERENCE_OPS = {"sweep": 1, "spectrum": 5, "ascent": 1, "cli": 7}
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-10


def reference_values(name: str, workdir: Path) -> list[dict]:
    wl = WORKLOADS[name](REFERENCE_SEED, workdir)
    out = []
    for i in range(REFERENCE_OPS[name]):
        x = wl.make_input(i)
        out.append(wl.reference(x, wl.run(x)))
    return out


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(u, v) for u, v in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
    return a == b


def reference_ok(name: str, workdir: Path, stored: dict) -> bool:
    """Recompute the reference operations and compare at the stated tolerance."""
    return _close(reference_values(name, workdir), stored[name])
