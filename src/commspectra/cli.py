"""Command-line interface.

Subcommands: ``spectrum``, ``bounds``, ``check <kind>``, ``closed-form``,
``search``, ``verify-paper-example``. Shared flags: ``--json`` (emit the run
report on stdout), ``--seed`` (u64 root seed; commands that draw randomness
log an entropy seed when it is omitted), ``--out`` (also write the report
JSON to a file). Each subcommand is a runner, which loads the inputs and
computes the report sections, and a text renderer of the finished report
(:data:`COMMANDS`); :func:`main` decides the exit code (:func:`exit_code`),
writes the bundle and builds the one report.

Exit codes: 0 success, 1 conjecture violation found (the violation bundle is
written to ``--bundle-out`` or a default path), 2 input or hypothesis error
(an ``--out`` that names the bundle's file included: neither is written),
3 numerical failure, a broken proven bound included.
"""
from __future__ import annotations

import argparse
import functools
import secrets
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closed_forms, conjectures, matrixio, reporting, spectra
from . import search as search_mod
from .errors import (
    CommSpectraError,
    ConvergenceError,
    InvariantViolationError,
    PreconditionError,
)
from .reporting import fmt
from .verdicts import DEFAULT_TOL, require, write_bundle

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# check kind -> conjecture id; conjectures.CHECKERS gives each its checker
CHECK_KINDS = dict(
    conj1="C1", conj2="C2", conj2c="C2C", conj4="C4",
    lu="LU_LEMMA", numbers="NUMBERS_LEMMA", isotropic="ISOTROPIC",
)

# Built-in 3x3 reference example (entries quoted to 4 decimals) and the two
# values cited for it: the first-four eigenvalue sum and the certificate
# bound 4(s1^2 + s2^2) + phi, both on the matrix as given.
REFERENCE_MATRIX = np.array(
    [
        [-0.1236, 0.0334, 0.0647],
        [-0.4343, 0.1029, -0.8833],
        [0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)
REFERENCE_FIRST_FOUR = 5.9814
REFERENCE_CERTIFICATE = 7.0554


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _tol_type(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError("tolerance must be finite")
    return value


def _error_bound_type(text: str) -> float:
    """A tolerance that is not negative: no error is below zero."""
    value = _tol_type(text)
    if value < 0:
        raise argparse.ArgumentTypeError("an error bound cannot be negative")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit the run report as JSON on stdout")
    parser.add_argument("--seed", type=_seed_type, default=None, help="root seed (u64)")
    parser.add_argument("--out", default=None, help="also write the report JSON to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commspectra",
        description="Spectra and bound checks for the double-commutator operator [X*, [X, .]]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of the lifted operator for one matrix file")
    p.add_argument("path", help="matrix file (JSON {n, re, im} or text rows of a+bi tokens)")
    _add_common(p)

    p = sub.add_parser("bounds", help="evaluate the proven bound ladder for one matrix file")
    p.add_argument("path", help="matrix file")
    _add_common(p)

    p = sub.add_parser("check", help="run one inequality checker on explicit inputs")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument(
        "paths",
        nargs="+",
        help="matrix files (conj1: family; conj2/conj2c: pivot then family; "
        "conj4: one matrix; isotropic: X then family) or one payload file (lu, numbers)",
    )
    p.add_argument("--bundle-out", default=None, help="where to write a violation bundle")
    p.add_argument("--tol", type=_tol_type, default=DEFAULT_TOL, help="verdict tolerance (default 1e-08)")
    _add_common(p)

    p = sub.add_parser("closed-form", help="classify a matrix and compare closed-form spectra")
    p.add_argument("path", help="matrix file")
    _add_common(p)

    p = sub.add_parser("search", help="extremal search and random-ensemble sweeps")
    p.add_argument("--n", required=True, help="matrix order (comma-separated list for --objective sweep)")
    p.add_argument("--k", type=int, default=None, help="partial-sum index (sweep default: all)")
    # None marks a flag as not given: run_search refuses one its objective cannot use
    config = search_mod.SearchConfig
    p.add_argument("--restarts", type=int, help=f"ascent restarts (default {config.restarts})")
    p.add_argument("--max-iters", type=int, help=f"iterations per restart (default {config.max_iters})")
    p.add_argument("--init", choices=search_mod.INIT_KINDS, help=f"ascent start (default {config.init})")
    p.add_argument("--matrix", default=None, help="matrix file for --init user_matrix")
    p.add_argument(
        "--objective",
        choices=("partial-sum", "lambda13", "sweep"),
        default="partial-sum",
    )
    p.add_argument("--trials", type=int, help="draws per order for --objective sweep (default 1000)")
    p.add_argument("--bundle-out", default=None, help="where to write a violation bundle")
    p.add_argument("--tol", type=_tol_type, help="verdict tolerance for --objective sweep (default 1e-08)")
    _add_common(p)

    p = sub.add_parser(
        "verify-paper-example",
        help="recompute the two cited values for the built-in 3x3 reference example",
    )
    p.add_argument("--tol", type=_error_bound_type, default=1e-3, help="largest accepted error (default 0.001)")
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Shared by every main() call: safe while no argument has a mutable default or an append action.
    return build_parser()


@dataclass(frozen=True)
class Run:
    """What a runner hands back to :func:`main`."""

    sections: dict  # report sections; result dataclasses serialize as they are
    inputs: tuple = ()  # the report's {path, sha256} of each input file (see _load)
    tol: float | None = None  # the verdict tolerance applied, if any
    bundle: dict | None = None  # the first violation found, if any


def exit_code(run: Run) -> int:
    """The exit code of a run that finished: 2 for a verdict whose hypotheses
    do not hold (:attr:`ConjectureVerdict.hypotheses_hold`, a scale-free
    residual against one threshold that ``--tol`` does not move), 3 for a
    missed reference check, 1 for a bundle, else 0."""
    if not all(v.hypotheses_hold for v in run.sections.get("verdicts", ())):
        return EXIT_INPUT
    reference = run.sections.get("reference_check")
    if reference is not None and not reference["ok"]:
        return EXIT_NUMERICAL
    return EXIT_OK if run.bundle is None else EXIT_VIOLATION


def _load(load, path, *args):
    """``load(path, *args)`` from one read, and its report entry: the digest of the bytes parsed."""
    text, digest = matrixio.read_input(path)
    return load(path, *args, text=text), {"path": str(path), "sha256": digest}


def run_spectrum(args) -> Run:
    X, source = _load(matrixio.load_matrix, args.path)
    spec = spectra.double_commutator_spectrum(X)
    return Run({"spectrum": reporting.spectrum_section(spec)}, (source,))


def render_spectrum(report: dict) -> list[str]:
    section = report["spectrum"]
    clusters = ", ".join(f"{fmt(v)} x{m}" for v, m in section["clusters"])
    return [
        f"order {section['order']}, norm scale {fmt(section['norm_scale'])} "
        f"(eigenvalues refer to X / ||X||)",
        "values: " + " ".join(fmt(v) for v in section["values"]),
        "clusters: " + clusters,
        f"pairing_ok: {section['pairing_ok']}",
        f"trace identity residual: {fmt(section['trace_residual'])}",
        "partial sums: " + " ".join(fmt(v) for v in section["partial_sums"]),
    ]


def run_bounds(args) -> Run:
    X, source = _load(matrixio.load_matrix, args.path)
    spec = spectra.double_commutator_spectrum(X)
    br = spectra.bound_report(X, spectrum=spec)
    require(br.all_proven_hold, f"a proven bound failed: smallest slack {fmt(min(br.slacks.values()))}")
    return Run({"spectrum": reporting.spectrum_section(spec), "bounds": br}, (source,))


def render_bounds(report: dict) -> list[str]:
    br = report["bounds"]
    lines = [f"lambda_1 = {fmt(br['lambda1'])} (norm scale {fmt(br['norm_scale'])})"]
    for name in ("bw", "norm22", "cx", "min_bound", "lambda13_weak"):
        lines.append(
            f"{name}: bound {fmt(br['bounds'][name])}, slack {fmt(br['slacks'][name])}"
        )
    for name in ("k1_entrywise", "partial_sum_weak"):
        lines.append(f"{name}: min slack {fmt(br['slacks'][name])}")
    return lines + [f"all proven bounds hold: {br['all_proven_hold']}"]


def run_check(args) -> Run:
    kind, paths = args.kind, args.paths
    if kind in ("lu", "numbers"):
        if len(paths) != 1:
            raise PreconditionError(f"check {kind} takes one payload file, got {len(paths)} paths")
        # the scalar lemmas' bundle layout: each vector as a row, then r
        (*vectors, r), source = _load(matrixio.load_check_payload, paths[0], kind)
        mats, inputs = [v.reshape(1, -1) for v in vectors] + [r], (source,)
    else:
        mats, inputs = zip(*(_load(matrixio.load_matrix, p) for p in paths))
    verdict = conjectures.run_checker(CHECK_KINDS[kind], list(mats), tol=args.tol, seed=args.seed)
    return Run({"kind": kind, "verdicts": [verdict]}, inputs, args.tol, verdict.witness)


def render_check(report: dict) -> list[str]:
    verdict = report["verdicts"][0]
    status = "satisfied" if verdict["satisfied"] else "VIOLATED"
    lines = [
        f"{verdict['conjecture_id']}: lhs {fmt(verdict['lhs'])} vs rhs {fmt(verdict['rhs'])} "
        f"-> {status}",
        f"hypotheses residual: {fmt(verdict['hypotheses_residual'])}",
    ]
    if report["exit_code"] == EXIT_INPUT:
        lines.append("hypotheses residual exceeds the tolerance; verdict not trusted")
    return lines


def run_closed_form(args) -> Run:
    X, source = _load(matrixio.load_matrix, args.path)
    return Run({"closed_form": closed_forms.closed_form_summary(X)}, (source,))


def render_closed_form(report: dict) -> list[str]:
    summary = report["closed_form"]
    lines = [
        f"order {summary['order']}, classification: {summary['classification']}",
        f"normal: {summary['is_normal']}, rank one: {summary['is_rank_one']}",
    ]
    if "normal_closed_form" in summary:
        lines.append(
            "normal closed form matches dense spectrum to "
            + fmt(summary["normal_closed_form"]["max_abs_diff"])
        )
    if "rank_one_closed_form" in summary:
        cf = summary["rank_one_closed_form"]
        lines.append(
            f"rank-one closed form (|Tr X|^2 = {fmt(cf['trace_abs_sq'])}) matches "
            f"dense spectrum to {fmt(cf['max_abs_diff'])}"
        )
    eq = summary["equality"]
    if not eq["detected"]:
        lines.append("extremal equality lambda_1 = 2: not attained")
    elif eq.get("witness_valid"):
        lines.append(
            f"extremal equality attained: lambda_1 = {fmt(eq['lambda1'])}, "
            f"witness residual {fmt(eq['embedding_residual'])}, "
            f"|Tr X0| = {fmt(eq['trace_abs'])}"
        )
    else:
        lines.append(f"equality threshold passed but no witness: {eq['detail']}")
    return lines


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad --n value {text!r}") from exc
    if not orders:
        raise PreconditionError(f"--n {text!r} names no order")
    return orders


def run_search(args) -> Run:
    orders = _parse_orders(args.n)
    sweep = args.objective == "sweep"
    if sweep:
        flags = {"--matrix": args.matrix, "--init": args.init,
                 "--restarts": args.restarts, "--max-iters": args.max_iters}
    else:
        flags = {"--trials": args.trials, "--tol": args.tol}
    unused = [flag for flag, value in flags.items() if value is not None]
    if unused:
        raise PreconditionError(f"--objective {args.objective} does not use {', '.join(unused)}")
    if args.seed is None:
        args.seed = secrets.randbits(64)
        print(f"seed: {args.seed} (entropy; pass --seed {args.seed} to replay)", file=sys.stderr)
    user_matrix, inputs = None, ()
    if args.matrix is not None:
        user_matrix, source = _load(matrixio.load_matrix, args.matrix)
        inputs = (source,)

    if sweep:
        tol = DEFAULT_TOL if args.tol is None else args.tol
        result = search_mod.sweep(
            orders,
            k_rule="all" if args.k is None else args.k,
            trials=1000 if args.trials is None else args.trials,
            seed=args.seed,
            tol=tol,
        )
        bundles = [b for row in result["rows"] for b in row["violations"]]
        bundles.extend(result["majorization_violations"])
        return Run({"sweep": result}, tol=tol, bundle=bundles[0] if bundles else None)

    if len(orders) != 1:
        raise PreconditionError("--objective partial-sum/lambda13 takes a single order")
    lambda13 = args.objective == "lambda13"
    given = {"restarts": args.restarts, "max_iters": args.max_iters, "init": args.init}
    config = search_mod.SearchConfig(
        order=orders[0],
        k=(2 if lambda13 else 1) if args.k is None else args.k,
        seed=args.seed,
        matrix=user_matrix,
        **{name: value for name, value in given.items() if value is not None},
    )
    result = (search_mod.lambda13_search if lambda13 else search_mod.ascend)(config)
    # the ascent judges its own breaches at a fixed margin
    return Run({"search": result}, inputs, search_mod.VIOLATION_MARGIN, result.violation)


def render_search(report: dict) -> list[str]:
    if "sweep" in report:
        sweep = report["sweep"]
        orders = list(dict.fromkeys(row["n"] for row in sweep["rows"]))
        lines = [
            f"sweep over orders {orders}, {sweep['trials_per_order']} trials each "
            f"({sweep['ensemble']})"
        ]
        for row in sweep["rows"]:
            lines.append(
                f"n={row['n']} k={row['k']}: max f = {fmt(row['max_f'])} "
                f"(conjectured {fmt(row['bound_conjectured'])}, "
                f"proven {fmt(row['bound_proven'])}), "
                f"violations: {len(row['violations'])}"
            )
        lines.append(f"majorization violations: {len(sweep['majorization_violations'])}")
        return lines
    result = report["search"]
    return [
        f"objective {result['objective']} (order {result['order']}, k {result['k']}): "
        f"best = {fmt(result['best_objective'])}",
        f"conjectured bound {fmt(result['conjectured_bound'])}, "
        f"proven bound {fmt(result['proven_bound'])}, "
        f"gap to conjecture {fmt(result['gap_to_conjecture'])}",
        f"monotone ascent: {result['monotone_ok']}, restarts: {len(result['restarts'])}",
    ]


def run_verify_example(args) -> Run:
    X = REFERENCE_MATRIX
    spec = spectra.double_commutator_spectrum(X)
    first_four = float(spec.norm_scale * spec.values[:4].sum())
    certificate = spectra.first_four_sum_bound(X)
    max_error = max(
        abs(first_four - REFERENCE_FIRST_FOUR), abs(certificate - REFERENCE_CERTIFICATE)
    )
    section = {
        "matrix": X,
        "first_four_sum": first_four,
        "first_four_expected": REFERENCE_FIRST_FOUR,
        "certificate": certificate,
        "certificate_expected": REFERENCE_CERTIFICATE,
        "tolerance": args.tol,
        "max_abs_error": max_error,
        "ok": max_error <= args.tol,
    }
    return Run({"reference_check": section}, tol=args.tol)


def render_verify_example(report: dict) -> list[str]:
    s = report["reference_check"]
    return [
        f"first-four eigenvalue sum: {fmt(s['first_four_sum'])} "
        f"(expected {s['first_four_expected']}, "
        f"error {fmt(abs(s['first_four_sum'] - s['first_four_expected']))})",
        f"certificate 4(s1^2+s2^2)+phi: {fmt(s['certificate'])} "
        f"(expected {s['certificate_expected']}, "
        f"error {fmt(abs(s['certificate'] - s['certificate_expected']))})",
        f"within tolerance {fmt(s['tolerance'])}: {s['ok']}",
    ]


# subcommand -> (runner, text renderer)
COMMANDS = {
    "spectrum": (run_spectrum, render_spectrum),
    "bounds": (run_bounds, render_bounds),
    "check": (run_check, render_check),
    "closed-form": (run_closed_form, render_closed_form),
    "search": (run_search, render_search),
    "verify-paper-example": (run_verify_example, render_verify_example),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    runner, render = COMMANDS[args.command]
    try:
        run = runner(args)
        code = exit_code(run)
        bundle_path = None
        if code == EXIT_VIOLATION:
            bundle_path = args.bundle_out or f"violation-{run.bundle['conjecture_id'].lower()}.json"
            if args.out and Path(args.out).resolve() == Path(bundle_path).resolve():
                # the report would overwrite the bundle: keep neither
                raise PreconditionError(f"--out and the violation bundle both name {bundle_path}")
            write_bundle(bundle_path, run.bundle)
        if hasattr(args, "bundle_out"):  # a command that can write a bundle says where it went
            run.sections["bundle_path"] = bundle_path
        report = reporting.build_report(
            args.command, list(run.inputs), args.seed, run.tol, code, run.sections
        )
        text = matrixio.json_text(report) if args.json or args.out else None
        if args.out:
            Path(args.out).write_text(text)
    except (ConvergenceError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CommSpectraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        sys.stdout.write(text)
    else:
        lines = render(report)
        if bundle_path:
            lines.append(f"violation bundle written to {bundle_path}")
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
