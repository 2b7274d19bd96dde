"""Command-line interface.

Subcommands: ``spectrum``, ``bounds``, ``check <kind>``, ``closed-form``,
``search``, ``verify-paper-example``. Shared flags: ``--json`` (emit the run
report on stdout), ``--seed`` (u64 root seed; commands that draw randomness
log an entropy seed when it is omitted), ``--tol`` (slack and hypothesis
tolerance), ``--out`` (also write the report JSON to a file).

Exit codes: 0 success, 1 conjecture violation found (the violation bundle is
written to ``--bundle-out`` or a default path), 2 input or hypothesis error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import secrets
import sys
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
from .matrices import DEFAULT_ORDER_CAP
from .reporting import fmt
from .verdicts import write_bundle

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

CHECK_KINDS = ("conj1", "conj2", "conj2c", "conj4", "lu", "numbers", "isotropic")

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


def _add_common(parser: argparse.ArgumentParser, tol_default: float = 1e-8) -> None:
    parser.add_argument("--json", action="store_true", help="emit the run report as JSON on stdout")
    parser.add_argument("--seed", type=_seed_type, default=None, help="root seed (u64)")
    parser.add_argument("--tol", type=float, default=tol_default, help=f"tolerance (default {tol_default:g})")
    parser.add_argument("--out", default=None, help="also write the report JSON to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commspectra",
        description="Spectra and bound checks for the double-commutator operator [X*, [X, .]]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of the lifted operator for one matrix file")
    p.add_argument("path", help="matrix file (JSON {n, re, im} or text rows of a+bi tokens)")
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP, help="raise the order cap")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="evaluate the proven bound ladder for one matrix file")
    p.add_argument("path", help="matrix file")
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP, help="raise the order cap")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="run one inequality checker on explicit inputs")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument(
        "paths",
        nargs="+",
        help="matrix files (conj1: family; conj2/conj2c: pivot then family; "
        "conj4: one matrix; isotropic: X then family) or one payload file (lu, numbers)",
    )
    p.add_argument("--bundle-out", default=None, help="where to write a violation bundle")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("closed-form", help="classify a matrix and compare closed-form spectra")
    p.add_argument("path", help="matrix file")
    _add_common(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("search", help="extremal search and random-ensemble sweeps")
    p.add_argument("--n", required=True, help="matrix order (comma-separated list for --objective sweep)")
    p.add_argument("--k", type=int, default=None, help="partial-sum index (sweep default: all)")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--init", choices=search_mod.INIT_KINDS, default="random_gaussian")
    p.add_argument("--matrix", default=None, help="matrix file for --init user_matrix")
    p.add_argument(
        "--objective",
        choices=("partial-sum", "lambda13", "sweep"),
        default="partial-sum",
    )
    p.add_argument("--trials", type=int, default=1000, help="draws per order for --objective sweep")
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP, help="raise the order cap")
    p.add_argument("--bundle-out", default=None, help="where to write a violation bundle")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify-paper-example",
        help="recompute the two cited values for the built-in 3x3 reference example",
    )
    _add_common(p, tol_default=1e-3)
    p.set_defaults(func=cmd_verify_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Shared by every main() call: safe while no argument has a mutable default or an append action.
    return build_parser()


def _input_digest(path) -> dict:
    return {"path": str(path), "sha256": matrixio.sha256_digest(path)}


def _emit(args, report: dict, lines: list[str]) -> int:
    text = reporting.report_json(report)
    if args.out:
        Path(args.out).write_text(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print("\n".join(lines))
    return int(report["exit_code"])


def _record_violation(args, bundle) -> tuple[int, str | None]:
    """Write a violation bundle and return (exit code, bundle path).

    ``(EXIT_OK, None)`` when ``bundle`` is None. The path is ``--bundle-out``
    or ``violation-<id>.json`` in the working directory.
    """
    if bundle is None:
        return EXIT_OK, None
    path = args.bundle_out or f"violation-{bundle['conjecture_id'].lower()}.json"
    write_bundle(path, bundle)
    return EXIT_VIOLATION, path


def _spectrum_lines(section: dict) -> list[str]:
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


def cmd_spectrum(args) -> int:
    X = matrixio.load_matrix(args.path)
    spec = spectra.double_commutator_spectrum(X, max_order=args.max_order)
    section = reporting.spectrum_section(X, spec)
    report = reporting.build_report(
        "spectrum", [_input_digest(args.path)], args.seed, args.tol, EXIT_OK,
        {"spectrum": section},
    )
    return _emit(args, report, _spectrum_lines(section))


def cmd_bounds(args) -> int:
    X = matrixio.load_matrix(args.path)
    spec = spectra.double_commutator_spectrum(X, max_order=args.max_order)
    br = spectra.bound_report(X, spectrum=spec)
    exit_code = EXIT_OK if br.all_proven_hold else EXIT_VIOLATION
    report = reporting.build_report(
        "bounds", [_input_digest(args.path)], args.seed, args.tol, exit_code,
        {
            "spectrum": reporting.spectrum_section(X, spec),
            "bounds": br,
        },
    )
    lines = [f"lambda_1 = {fmt(br.lambda1)} (norm scale {fmt(br.norm_scale)})"]
    for name in ("bw", "norm22", "cx", "min_bound", "lambda13_weak"):
        lines.append(
            f"{name}: bound {fmt(br.bounds[name])}, slack {fmt(br.slacks[name])}"
        )
    lines.append(f"k1_entrywise: min slack {fmt(br.slacks['k1_entrywise'])}")
    lines.append(f"partial_sum_weak: min slack {fmt(br.slacks['partial_sum_weak'])}")
    lines.append(f"all proven bounds hold: {br.all_proven_hold}")
    return _emit(args, report, lines)


def _run_check(args):
    kind, paths = args.kind, args.paths

    def _need(count: int, what: str) -> None:
        if len(paths) != count:
            raise PreconditionError(f"check {kind} takes {what}, got {len(paths)} paths")

    if kind == "lu":
        _need(1, "one payload file")
        etas, r = matrixio.load_check_payload(paths[0], "lu")
        return conjectures.check_lu_lemma(etas, r, tol=args.tol, seed=args.seed)
    if kind == "numbers":
        _need(1, "one payload file")
        etas, omegas, r = matrixio.load_check_payload(paths[0], "numbers")
        return conjectures.check_numbers_lemma(etas, omegas, r, tol=args.tol, seed=args.seed)
    mats = [matrixio.load_matrix(p) for p in paths]
    if kind == "conj1":
        return conjectures.check_conj1(mats, tol=args.tol, seed=args.seed)
    if kind == "conj2" or kind == "conj2c":
        if len(paths) < 2:
            raise PreconditionError(f"check {kind} takes a pivot file then family files")
        checker = conjectures.check_conj2 if kind == "conj2" else conjectures.check_conj2c
        return checker(mats[0], mats[1:], tol=args.tol, seed=args.seed)
    if kind == "conj4":
        _need(1, "one matrix file")
        return spectra.monitor_majorization(mats[0], tol=args.tol, seed=args.seed)
    if len(paths) < 2:
        raise PreconditionError("check isotropic takes the matrix X then family files")
    return conjectures.check_isotropic_trace_bound(
        mats[0], mats[1:], tol=args.tol, seed=args.seed
    )


def cmd_check(args) -> int:
    verdict = _run_check(args)
    inputs = [_input_digest(p) for p in args.paths]
    # never stricter than the library's own hypothesis tolerance, so a
    # negative --tol forces inequality violations without tripping exit 2
    hypothesis_tol = max(args.tol, conjectures.HYPOTHESIS_TOL)
    if verdict.hypotheses_residual > hypothesis_tol:
        exit_code, bundle_path = EXIT_INPUT, None
    else:
        exit_code, bundle_path = _record_violation(args, verdict.witness)
    report = reporting.build_report(
        "check", inputs, args.seed, args.tol, exit_code,
        {
            "kind": args.kind,
            "verdicts": [verdict],
            "bundle_path": bundle_path,
        },
    )
    status = "satisfied" if verdict.satisfied else "VIOLATED"
    lines = [
        f"{verdict.conjecture_id}: lhs {fmt(verdict.lhs)} vs rhs {fmt(verdict.rhs)} "
        f"-> {status}",
        f"hypotheses residual: {fmt(verdict.hypotheses_residual)}",
    ]
    if exit_code == EXIT_INPUT:
        lines.append("hypotheses residual exceeds the tolerance; verdict not trusted")
    if bundle_path:
        lines.append(f"violation bundle written to {bundle_path}")
    return _emit(args, report, lines)


def cmd_closed_form(args) -> int:
    X = matrixio.load_matrix(args.path)
    summary = closed_forms.closed_form_summary(X)
    report = reporting.build_report(
        "closed-form", [_input_digest(args.path)], args.seed, args.tol, EXIT_OK,
        {"closed_form": summary},
    )
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
    return _emit(args, report, lines)


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad --n value {text!r}") from exc
    if not orders:
        raise PreconditionError(f"--n {text!r} names no order")
    return orders


def _search_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(64)
    print(f"seed: {seed} (entropy; pass --seed {seed} to replay)", file=sys.stderr)
    return seed


def cmd_search(args) -> int:
    orders = _parse_orders(args.n)
    seed = _search_seed(args)
    inputs = []
    user_matrix = None
    if args.matrix is not None:
        user_matrix = matrixio.load_matrix(args.matrix)
        inputs.append(_input_digest(args.matrix))

    if args.objective == "sweep":
        sweep_report = search_mod.sweep(
            orders,
            k_rule="all" if args.k is None else args.k,
            trials=args.trials,
            seed=seed,
            tol=args.tol,
            max_order=args.max_order,
        )
        bundles = [b for row in sweep_report["rows"] for b in row["violations"]]
        bundles.extend(sweep_report["majorization_violations"])
        exit_code, bundle_path = _record_violation(args, bundles[0] if bundles else None)
        report = reporting.build_report(
            "search", inputs, seed, args.tol, exit_code,
            {"sweep": sweep_report, "bundle_path": bundle_path},
        )
        lines = [
            f"sweep over orders {orders}, {args.trials} trials each "
            f"({sweep_report['ensemble']})"
        ]
        for row in sweep_report["rows"]:
            lines.append(
                f"n={row['n']} k={row['k']}: max f = {fmt(row['max_f'])} "
                f"(conjectured {fmt(row['bound_conjectured'])}, "
                f"proven {fmt(row['bound_proven'])}), "
                f"violations: {len(row['violations'])}"
            )
        lines.append(
            f"majorization violations: {len(sweep_report['majorization_violations'])}"
        )
        if bundle_path:
            lines.append(f"violation bundle written to {bundle_path}")
        return _emit(args, report, lines)

    if len(orders) != 1:
        raise PreconditionError("--objective partial-sum/lambda13 takes a single order")
    lambda13 = args.objective == "lambda13"
    config = search_mod.SearchConfig(
        order=orders[0],
        k=(2 if lambda13 else 1) if args.k is None else args.k,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=seed,
        init=args.init,
        matrix=user_matrix,
        max_order=args.max_order,
    )
    result = (search_mod.lambda13_search if lambda13 else search_mod.ascend)(config)
    exit_code, bundle_path = _record_violation(args, result.violation)
    report = reporting.build_report(
        "search", inputs, seed, args.tol, exit_code,
        {"search": result, "bundle_path": bundle_path},
    )
    lines = [
        f"objective {result.objective} (order {result.order}, k {result.k}): "
        f"best = {fmt(result.best_objective)}",
        f"conjectured bound {fmt(result.conjectured_bound)}, "
        f"proven bound {fmt(result.proven_bound)}, "
        f"gap to conjecture {fmt(result.gap_to_conjecture)}",
        f"monotone ascent: {result.monotone_ok}, restarts: {len(result.restarts)}",
    ]
    if bundle_path:
        lines.append(f"violation bundle written to {bundle_path}")
    return _emit(args, report, lines)


def cmd_verify_example(args) -> int:
    X = REFERENCE_MATRIX
    spec = spectra.double_commutator_spectrum(X)
    first_four = float(spec.norm_scale * spec.values[:4].sum())
    certificate = spectra.first_four_sum_bound(X)
    err_sum = abs(first_four - REFERENCE_FIRST_FOUR)
    err_cert = abs(certificate - REFERENCE_CERTIFICATE)
    ok = max(err_sum, err_cert) <= args.tol
    exit_code = EXIT_OK if ok else EXIT_NUMERICAL
    section = {
        "matrix": X,
        "first_four_sum": first_four,
        "first_four_expected": REFERENCE_FIRST_FOUR,
        "certificate": certificate,
        "certificate_expected": REFERENCE_CERTIFICATE,
        "tolerance": args.tol,
        "max_abs_error": max(err_sum, err_cert),
        "ok": ok,
    }
    report = reporting.build_report(
        "verify-paper-example", [], args.seed, args.tol, exit_code,
        {"reference_check": section},
    )
    lines = [
        f"first-four eigenvalue sum: {fmt(first_four)} "
        f"(expected {REFERENCE_FIRST_FOUR}, error {fmt(err_sum)})",
        f"certificate 4(s1^2+s2^2)+phi: {fmt(certificate)} "
        f"(expected {REFERENCE_CERTIFICATE}, error {fmt(err_cert)})",
        f"within tolerance {fmt(args.tol)}: {ok}",
    ]
    return _emit(args, report, lines)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CommSpectraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
