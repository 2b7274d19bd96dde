"""Spectrum of T_X and the ladder of proven eigenvalue bounds.

Loads a matrix file (JSON {n, re, im} or text rows of a+bi tokens) or
draws a seeded random one, then walks through what the spectrum shows:
eigenvalue clusters with even multiplicities, the trace identity
sum = 2n - 2|Tr X|^2 on the unit sphere, and every proven upper bound
with its slack.
"""
import argparse

import numpy as np

from commspectra import (
    bound_report,
    double_commutator_spectrum,
    load_matrix,
    trial_rng,
    unit_gaussian,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", nargs="?", default=None, help="optional matrix file")
    ap.add_argument("--n", type=int, default=4, help="order of the random draw")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.path is not None:
        X = load_matrix(args.path)
        print(f"matrix from {args.path}, order {X.shape[0]}")
    else:
        X = unit_gaussian(trial_rng(args.seed), args.n)
        print(f"random unit-norm draw, order {args.n}, seed {args.seed}")

    spec = double_commutator_spectrum(X)
    n = spec.order
    print(f"\neigenvalues of T_X for the unit-normalized matrix (n^2 = {n * n}):")
    print("  " + " ".join(f"{v:.6f}" for v in spec.values))
    print("clusters (value x multiplicity):")
    print("  " + ", ".join(f"{v:.6f} x{m}" for v, m in spec.clusters))
    print(f"every positive cluster has even multiplicity: {spec.pairing_ok}")

    total = spec.values.sum()
    target = 2 * n - 2 * abs(np.trace(X)) ** 2 / spec.norm_scale
    print(f"\ntrace identity: sum = {total:.12f}, "
          f"2n - 2|Tr X|^2 = {target:.12f}, residual {abs(total - target):.3e}")

    prefix = spec.partial_sums
    print("\npartial sums vs the open conjectured caps 2k + 2:")
    for k in range(1, min(4, n * n // 2) + 1):
        print(f"  k = {k}: sum of top {2 * k} = {prefix[2 * k - 1]:.6f} "
              f"(conjectured cap {2 * k + 2})")

    br = bound_report(X, spectrum=spec)
    print(f"\nproven bound ladder for lambda_1 = {br.lambda1:.6f}:")
    rows = [
        ("lambda_1 <= 2", "bw"),
        ("lambda_1 <= 2(s1^2 + s2^2)", "norm22"),
        ("lambda_1 <= C_X", "cx"),
        ("lambda_1 + lambda_3 <= (4 + sqrt(10))/2", "lambda13_weak"),
        ("lambda_i <= 2 lambda_i(K_1), entrywise", "k1_entrywise"),
        ("sum top 2k <= 2k + 1 + 2 sqrt(k), all k", "partial_sum_weak"),
    ]
    for label, key in rows:
        print(f"  {label:42s} slack {br.slacks[key]:+.3e}")
    print(f"all proven bounds hold: {br.all_proven_hold}")


if __name__ == "__main__":
    main()
