"""Alternating ascent toward extremal partial eigenvalue sums.

The objective f_k(X) = sum of the top 2k eigenvalues of T_X on the unit
Frobenius sphere is maximized by alternating two subproblems: the best
2k-family for fixed X (top eigenvectors of the lift), and the best X for
a fixed family (top eigenvector of sum_i L_{Y_i}* L_{Y_i}). Small orders
solve each half-step densely, a global maximum of its subproblem. From
order 6 (unless k is large for the order) each half-step is instead a
Rayleigh-Ritz step on a subspace that holds the previous iterate, which
by Ky Fan's maximum principle cannot lower the objective. Either way the
ascent is monotone. The "first" column is each restart's first step-(a)
objective: f_k of its start on the dense side, a lower bound on it on the
Ritz side; "final" is f_k of the last iterate.

Observed maxima sit on the conjectured cap 2k + 2 whenever that cap is
at most the proven cap min(2k + 1 + 2 sqrt(k), 2n); the --lambda13
variant chases lambda_1 + lambda_3 against its conjectured cap 3.
"""
import argparse

from commspectra import SearchConfig, ascend, lambda13_search


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="matrix order")
    ap.add_argument("--k", type=int, default=2, help="partial-sum index")
    ap.add_argument("--restarts", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lambda13", action="store_true",
                    help="maximize lambda_1 + lambda_3 instead of f_k")
    args = ap.parse_args()

    if args.lambda13:
        result = lambda13_search(SearchConfig(
            order=args.n, k=2, restarts=args.restarts, seed=args.seed,
        ))
        print(f"objective: lambda_1 + lambda_3, order {args.n}")
    else:
        result = ascend(SearchConfig(
            order=args.n, k=args.k, restarts=args.restarts, seed=args.seed,
        ))
        print(f"objective: sum of top {2 * args.k} eigenvalues, order {args.n}")

    print(f"restarts: {args.restarts}, seed: {args.seed}, "
          f"monotone ascent: {result.monotone_ok}\n")

    print(f"{'restart':>8} {'first':>12} {'final':>12} {'iterations':>11}")
    for trace in result.restarts[: min(10, len(result.restarts))]:
        print(f"{trace.index:>8} {trace.first_objective:>12.6f} "
              f"{trace.last_objective:>12.6f} {trace.iterations:>11}")
    if len(result.restarts) > 10:
        print(f"{'...':>8} ({len(result.restarts) - 10} more)")

    print(f"\nbest objective:    {result.best_objective:.9f}")
    print(f"conjectured cap:   {result.conjectured_bound:.9f} "
          f"(gap {result.gap_to_conjecture:+.3e})")
    print(f"proven cap:        {result.proven_bound:.9f}")
    if result.violation is None:
        print("no breach of the conjectured cap was observed")
    else:
        print("breach observed; violation bundle serialized in the result")

    vals = result.best_matrix.round(4)
    print("\nbest matrix (rounded to 4 decimals):")
    for row in vals:
        print("  " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))


if __name__ == "__main__":
    main()
