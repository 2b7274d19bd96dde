"""Closed-form spectra and the extremal equality case lambda_1 = 2.

Three stories, each checked against the dense solver:

* normal X: the lifted spectrum is exactly {|x_i - x_j|^2} over ordered
  eigenvalue pairs of the unit-normalized matrix;
* rank-one X: the spectrum is {2 - t, 2 - t, 1 x (2n - 4), 0 x rest}
  with t = |Tr X|^2, independent of everything else about X;
* lambda_1 = 2 holds exactly when X = U diag(X0, 0) U* for a traceless
  2x2 block X0, and the witness factorization is recovered numerically.
"""
import argparse

import numpy as np

from commspectra import (
    commutator,
    detect_equality_case,
    detect_rank_one,
    double_commutator_spectrum,
    haar_unitary,
    normal_spectrum,
    normalized,
    random_normal_matrix,
    random_rank_one,
    rank_one_spectrum,
    trial_rng,
    unit_gaussian,
)


def show(label: str, values: np.ndarray, limit: int = 10) -> None:
    head = " ".join(f"{v:.6f}" for v in values[:limit])
    tail = " ..." if values.size > limit else ""
    print(f"  {label}: {head}{tail}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4, help="matrix order")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    n = args.n

    print(f"order n = {n}, seed {args.seed}\n")

    print("normal matrix: spectrum = squared eigenvalue differences")
    X = random_normal_matrix(trial_rng(args.seed, 0), n)
    dense = double_commutator_spectrum(X).values
    closed = normal_spectrum(X)
    show("dense ", dense)
    show("closed", closed)
    print(f"  max entrywise difference: {np.abs(dense - closed).max():.3e}\n")

    print("rank-one matrix: two-parameter profile {2 - t, 2 - t, 1, ..., 0, ...}")
    X = random_rank_one(trial_rng(args.seed, 1), n)
    is_r1, t = detect_rank_one(X)
    dense = double_commutator_spectrum(X).values
    closed = rank_one_spectrum(n, t)
    print(f"  detected rank one: {is_r1}, t = |Tr X|^2 = {t:.6f}")
    show("dense ", dense)
    show("closed", closed)
    print(f"  max entrywise difference: {np.abs(dense - closed).max():.3e}\n")

    print("equality case: X = U diag(X0, 0) U* with Tr X0 = 0 gives lambda_1 = 2")
    rng = trial_rng(args.seed, 2)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X0 = G - (np.trace(G) / 2) * np.eye(2)
    Q = haar_unitary(rng, n)[:, :2]
    X = Q @ X0 @ Q.conj().T
    spec = double_commutator_spectrum(X)
    witness = detect_equality_case(X, spec)
    print(f"  lambda_1 = {spec.values[0]:.12f}")
    assert witness is not None
    print(f"  witness block Tr X0 = {witness.trace_abs:.3e} (traceless)")
    print(f"  embedding residual ||U diag(X0, 0) U* - X|| = "
          f"{witness.embedding_residual:.3e}")

    print("\ngeneric matrices stay strictly below 2:")
    X = unit_gaussian(trial_rng(args.seed, 3), n)
    spec = double_commutator_spectrum(X)
    print(f"  random draw lambda_1 = {spec.values[0]:.6f}, "
          f"witness: {detect_equality_case(X, spec)}")

    print("\nthe canonical pair saturating ||[X, Y]||^2 = 2 ||X||^2 ||Y||^2:")
    X = np.zeros((n, n))
    Y = np.zeros((n, n))
    X[0, 1], X[1, 0] = 1.0, -1.0  # E12 - E21
    Y[0, 0], Y[1, 1] = 1.0, -1.0  # E11 - E22
    ratio = np.linalg.norm(commutator(normalized(X), normalized(Y))) ** 2 / 2
    print(f"  X = E12 - E21, Y = E11 - E22: ||[X, Y]||^2 / (2 ||X||^2 ||Y||^2) = {ratio:.6f}")


if __name__ == "__main__":
    main()
