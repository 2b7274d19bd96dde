"""Tour of the double-commutator operator T_X(Y) = [X*, [X, Y]].

Shows, on seeded random draws, the identities everything else rests on:

* <T_X Y, Y> = ||[X, Y]||^2, so T_X is positive semi-definite;
* T_X is self-adjoint for the Frobenius inner product;
* under the column-major vec isomorphism, Y -> [X, Y] becomes the
  Kronecker lift K_X = I (x) X - X^t (x) I, and T_X becomes K_X* K_X.
"""
import argparse

import numpy as np

from commspectra import (
    commutator,
    double_commutator_lift,
    gaussian_matrix,
    trial_rng,
    unit_gaussian,
    unvec,
    vec,
)


def apply_T(X, Y):
    """T_X Y = [X*, [X, Y]]."""
    return commutator(X.conj().T, commutator(X, Y))


def inner(A, B) -> complex:
    """Frobenius inner product <A, B> = Tr(A B*) = vec(B)* vec(A)."""
    return np.vdot(vec(B), vec(A))


def demo_quadratic_form(n: int, trials: int, seed: int) -> float:
    worst = 0.0
    for t in range(trials):
        rng = trial_rng(seed, 0, t)
        X = unit_gaussian(rng, n)
        Y = gaussian_matrix(rng, n)
        energy = inner(apply_T(X, Y), Y).real
        direct = np.linalg.norm(commutator(X, Y)) ** 2
        worst = max(worst, abs(energy - direct))
    return worst


def demo_self_adjoint(n: int, trials: int, seed: int) -> float:
    worst = 0.0
    for t in range(trials):
        rng = trial_rng(seed, 1, t)
        X = unit_gaussian(rng, n)
        Y = gaussian_matrix(rng, n)
        Z = gaussian_matrix(rng, n)
        left = inner(apply_T(X, Y), Z)
        right = inner(Y, apply_T(X, Z))
        worst = max(worst, abs(left - right))
    return worst


def demo_kronecker_lift(n: int, trials: int, seed: int) -> tuple[float, float]:
    worst_action = 0.0
    worst_lift = 0.0
    for t in range(trials):
        rng = trial_rng(seed, 2, t)
        X = unit_gaussian(rng, n)
        Y = gaussian_matrix(rng, n)
        I = np.eye(n, dtype=np.complex128)
        K = np.kron(I, X) - np.kron(X.T, I)
        worst_action = max(
            worst_action,
            np.abs(K @ vec(Y) - vec(commutator(X, Y))).max(),
        )
        T = double_commutator_lift(X)
        worst_lift = max(
            worst_lift,
            np.abs(unvec(T @ vec(Y), n) - apply_T(X, Y)).max(),
            np.abs(T - K.conj().T @ K).max(),
        )
    return worst_action, worst_lift


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4, help="matrix order")
    ap.add_argument("--trials", type=int, default=50, help="draws per identity")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"order n = {args.n}, {args.trials} seeded draws per identity\n")

    worst = demo_quadratic_form(args.n, args.trials, args.seed)
    print("quadratic form <T_X Y, Y> = ||[X, Y]||^2")
    print(f"  worst deviation: {worst:.3e}  (so the operator is PSD)\n")

    worst = demo_self_adjoint(args.n, args.trials, args.seed)
    print("self-adjointness <T_X Y, Z> = <Y, T_X Z>")
    print(f"  worst deviation: {worst:.3e}\n")

    worst_action, worst_lift = demo_kronecker_lift(args.n, args.trials, args.seed)
    print("Kronecker lift under column-major vec")
    print(f"  K_X vec(Y) = vec([X, Y]):      worst entry {worst_action:.3e}")
    print(f"  lift of T_X equals K_X* K_X:   worst entry {worst_lift:.3e}")


if __name__ == "__main__":
    main()
