"""Scalar evaluation of the characteristic function for commuting tuples.

For a single 1x1 contraction the function is the classical Mobius map
(z - a) / (1 - conj(a) z); for commuting tuples it has a closed form that
the word-indexed Fourier partial sums converge to geometrically.  The
table prints the partial-sum error against the a-priori bound
2 r^(d+1) / (1 - r) at a few radii.
"""

import numpy as np

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    eval_commutative,
    fourier_sum,
    ideal_subspace,
)


def main():
    a = 0.5
    print("Mobius check, a = 0.5:")
    for z in (0.3, -0.7, 0.2 + 0.4j):
        got = eval_commutative([np.array([[a]])], [z])[0, 0]
        want = (z - a) / (1 - np.conj(a) * z)
        print(f"  theta({z}) = {got:.6f}   error {abs(got - want):.1e}")

    # commuting 2x2 pair, evaluated two ways
    t1 = np.diag([0.5, 0.2]).astype(complex)
    t2 = np.diag([0.1, 0.55]).astype(complex)
    mats = [t1, t2]
    d = 8
    # no relations (the zero family): N is the whole space and Theta the free function
    free = ideal_subspace(PolyIdealSpec(n=2), TruncatedFockSpace(2, d))
    cf = constrained_characteristic_function(mats, free)

    rng = np.random.default_rng(1)
    print(f"\npartial sums at degree {d} vs closed form:")
    print("   r      error      bound 2r^(d+1)/(1-r)")
    for r in (0.2, 0.4, 0.6, 0.75):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z *= r / np.linalg.norm(z)
        err = np.linalg.norm(fourier_sum(cf, z) - eval_commutative(mats, z), 2)
        print(f"  {r:.2f}   {err:.2e}    {2 * r ** (d + 1) / (1 - r):.2e}")

    # non-commuting input is refused rather than silently evaluated
    bad = [np.array([[0, 0.5], [0, 0]]), np.array([[0, 0], [0.5, 0]])]
    try:
        eval_commutative(bad, [0.1, 0.1])
    except ValueError as exc:
        print(f"\nnon-commuting tuple rejected: {exc}")


if __name__ == "__main__":
    main()
