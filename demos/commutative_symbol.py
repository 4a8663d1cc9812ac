"""Evaluating the characteristic function at points of its variety.

For a single 1x1 contraction the function is the classical Mobius map
(z - a) / (1 - conj(a) z).  For commuting tuples, scalar points are points of
the variety, and the word-indexed Fourier partial sums converge to the closed
form geometrically: the table prints the partial-sum error against the
a-priori bound 2 r^(d+1) / (1 - r) at a few radii.  For q-commuting tuples
the function lives on q^-1-commuting matrix points (the reversed relations);
at a nilpotent one the Fourier sum is exact.
"""

import numpy as np

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    evaluate,
    fourier_sum,
    ideal_subspace,
)
from fockmodel.sampling import q_commuting_nilpotent_tuple


def main():
    a = 0.5
    print("Mobius check, a = 0.5:")
    for z in (0.3, -0.7, 0.2 + 0.4j):
        got = evaluate([np.array([[a]])], [np.array([[z]])], PolyIdealSpec(n=1))[0, 0]
        want = (z - a) / (1 - np.conj(a) * z)
        print(f"  theta({z}) = {got:.6f}   error {abs(got - want):.1e}")

    # commuting 2x2 pair, evaluated two ways
    t1 = np.diag([0.5, 0.2]).astype(complex)
    t2 = np.diag([0.1, 0.55]).astype(complex)
    mats = [t1, t2]
    d = 8
    # no relations (the zero family): N is the whole space and Theta the free function
    free = ideal_subspace(PolyIdealSpec(n=2), TruncatedFockSpace(2, d))
    cf = constrained_characteristic_function(constrained_poisson_kernel(mats, free))
    commutative = PolyIdealSpec(n=2, kind="commutative")

    rng = np.random.default_rng(1)
    print(f"\npartial sums at degree {d} vs closed form:")
    print("   r      error      bound 2r^(d+1)/(1-r)")
    for r in (0.2, 0.4, 0.6, 0.75):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z *= r / np.linalg.norm(z)
        point = [np.array([[zi]]) for zi in z]
        err = np.linalg.norm(fourier_sum(cf, point) - evaluate(mats, point, commutative), 2)
        print(f"  {r:.2f}   {err:.2e}    {2 * r ** (d + 1) / (1 - r):.2e}")

    # q-commuting tuple at a nilpotent q^-1-commuting 3x3 point
    q = np.exp(1j * np.pi / 3)
    spec = PolyIdealSpec(n=2, kind="q_commutative", q=q)
    sub = ideal_subspace(spec, TruncatedFockSpace(2, 4))
    mats = q_commuting_nilpotent_tuple(rng, q, 0.7)
    cf = constrained_characteristic_function(constrained_poisson_kernel(mats, sub))
    point = q_commuting_nilpotent_tuple(rng, 1 / q, 2.0)
    err = np.linalg.norm(fourier_sum(cf, point) - evaluate(mats, point, spec), 2)
    print(f"\nq-commuting tuple at a nilpotent 3x3 point: Fourier sum off by {err:.1e}")

    # a q-commuting point lies off the reversed variety and is refused
    try:
        evaluate(mats, q_commuting_nilpotent_tuple(rng, q, 0.5), spec)
    except ValueError as exc:
        print(f"q-commuting point rejected: {exc}")


if __name__ == "__main__":
    main()
