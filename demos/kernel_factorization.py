"""Poisson kernel, characteristic function, and the factorization identity.

The kernel K built from a pure row contraction is an isometry up to the
truncation tail |Phi^(d+1)(I)|; together with the characteristic function
Theta it satisfies  Theta Theta* + K K* = I  on the constrained space.
Individually the two summands are only *approximately* projections -- the
defect is exactly the tail -- which the printout makes visible by running
the same tuple at increasing degree.  J-fa-F, |I - Theta Theta* - K K*|_F,
is the certificate on the function's spectrum record (``th.spectrum.gap``),
the record the inner/outer verdicts and the model read too.
"""

import numpy as np

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    ideal_subspace,
    verify_intertwining,
)
from fockmodel.sampling import commuting_nilpotent_tuple


def adj(a):
    return a.conj().T


def main():
    mats = [np.array([[0.5]]), np.array([[0.5]])]  # commuting pair, rho = 0.5
    spec = PolyIdealSpec(n=2, kind="commutative")

    print("degree   tail        gram residual   J-fa-F (Frob.)  |P_theta^2 - P_theta|")
    for d in (3, 5, 7, 9):
        sub = ideal_subspace(spec, TruncatedFockSpace(2, d))
        k = constrained_poisson_kernel(mats, sub)
        th = constrained_characteristic_function(k)
        p_th = th.matrix @ adj(th.matrix)
        idem = np.linalg.norm(p_th @ p_th - p_th, 2)
        print(f"  {d}      {k.tail_bound:.2e}    {k.gram_residual():.2e}       "
              f"{th.spectrum.gap:.2e}        {idem:.2e}")

    d = 7
    sub = ideal_subspace(spec, TruncatedFockSpace(2, d))
    k = constrained_poisson_kernel(mats, sub)
    print("\nkernel intertwines the tuple with the compressed shifts "
          "(per generator, rows of degree < d):")
    for i, res in verify_intertwining(k).items():
        print(f"  generator {i}: {res:.2e}")

    # a nilpotent tuple has zero tail: every identity becomes exact
    mats = commuting_nilpotent_tuple(np.random.default_rng(0), 2, 0.6)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    gram = adj(k.matrix) @ k.matrix
    print(f"\ncommuting nilpotent tuple: tail = {k.tail_bound}, |K*K - I| = "
          f"{np.linalg.norm(gram - np.eye(gram.shape[0]), 2):.2e}, J-fa-F (Frobenius) = "
          f"{th.spectrum.gap:.2e}")


if __name__ == "__main__":
    main()
