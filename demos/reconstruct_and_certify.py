"""Round trip: tuple -> characteristic function -> model -> same tuple.

First half rebuilds a tuple from its characteristic function alone and
measures the canonical identification Gamma (unitary up to the tail,
intertwines the tuple with the model operators).  Second half certifies
unitary equivalence the honest way: conjugate the tuple by a random
unitary, observe that the two characteristic functions coincide up to
defect-space unitaries, and recover an intertwiner from that coincidence
without peeking at the unitary we started from.
"""

import numpy as np

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    build_model,
    classify,
    coincidence_from_unitary,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    ideal_subspace,
    verify_coincidence_implies_equivalence,
)
from fockmodel.sampling import conjugated_tuple, haar_unitary, nilpotent_pair_tuple


def main():
    rng = np.random.default_rng(11)
    mats = nilpotent_pair_tuple(rng, 2, 0.7)
    space = TruncatedFockSpace(2, 6)
    sub = ideal_subspace(PolyIdealSpec(n=2, kind="commutative"), space)

    # the kernel keeps the classification; the model reads its operator branch there
    kernel = constrained_poisson_kernel(mats, sub, classification=classify(mats))
    th = constrained_characteristic_function(kernel)
    model = build_model(th)
    ops, gamma = model.operators, model.gamma

    print(f"model space: dim {model.h}, cut out of shift summand {model.p} "
          f"(+) range summand {model.s}  (tail {model.tail_bound:.1e})")
    print(f"Gamma: |G*G - I| etc -> unitary residual {gamma.unitary_residual:.2e}, "
          f"embedding {gamma.embedding_residual:.2e}")
    print("Gamma intertwining:", {i: f"{r:.1e}" for i, r in gamma.intertwining.items()})
    if ops.branch_agreement is not None:
        print("pure/general branch agreement:",
              [f"{a:.1e}" for a in ops.branch_agreement])
    # each check is (name, residual, tolerance), the tolerance the CLI reports
    failed = [name for name, residual, tolerance in model.checks if not residual <= tolerance]
    print(f"model checks: {len(model.checks)}, failed: {failed or 'none'}")

    print("\n--- equivalence certificate ---")
    u = haar_unitary(mats[0].shape[0], rng)
    mats_p = conjugated_tuple(mats, u)
    kernel_p = constrained_poisson_kernel(mats_p, sub, classification=classify(mats_p))
    th_p = constrained_characteristic_function(kernel_p)
    witness = coincidence_from_unitary(th, th_p, u)
    print(f"coincidence residual: {witness.residual:.2e}")

    model_p = build_model(th_p)
    report = verify_coincidence_implies_equivalence(witness, model, model_p)
    print(f"model intertwining across the pair: {report.model_intertwining:.2e}")
    print(f"recovered intertwiner: unitarity {report.recovered_unitarity:.2e}, "
          f"conjugation residual {report.recovered_intertwining:.2e}")
    print(f"equivalent: {report.equivalent}")

    # the recovered matrix really conjugates the tuples
    v = report.recovered_unitary
    worst = max(np.linalg.norm(v @ a @ v.conj().T - b, 2)
                for a, b in zip(mats, mats_p))
    print(f"check against the tuples themselves: {worst:.2e}")


if __name__ == "__main__":
    main()
