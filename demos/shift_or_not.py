"""The characteristic function is a shift detector and a purity/range meter.

Three things in one script:

* compressed shifts have identically vanishing characteristic function,
  while a generic pure tuple's function has norm ~ 1;
* the function is a partial isometry (inner) exactly when the tuple is
  pure -- the projection defect of Theta* Theta equals the truncation tail;
* "dense range" (outer) can be decided two independent ways, from the
  singular values of Theta or from the kernel of I - K*K, and the two
  bookkeepings agree.
"""

import numpy as np

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    delta_and_classify,
    ideal_subspace,
)
from fockmodel.sampling import commuting_nilpotent_tuple


def main():
    space = TruncatedFockSpace(2, 4)
    sub = ideal_subspace(PolyIdealSpec(n=2, kind="commutative"), space)

    b = constrained_creation_tuple(sub, "left")
    th_shift = constrained_characteristic_function(constrained_poisson_kernel(b, sub))
    print(f"shift:        |Theta| = {np.linalg.norm(th_shift.matrix, 2):.2e}")

    rng = np.random.default_rng(7)
    mats = commuting_nilpotent_tuple(rng, 2, 0.6)
    th = constrained_characteristic_function(constrained_poisson_kernel(mats, sub))
    print(f"random tuple: |Theta| = {np.linalg.norm(th.matrix, 2):.3f}")

    cls = th.kernel.classification  # the kernel classified the tuple it was built from
    dc = delta_and_classify(th)
    print(f"\nclassification: pure={cls.pure.value}, cnc={cls.cnc.value}, "
          f"rho={cls.rho:.3f}")
    print(f"inner (partial isometry): {dc.inner}   "
          f"projection residual {dc.partial_isometry_residual:.2e} "
          f"(tail {th.tail_bound:.2e})")
    print(f"outer (dense range):      {dc.outer}   "
          f"rank deficiency {dc.rank_deficiency}")

    k = th.kernel
    gram = k.matrix.conj().T @ k.matrix
    eigs = np.linalg.eigvalsh(np.eye(gram.shape[0]) - gram)
    print(f"dual route: dim ker(I - K*K) = {int(np.count_nonzero(eigs <= 1e-8))} "
          f"(spectrum {np.array2string(eigs, precision=2)})")

    # the shift itself: inner but as far from outer as possible
    dcs = delta_and_classify(th_shift)
    print(f"\nshift verdicts: inner={dcs.inner}, outer={dcs.outer}, "
          f"rank deficiency {dcs.rank_deficiency} of {th_shift.matrix.shape[0]} rows")


if __name__ == "__main__":
    main()
