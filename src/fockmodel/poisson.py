"""Poisson kernels of row contractions, truncated and constrained.

For a row contraction T on C^m and 0 < r <= 1 the kernel maps C^m into
(Fock space) (x) (defect space of rT):

    K h  =  sum_{|alpha| <= d}  e_alpha (x) [basis* Delta_r r^|alpha| T_alpha* h],

where Delta_r is the defect of the scaled tuple rT and basis is an
orthonormal basis of its range.  Rows are Fock-major: the block of word
alpha occupies rows [index(alpha)*d_T, (index(alpha)+1)*d_T).

Truncation is exact here, not an approximation with an unknown constant:

    K* K = I - Phi_{rT}^(d+1)(I)

holds to rounding, so the kernel is an isometry up to exactly the tail the
degree cap forgets.  That tail, |Phi_{rT}^(d+1)(I)|, is computed alongside
the kernel and carried on the result; downstream comparisons consume it
instead of a global fudge tolerance.

When T satisfies a family of polynomial relations, the kernel's range avoids
the relation span M (x) defect entirely -- again exactly at truncation -- so
compressing the rows to N = M-perp loses nothing.  The compressed kernel and
the size of the discarded component (`subspace_leak`, which should be at
rounding level) are produced by :func:`constrained_poisson_kernel`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .contractions import (
    _RELATION_TOL,
    as_matrices,
    constraint_residual,
    defects,
    phi_power,
    truncation_tail,
    DefectData,
)
from .fock import TruncatedFockSpace, left_creation
from .ideals import ConstrainedSubspace, constrained_creation
from .linalg import adj, opnorm


@dataclasses.dataclass
class KernelMatrix:
    """A (possibly constrained) truncated Poisson kernel with its metadata."""

    matrix: np.ndarray
    mats: list[np.ndarray]          # the original (unscaled) tuple
    r: float
    space: TruncatedFockSpace
    defect: DefectData              # defect data of the scaled tuple r*T
    tail_bound: float               # |Phi_{rT}^(d+1)(I)|, exact
    constrained: bool = False
    sub: ConstrainedSubspace | None = None
    subspace_leak: float | None = None
    relation_residual: float | None = None

    @property
    def d_T(self) -> int:
        return self.defect.d_T

    def gram_residual(self) -> float:
        """| K*K - (I - Phi_{rT}^(d+1)(I)) |; rounding-level by construction."""
        scaled = [self.r * t for t in self.mats]
        target = np.eye(self.mats[0].shape[0], dtype=complex) - phi_power(scaled, self.space.d + 1)
        return opnorm(adj(self.matrix) @ self.matrix - target)


def kernel_blocks(
    mats: list[np.ndarray], space: TruncatedFockSpace, defect: DefectData
) -> np.ndarray:
    """The block basis* Delta T_alpha* of every word alpha, shape (dim, d_T, m).

    ``defect`` is the defect data of ``mats``.  These are the radius-1
    Poisson-kernel blocks of ``mats``; times one row block of
    Delta_* basis_* they are also the Fourier blocks of its characteristic
    function.
    """
    m = mats[0].shape[0]
    lead = adj(defect.basis) @ defect.delta  # d_T x m, applied to every block

    # T_alpha* built by one extra factor per word, walking the graded order.
    coeffs: list[np.ndarray] = [np.eye(m, dtype=complex)]
    for iw in range(1, space.dim):
        w = space.words[iw]
        parent = space.index(w[:-1])
        coeffs.append(adj(mats[w[-1] - 1]) @ coeffs[parent])

    blocks = np.empty((space.dim, defect.d_T, m), dtype=complex)
    for iw in range(space.dim):
        blocks[iw] = lead @ coeffs[iw]
    return blocks


def poisson_kernel(
    ts,
    space: TruncatedFockSpace,
    *,
    r: float = 1.0,
    defect: DefectData | None = None,
) -> KernelMatrix:
    """Truncated Poisson kernel of T at radius r (an exact finite object)."""
    mats = as_matrices(ts)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    m = mats[0].shape[0]
    scaled = [r * t for t in mats]
    if defect is None or r != 1.0:
        defect = defects(scaled)
    return KernelMatrix(
        matrix=kernel_blocks(scaled, space, defect).reshape(space.dim * defect.d_T, m),
        mats=mats,
        r=r,
        space=space,
        defect=defect,
        tail_bound=truncation_tail(scaled, space.d),
    )


def constrained_poisson_kernel(
    ts,
    sub: ConstrainedSubspace,
    *,
    defect: DefectData | None = None,
) -> KernelMatrix:
    """Poisson kernel (radius 1) compressed to the constrained rows N (x) defect.

    Refuses tuples that do not satisfy the relations (residual above
    1e-8): the compression is only meaningful -- and only lossless -- for
    tuples in the constrained class.  The norm of the discarded M-component is
    returned on the result as ``subspace_leak``.  ``defect`` reuses the
    tuple's defect data when the caller already has it.
    """
    mats = as_matrices(ts)
    residual = constraint_residual(mats, sub.spec)
    if residual > _RELATION_TOL:
        raise ValueError(
            f"tuple violates the polynomial relations: residual {residual:.3e} "
            f"exceeds {_RELATION_TOL:.0e}"
        )
    full = poisson_kernel(mats, sub.space, defect=defect)
    d_T = full.d_T
    resh = full.matrix.reshape(sub.space.dim, d_T, mats[0].shape[0])
    compressed = np.tensordot(adj(sub.N_basis), resh, axes=(1, 0))
    leak = np.tensordot(adj(sub.M_basis), resh, axes=(1, 0))
    leak_norm = opnorm(leak.reshape(sub.dim_M * d_T, -1)) if sub.dim_M else 0.0
    if leak_norm > 1e-6:
        raise RuntimeError(
            f"kernel leaks {leak_norm:.3e} outside the constrained subspace; "
            "the tuple and the relation family are inconsistent"
        )
    return KernelMatrix(
        matrix=compressed.reshape(sub.dim_N * d_T, mats[0].shape[0]),
        mats=mats,
        r=full.r,
        space=sub.space,
        defect=full.defect,
        tail_bound=full.tail_bound,
        constrained=True,
        sub=sub,
        subspace_leak=leak_norm,
        relation_residual=residual,
    )


def verify_intertwining(kernel: KernelMatrix) -> dict[int, float]:
    """Residuals of K (rT_i)* = (shift_i* (x) I) K on the rows where it holds.

    The identity is exact on row blocks of degree <= d-1 (top-degree rows see
    truncated data on one side only, so they are excluded).  For constrained
    kernels the shift is the compressed one and the rows are the N-columns of
    degree <= d-1.  Returns one residual per generator index.
    """
    space = kernel.space
    d_T = kernel.d_T
    scaled = [kernel.r * t for t in kernel.mats]
    out: dict[int, float] = {}
    if d_T == 0:
        # the defect is trivial: the kernel is the empty map and the identity
        # holds vacuously for every generator
        return {i: 0.0 for i in range(1, space.n + 1)}
    if kernel.constrained:
        sub = kernel.sub
        rows = sub.n_cols_up_to(space.d - 1) * d_T
        resh = kernel.matrix.reshape(sub.dim_N, d_T, -1)
        for i in range(1, space.n + 1):
            b = constrained_creation(sub, i, "left")
            lhs = kernel.matrix @ adj(scaled[i - 1])
            rhs = np.tensordot(adj(b), resh, axes=(1, 0)).reshape(kernel.matrix.shape)
            out[i] = opnorm((lhs - rhs)[:rows, :])
    else:
        rows = space.dim_up_to(space.d - 1) * d_T
        resh = kernel.matrix.reshape(space.dim, d_T, -1)
        for i in range(1, space.n + 1):
            s = left_creation(space, i)
            lhs = kernel.matrix @ adj(scaled[i - 1])
            rhs = np.tensordot(adj(s), resh, axes=(1, 0)).reshape(kernel.matrix.shape)
            out[i] = opnorm((lhs - rhs)[:rows, :])
    return out
