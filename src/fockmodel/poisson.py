"""Poisson kernels of row contractions, truncated and compressed to N.

For a row contraction T on C^m the kernel maps C^m into
(Fock space) (x) (defect space of T):

    K h  =  sum_{|alpha| <= d}  e_alpha (x) [basis* Delta T_alpha* h],

where Delta is the defect of T and basis is an orthonormal basis of its
range.  Rows are Fock-major: the block of word alpha occupies rows
[index(alpha)*d_T, (index(alpha)+1)*d_T).  The kernel of a scaled tuple rT
is the kernel of the tuple [r T_1, ..., r T_n].

Truncation is exact here, not an approximation with an unknown constant:

    K* K = I - Phi_T^(d+1)(I)

holds to rounding, so the kernel is an isometry up to exactly the tail the
degree cap forgets.  That tail, |Phi_T^(d+1)(I)|, is computed alongside
the kernel and carried on the result; downstream comparisons consume it
instead of a global fudge tolerance.

When T satisfies a family of polynomial relations, the kernel's range avoids
the relation span M (x) defect entirely -- again exactly at truncation -- so
compressing the rows to N = M-perp loses nothing.  The compressed kernel and
the size of the discarded component (`subspace_leak`, which should be at
rounding level) are produced by :func:`constrained_poisson_kernel`, the one
builder.  The free (unconstrained) kernel is the same call on the zero
family, ``ideal_subspace(PolyIdealSpec(n=n), space)``, where N is the whole
space.
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
from .fock import TruncatedFockSpace
from .ideals import ConstrainedSubspace, constrained_creation
from .linalg import adj, opnorm


@dataclasses.dataclass
class KernelMatrix:
    """A truncated Poisson kernel compressed to N (x) defect, with its metadata."""

    matrix: np.ndarray
    mats: list[np.ndarray]
    sub: ConstrainedSubspace
    defect: DefectData
    tail_bound: float               # |Phi_T^(d+1)(I)|, exact
    subspace_leak: float
    relation_residual: float

    @property
    def space(self) -> TruncatedFockSpace:
        return self.sub.space

    @property
    def d_T(self) -> int:
        return self.defect.d_T

    def gram_residual(self) -> float:
        """| K*K - (I - Phi_T^(d+1)(I)) |; rounding-level by construction."""
        m = self.mats[0].shape[0]
        target = np.eye(m, dtype=complex) - phi_power(self.mats, self.space.d + 1)
        return opnorm(adj(self.matrix) @ self.matrix - target)


def kernel_blocks(
    mats: list[np.ndarray], space: TruncatedFockSpace, defect: DefectData
) -> np.ndarray:
    """The block basis* Delta T_alpha* of every word alpha, shape (dim, d_T, m).

    ``defect`` is the defect data of ``mats``.  These are the Poisson-kernel
    blocks of ``mats`` on the whole truncated space; times one row block of
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


def constrained_poisson_kernel(
    ts,
    sub: ConstrainedSubspace,
    *,
    defect: DefectData | None = None,
) -> KernelMatrix:
    """Poisson kernel compressed to the constrained rows N (x) defect.

    The blocks of :func:`kernel_blocks` are compressed by the N basis; on the
    zero family N is the identity and this is the free kernel.  Refuses
    tuples that do not satisfy the relations (residual above 1e-8): the
    compression is only meaningful -- and only lossless -- for tuples in the
    constrained class.  The norm of the discarded M-component is returned on
    the result as ``subspace_leak``.  ``defect`` reuses the tuple's defect
    data when the caller already has it.
    """
    mats = as_matrices(ts)
    residual = constraint_residual(mats, sub.spec)
    if residual > _RELATION_TOL:
        raise ValueError(
            f"tuple violates the polynomial relations: residual {residual:.3e} "
            f"exceeds {_RELATION_TOL:.0e}"
        )
    if defect is None:
        defect = defects(mats)
    blocks = kernel_blocks(mats, sub.space, defect)
    compressed = np.tensordot(adj(sub.N_basis), blocks, axes=(1, 0))
    leak = np.tensordot(adj(sub.M_basis), blocks, axes=(1, 0))
    leak_norm = opnorm(leak.reshape(sub.dim_M * defect.d_T, -1)) if sub.dim_M else 0.0
    if leak_norm > 1e-6:
        raise RuntimeError(
            f"kernel leaks {leak_norm:.3e} outside the constrained subspace; "
            "the tuple and the relation family are inconsistent"
        )
    return KernelMatrix(
        matrix=compressed.reshape(sub.dim_N * defect.d_T, mats[0].shape[0]),
        mats=mats,
        sub=sub,
        defect=defect,
        tail_bound=truncation_tail(mats, sub.space.d),
        subspace_leak=leak_norm,
        relation_residual=residual,
    )


def verify_intertwining(kernel: KernelMatrix) -> dict[int, float]:
    """Residuals of K T_i* = (B_i* (x) I) K on the rows where it holds.

    B_i is the left creation operator compressed to N (the full shift on the
    zero family).  The identity is exact on the N-columns of degree <= d-1
    (top-degree rows see truncated data on one side only, so they are
    excluded).  Returns one residual per generator index.
    """
    sub = kernel.sub
    d_T = kernel.d_T
    if d_T == 0:
        # the defect is trivial: the kernel is the empty map and the identity
        # holds vacuously for every generator
        return {i: 0.0 for i in range(1, sub.space.n + 1)}
    rows = sub.n_cols_up_to(sub.space.d - 1) * d_T
    resh = kernel.matrix.reshape(sub.dim_N, d_T, -1)
    out: dict[int, float] = {}
    for i in range(1, sub.space.n + 1):
        b = constrained_creation(sub, i, "left")
        lhs = kernel.matrix @ adj(kernel.mats[i - 1])
        rhs = np.tensordot(adj(b), resh, axes=(1, 0)).reshape(kernel.matrix.shape)
        out[i] = opnorm((lhs - rhs)[:rows, :])
    return out
