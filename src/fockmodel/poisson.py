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

The kernel is the first stage of the chain kernel -> Theta -> model -> Gamma:
it holds the tuple, N, the defect data, the tail and its uncompressed blocks,
and the characteristic function is built from it
(:func:`charfn.constrained_characteristic_function`), reading its blocks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .contractions import (
    as_matrices,
    defects,
    phi_power,
    require_relations,
    DefectData,
)
from .fock import TruncatedFockSpace, creation_targets
from .ideals import ConstrainedSubspace
from .linalg import adj, gram, hermitian_norm, opnorm


@dataclasses.dataclass
class KernelMatrix:
    """A truncated Poisson kernel compressed to N (x) defect, with its metadata.

    ``blocks`` holds the uncompressed blocks of :func:`kernel_blocks`, which
    the characteristic function reads; on the zero family ``matrix`` is the
    same array, reshaped.
    """

    matrix: np.ndarray
    blocks: np.ndarray
    mats: list[np.ndarray]
    sub: ConstrainedSubspace
    defect: DefectData
    tail: np.ndarray                # Phi_T^(d+1)(I), exact
    tail_bound: float               # |tail|
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
        return hermitian_norm(gram(self.matrix) - (np.eye(m, dtype=complex) - self.tail))


def kernel_blocks(
    mats: list[np.ndarray], space: TruncatedFockSpace, defect: DefectData
) -> np.ndarray:
    """The block basis* Delta T_alpha* of every word alpha, shape (dim, d_T, m).

    ``defect`` is the defect data of ``mats``.  These are the Poisson-kernel
    blocks of ``mats`` on the whole truncated space; times one row block of
    Delta_* basis_* they are also the Fourier blocks of its characteristic
    function.  The block of (a) + beta is the block of beta times T_a*, so
    each degree takes one product per letter, written through the left
    creation targets.
    """
    m = mats[0].shape[0]
    blocks = np.empty((space.dim, defect.d_T, m), dtype=complex)
    blocks[0] = adj(defect.basis) @ defect.delta
    for k in range(space.d):
        parents = space.degree_slice(k)
        for a, t in enumerate(mats, start=1):
            blocks[creation_targets(space, a, "left")[parents]] = blocks[parents] @ adj(t)
    return blocks


def constrained_poisson_kernel(
    ts, sub: ConstrainedSubspace, *, relation_residual: float | None = None
) -> KernelMatrix:
    """Poisson kernel compressed to the constrained rows N (x) defect.

    The blocks of :func:`kernel_blocks` are compressed by the N basis; on the
    zero family N is exactly the identity, nothing is compressed, and this is
    the free kernel.  Refuses tuples that do not satisfy the relations
    (residual above 1e-8): the compression is only meaningful -- and only
    lossless -- for tuples in the constrained class.  The norm of the
    discarded M-component is returned on the result as ``subspace_leak``.
    ``relation_residual`` (the constraint_residual under ``sub.spec``) reuses
    what the caller already has of the tuple.
    """
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    residual = require_relations(mats, sub.spec, residual=relation_residual)
    defect = defects(mats)
    blocks = kernel_blocks(mats, sub.space, defect)
    if sub.is_whole_space:  # N = I: nothing to compress, nothing to leak
        compressed, leak_norm = blocks, 0.0
    else:
        compressed = np.tensordot(adj(sub.N_basis), blocks, axes=(1, 0))
        leak = np.tensordot(adj(sub.M_basis), blocks, axes=(1, 0))
        leak_norm = opnorm(leak.reshape(sub.dim_M * defect.d_T, m))
    if leak_norm > 1e-6:
        raise RuntimeError(
            f"kernel leaks {leak_norm:.3e} outside the constrained subspace; "
            "the tuple and the relation family are inconsistent"
        )
    tail = phi_power(mats, sub.space.d + 1)
    return KernelMatrix(
        matrix=compressed.reshape(sub.dim_N * defect.d_T, m),
        blocks=blocks,
        mats=mats,
        sub=sub,
        defect=defect,
        tail=tail,
        tail_bound=hermitian_norm(tail),
        subspace_leak=leak_norm,
        relation_residual=residual,
    )


def verify_intertwining(kernel: KernelMatrix) -> dict[int, float]:
    """Residuals of K T_i* = (B_i* (x) I) K on the rows where it holds.

    B_i is the left creation operator compressed to N (the full shift on the
    zero family).  The identity is exact on the N-columns of degree <= d-1
    (top-degree rows see truncated data on one side only, so they are
    excluded), and only those rows are formed.  S_i* reads the row of the
    target word (i,) + w into the row of w, so B_i* (x) I is a row gather of
    K when N is the whole space and N* gather(N K) otherwise.  Returns one
    residual per generator index.
    """
    sub = kernel.sub
    d_T = kernel.d_T
    if d_T == 0:
        # the defect is trivial: the kernel is the empty map and the identity
        # holds vacuously for every generator
        return {i: 0.0 for i in range(1, sub.space.n + 1)}
    checked = sub.n_cols_up_to(sub.space.d - 1)
    resh = kernel.matrix.reshape(sub.dim_N, d_T, -1)
    whole = resh if sub.is_whole_space else np.tensordot(sub.N_basis, resh, axes=(1, 0))
    out: dict[int, float] = {}
    for i in range(1, sub.space.n + 1):
        targets = creation_targets(sub.space, i, "left")
        rhs = whole[targets]
        if not sub.is_whole_space:
            rhs = np.tensordot(adj(sub.N_basis[: targets.size, :checked]), rhs, axes=(1, 0))
        residual = kernel.matrix[: checked * d_T] @ adj(kernel.mats[i - 1])
        residual -= rhs.reshape(residual.shape)
        out[i] = opnorm(residual)
    return out
