"""Poisson kernels of row contractions, truncated and compressed to N.

For a row contraction T on C^m the kernel maps C^m into
(Fock space) (x) (defect space of T):

    K h  =  sum_{|alpha| <= d}  e_alpha (x) [basis* Delta T_alpha* h],

where Delta is the defect of T and basis is an orthonormal basis of its
range.  Delta is never formed: with eigvals the kept eigenvalues of
Delta^2 (:class:`contractions.DefectData`), basis* Delta is
sqrt(eigvals)[:, None] * basis*.  Rows are Fock-major: the block of word alpha occupies rows
[index(alpha)*d_T, (index(alpha)+1)*d_T).  The kernel of a scaled tuple rT
is the kernel of the tuple [r T_1, ..., r T_n].

Truncation is exact here, not an approximation with an unknown constant:

    K* K = I - Phi_T^(d+1)(I)

holds to rounding, so the kernel is an isometry up to exactly the tail the
degree cap forgets.  That tail, |Phi_T^(d+1)(I)|, is computed alongside
the kernel and carried on the result; downstream comparisons consume it
instead of a global fudge tolerance.  The tail is the (d+1)-st iterate of the
iteration Phi^k(I) that certifies purity and c.n.c.
(:func:`contractions.classify`), so the kernel classifies its tuple itself,
at its own degree, and reads the tail off that classification.  It is the
one maker and the one holder of the tuple's classification: every later
stage reads it from the kernel.

When T satisfies a family of polynomial relations, the kernel's range avoids
the relation span M (x) defect entirely -- again exactly at truncation -- so
compressing the rows to N = M-perp loses nothing.  The compressed kernel and
the size of the discarded component (`subspace_leak`, which should be at
rounding level) are produced by :func:`constrained_poisson_kernel`, the one
builder.  The free (unconstrained) kernel is the same call on the zero
family, ``ideal_subspace(PolyIdealSpec(n=n), space)``, where N is the whole
space.  Every product by N here is a method of
:class:`ideals.ConstrainedSubspace`: ``compress`` for the kernel, ``leak``
for its part off N and ``top_spill`` for eq-ker; this module never reads
N's basis.

The check eq-ker (:attr:`KernelMatrix.intertwining_check`) is the identity
K T_i* = (B_i* (x) I) K, B_i = N* S_i N, on the rows of the N-columns c of
degree <= d - 1, and it reports a proven bound on that residual instead of
measuring it.  With K_full the uncompressed kernel, (S_i* (x) I) K_full =
K_full T_i* holds exactly on the words of degree <= d - 1 -- it is the
recursion that built the blocks -- so the residual on the rows c is

    N_c* S_i* (I - N N*) K_full  +  N_c,top* (K_full T_i*)_top,

whose norm is at most |((I - N N*) (x) I) K_full| + |N_c,top|, since
|K_full| <= 1 (K_full* K_full = I - Phi^(d+1)(I)), |T_i| <= 1 and
|S_i| <= 1.  The first term is the leak; the second, N's columns of degree
<= d - 1 on the top-degree words, is exactly 0 on the whole space and on a
graded family.  The tests keep the dense residual as its oracle.

The kernel is the first stage of the chain kernel -> Theta -> model -> Gamma:
it holds the tuple, N, the defect data, the tail, the classification and its
uncompressed blocks, and the characteristic function is built from it
(:func:`charfn.constrained_characteristic_function`), reading its blocks.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .contractions import (
    _CLASSIFY_TOL,
    as_matrices,
    classify,
    defects,
    require_relations,
    Classification,
    DefectData,
)
from .fock import TruncatedFockSpace
from .ideals import ConstrainedSubspace
from .linalg import adj, gram, hermitian_norm


@dataclasses.dataclass
class KernelMatrix:
    """A truncated Poisson kernel compressed to N (x) defect, with its metadata.

    ``blocks`` holds the uncompressed blocks of :func:`kernel_blocks`, which
    the characteristic function reads; on the zero family ``matrix`` is the
    same array, reshaped.  ``classification`` is the tuple's, made by the
    builder at the space's degree; the later stages read it here.
    :attr:`checks` pairs each residual measured on the kernel with its
    tolerance.
    """

    matrix: np.ndarray
    blocks: np.ndarray
    mats: list[np.ndarray]
    sub: ConstrainedSubspace
    defect: DefectData
    classification: Classification
    tail_bound: float               # |tail|
    subspace_leak: float

    @property
    def tail(self) -> np.ndarray:
        """Phi_T^(d+1)(I), exact: the iterate the classification kept."""
        return self.classification.tail

    @property
    def space(self) -> TruncatedFockSpace:
        return self.sub.space

    @property
    def d_T(self) -> int:
        return self.defect.d_T

    @cached_property
    def gram(self) -> np.ndarray:
        """K*K, m x m, formed once: K*K's check and the spectrum record both read it."""
        return gram(self.matrix)

    def gram_residual(self) -> float:
        """| K*K - (I - Phi_T^(d+1)(I)) |; rounding-level by construction."""
        m = self.mats[0].shape[0]
        return hermitian_norm(self.gram - (np.eye(m, dtype=complex) - self.tail))

    @cached_property
    def gram_check(self) -> tuple[str, float, float]:
        """("K*K", :meth:`gram_residual`, tail_bound + 1e-10), measured on first read and kept.

        The identity holds to rounding at any degree once the exact tail is
        subtracted, so the tolerance is the tail plus rounding.
        """
        return "K*K", self.gram_residual(), self.tail_bound + 1e-10

    @property
    def intertwining_check(self) -> tuple[str, float, float]:
        """("eq-ker", subspace_leak + |N_c,top|, 1e-10): the bound on K T_i* - (B_i* (x) I) K.

        The residual of every generator on the rows of the N-columns of
        degree <= d - 1 is at most the leak plus the spill
        (:attr:`ideals.ConstrainedSubspace.top_spill`), by the bound of the
        module docstring.  Both read 0.0 on the whole space, where the
        identity is the kernel's own recursion; on a graded family the bound
        is the leak.  The identity is exact, so rounding is all the
        tolerance allows.
        """
        return "eq-ker", self.subspace_leak + self.sub.top_spill, 1e-10

    @property
    def checks(self) -> list[tuple[str, float, float]]:
        """(name, residual, tolerance) of K*K and eq-ker, in report order."""
        return [self.gram_check, self.intertwining_check]


def kernel_blocks(
    mats: list[np.ndarray], space: TruncatedFockSpace, defect: DefectData
) -> np.ndarray:
    """The block basis* Delta T_alpha* of every word alpha, shape (dim, d_T, m).

    ``defect`` is the defect data of ``mats``; the vacuum block
    basis* Delta is sqrt(eigvals)[:, None] * basis*.  These are the
    Poisson-kernel blocks of ``mats`` on the whole truncated space; times one
    row block of Delta_* basis_* = basis_star * sqrt(eigvals_star) they are
    also the Fourier blocks of its characteristic function.  The block of
    (a) + beta is the block of beta times T_a*, and the words (a) + beta of
    one degree of beta are the row a of :meth:`fock.TruncatedFockSpace.grid`,
    so each degree takes one product, the stacked blocks of that degree
    times the stacked T_a*, written straight into the grid: the blocks are
    the only array of their size that is allocated.
    """
    n, m, d_T = len(mats), mats[0].shape[0], defect.d_T
    blocks = np.empty((space.dim, d_T, m), dtype=complex)
    blocks[0] = np.sqrt(defect.eigvals)[:, None] * adj(defect.basis)
    t_adj = np.empty((n, m, m), dtype=complex)
    for a, t in enumerate(mats):
        np.conjugate(t.T, out=t_adj[a])
    for k in range(space.d):
        parents = blocks[space.degree_slice(k)].reshape(n**k * d_T, m)
        np.matmul(parents, t_adj, out=space.grid(blocks, 1, k).reshape(n, n**k * d_T, m))
    return blocks


def constrained_poisson_kernel(
    ts, sub: ConstrainedSubspace, *, relation_residual: float | None = None,
    tol: float = _CLASSIFY_TOL,
) -> KernelMatrix:
    """Poisson kernel compressed to the constrained rows N (x) defect.

    The blocks of :func:`kernel_blocks` are compressed by N
    (:meth:`ideals.ConstrainedSubspace.compress`); on the zero family N is
    the whole space, the compression returns the blocks themselves, nothing
    can leak, and this is the free kernel.  Refuses tuples that do not
    satisfy the relations (residual above 1e-10): the compression is only
    meaningful -- and only lossless -- for tuples in the constrained class.
    ``relation_residual`` (the constraint_residual under ``sub.spec``) reuses
    what the caller already has of the tuple.  The tuple is then classified
    at the space's degree d with tolerance ``tol``
    (:func:`contractions.classify`); the classification is kept on the
    kernel, and its ``tail`` Phi^(d+1)(I) is the kernel's.  The norm of the
    discarded M-component, |((I - N N*) (x) I) K| with K the uncompressed
    kernel (:meth:`ideals.ConstrainedSubspace.leak`, 0.0 on the whole
    space), is returned on the result as ``subspace_leak``.
    """
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    require_relations(mats, sub.spec, residual=relation_residual)
    classification = classify(mats, tol=tol, degree=sub.space.d)
    defect = defects(mats)
    blocks = kernel_blocks(mats, sub.space, defect)
    compressed = sub.compress(blocks.reshape(-1, m), defect.d_T)
    leak_norm = sub.leak(blocks, compressed)
    if leak_norm > 1e-6:
        raise RuntimeError(
            f"kernel leaks {leak_norm:.3e} outside the constrained subspace; "
            "the tuple and the relation family are inconsistent"
        )
    return KernelMatrix(
        matrix=compressed.reshape(sub.dim_N * defect.d_T, m),
        blocks=blocks,
        mats=mats,
        sub=sub,
        defect=defect,
        classification=classification,
        tail_bound=hermitian_norm(classification.tail),
        subspace_leak=leak_norm,
    )
