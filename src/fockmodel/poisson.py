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
(:func:`contractions.classify`), so the kernel is also the one holder of the
tuple's classification: given one, it keeps it and reads the tail off it, and
every later stage reads the classification from the kernel.

When T satisfies a family of polynomial relations, the kernel's range avoids
the relation span M (x) defect entirely -- again exactly at truncation -- so
compressing the rows to N = M-perp loses nothing.  The compressed kernel and
the size of the discarded component (`subspace_leak`, which should be at
rounding level) are produced by :func:`constrained_poisson_kernel`, the one
builder.  The free (unconstrained) kernel is the same call on the zero
family, ``ideal_subspace(PolyIdealSpec(n=n), space)``, where N is the whole
space.  Every product by N here is a method of
:class:`ideals.ConstrainedSubspace`: ``compress`` for the kernel, ``leak``
for its part off N and ``shift_adjoint`` for eq-ker; this module never reads
N's basis.  The check eq-ker (:attr:`KernelMatrix.intertwining_check`) is
measured only on a relation family: on the whole space the identity
K T_i* = (S_i* (x) I) K is the recursion that built the kernel, and its
residual is read off as 0.0, as the leak is.  :func:`verify_intertwining`
measures it on any kernel.

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
    as_matrices,
    defects,
    phi_power,
    require_relations,
    Classification,
    DefectData,
)
from .fock import TruncatedFockSpace
from .ideals import ConstrainedSubspace
from .linalg import _word_chunks, adj, gram, hermitian_norm, stacked_opnorm


@dataclasses.dataclass
class KernelMatrix:
    """A truncated Poisson kernel compressed to N (x) defect, with its metadata.

    ``blocks`` holds the uncompressed blocks of :func:`kernel_blocks`, which
    the characteristic function reads; on the zero family ``matrix`` is the
    same array, reshaped.  ``classification`` is the one the kernel was built
    with, or None; the later stages read it here.  :attr:`checks` pairs each
    residual measured on the kernel with its tolerance.
    """

    matrix: np.ndarray
    blocks: np.ndarray
    mats: list[np.ndarray]
    sub: ConstrainedSubspace
    defect: DefectData
    tail: np.ndarray                # Phi_T^(d+1)(I), exact
    tail_bound: float               # |tail|
    subspace_leak: float
    classification: Classification | None = None

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

    @cached_property
    def intertwining_check(self) -> tuple[str, float, float]:
        """("eq-ker", the worst generator of :func:`verify_intertwining`, 1e-10), kept.

        The identity is exact on the rows it is measured on, so rounding is
        all the tolerance allows.  On the whole space the residual is read
        off the kernel's recursion, not measured: there B_i* is S_i*, the
        target rows of (S_i* (x) I) K are the products K T_i* that
        :func:`kernel_blocks` wrote, and the identity is that recursion, so
        it reads 0.0, as the leak does
        (:meth:`ideals.ConstrainedSubspace.leak`).  On a relation family it
        is measured by :func:`verify_intertwining`.
        """
        if self.sub.is_whole_space:
            return "eq-ker", 0.0, 1e-10
        return "eq-ker", max(verify_intertwining(self).values()), 1e-10

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
    ts,
    sub: ConstrainedSubspace,
    *,
    relation_residual: float | None = None,
    classification: Classification | None = None,
) -> KernelMatrix:
    """Poisson kernel compressed to the constrained rows N (x) defect.

    The blocks of :func:`kernel_blocks` are compressed by N
    (:meth:`ideals.ConstrainedSubspace.compress`); on the zero family N is
    the whole space, the compression returns the blocks themselves, nothing
    can leak, and this is the free kernel.  Refuses tuples that do not
    satisfy the relations (residual above 1e-10): the compression is only
    meaningful -- and only lossless -- for tuples in the constrained class.
    The norm of the discarded M-component, |((I - N N*) (x) I) K| with K
    the uncompressed kernel (:meth:`ideals.ConstrainedSubspace.leak`, 0.0 on
    the whole space), is returned on the result as ``subspace_leak``.
    ``relation_residual`` (the constraint_residual under ``sub.spec``) and
    ``classification`` (:func:`contractions.classify` of the tuple) reuse
    what the caller already has of the tuple.  The classification is kept
    on the kernel, and its ``tail`` is the kernel's when classify was given
    the degree; without one, or without that tail, the tail Phi^(d+1)(I) is
    computed by :func:`contractions.phi_power`.
    """
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    require_relations(mats, sub.spec, residual=relation_residual)
    defect = defects(mats)
    blocks = kernel_blocks(mats, sub.space, defect)
    compressed = sub.compress(blocks.reshape(-1, m), defect.d_T)
    leak_norm = sub.leak(blocks, compressed)
    if leak_norm > 1e-6:
        raise RuntimeError(
            f"kernel leaks {leak_norm:.3e} outside the constrained subspace; "
            "the tuple and the relation family are inconsistent"
        )
    tail = None if classification is None else classification.tail
    if tail is None:
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
        classification=classification,
    )


def verify_intertwining(kernel: KernelMatrix) -> dict[int, float]:
    """Residuals of K T_i* = (B_i* (x) I) K on the rows where it holds.

    B_i = N* S_i N is the left creation operator compressed to N (the full
    shift on the zero family).  The identity is exact on the N-columns of
    degree <= d-1 (top-degree rows see truncated data on one side only, so
    they are excluded), and only those rows are formed, a chunk of words at
    a time (:func:`linalg._word_chunks`), into one buffer that every chunk and
    generator reuses.  Each chunk is K T_i* on its rows minus the same rows
    of (B_i* (x) I) K.  When N is the whole space, S_i* reads the row of the
    target word (i,) + w into the row of w, the targets of one degree are
    the row i of its grid (:meth:`fock.TruncatedFockSpace.grid`), and the
    target rows of K are subtracted in place; otherwise (B_i* (x) I) K is
    formed once per generator by
    :meth:`ideals.ConstrainedSubspace.shift_adjoint`, the size of K, and its
    rows are subtracted.  The residual is the spectral norm of the stacked
    chunks (:func:`linalg.stacked_opnorm`).  Returns one residual per
    generator index.
    """
    sub = kernel.sub
    space = sub.space
    d_T = kernel.d_T
    checked = sub.n_cols_up_to(space.d - 1)
    if d_T == 0 or checked == 0:
        # the defect is trivial (the kernel is the empty map) or no row is
        # checked: the identity holds vacuously for every generator
        return {i: 0.0 for i in range(1, space.n + 1)}
    k_mat, n = kernel.matrix, space.n
    m = k_mat.shape[1]
    chunks = _word_chunks(checked, d_T * m)
    buffer = np.empty((chunks[0][1] * d_T, m), dtype=complex)  # the first chunk is the largest

    def sources(i: int) -> list[tuple[slice, np.ndarray]]:
        """(words w, rows): the rows of (B_i* (x) I) K at the words w, from the first."""
        if sub.is_whole_space:  # the row of a word w of degree k < d is that of (i,) + w
            blocks = k_mat.reshape(space.dim, d_T, m)
            return [(space.degree_slice(k), space.grid(blocks, 1, k)[i - 1].reshape(n**k * d_T, m))
                    for k in range(space.d)]
        return [(slice(0, checked), sub.shift_adjoint(i, k_mat, d_T))]

    def residual_chunks(i: int):
        t_adj, pieces = adj(kernel.mats[i - 1]), sources(i)
        for w0, w1 in chunks:
            chunk = buffer[: (w1 - w0) * d_T]
            np.matmul(k_mat[w0 * d_T : w1 * d_T], t_adj, out=chunk)
            for words, rows in pieces:
                lo, hi = max(w0, words.start), min(w1, words.stop)
                if lo < hi:
                    chunk[(lo - w0) * d_T : (hi - w0) * d_T] -= (
                        rows[(lo - words.start) * d_T : (hi - words.start) * d_T])
            yield chunk

    return {i: stacked_opnorm(residual_chunks(i), m) for i in range(1, space.n + 1)}

