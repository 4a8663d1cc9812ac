"""Characteristic functions of row contractions at finite truncation.

The characteristic function Theta_T of a row contraction T is multi-analytic,
so its Fourier blocks fix it.  With R_gamma the right creation by the word
gamma,

    Theta_T = sum_alpha R_alpha (x) theta_(alpha):

block theta_(alpha) sits at row word gamma alpha and column word gamma, for
every column word gamma with |gamma alpha| <= d.  The matrix built here is
therefore the compression of the untruncated object to degrees <= d -- no
series is ever cut off mid-air.

Layout: with d_T / d_star the defect ranks, the matrix maps
(words) (x) C^{d_star} -> (words) (x) C^{d_T}, word-major on both sides, so
entry blocks are read off by reshaping to (words, d_T, words, d_star).

Fourier data: the block of word alpha = (a_1, ..., a_p) in the vacuum column
is

    theta_(alpha) = basis* Delta T_{a_p}* ... T_{a_2}* sel_{a_1} Delta_* basis_*,

and the empty word carries -basis* [T_1 ... T_n] basis_*.  (sel_i picks the
i-th block of C^n (x) C^m.)  For alpha = (a) + beta this is the radius-1
Poisson-kernel block basis* Delta T_beta* of beta times the a-th row block of
Delta_* basis_*, so kernel and function share one parent-word recurrence
(:func:`poisson.kernel_blocks`).  The blocks also drive the scalar evaluation
in the commuting case and the cheap unitary-invariance checks.

Constrained version: for T satisfying a family of polynomial relations, the
relation span M (x) defect is invariant under the function (exactly, also at
truncation), so compressing rows and columns to N = M-perp loses nothing:
the factorization against the constrained Poisson kernel,

    I - Theta_J Theta_J* = K_J K_J*    (plus the exact truncation tail),

survives compression verbatim.  The constrained function is that
compression, and :func:`constrained_characteristic_function` is the one
builder: on the zero family, ``ideal_subspace(PolyIdealSpec(n=n), space)``,
N is the whole space and the result is the free function Theta_T.  For a
graded family with relations the same matrix is also assembled directly on
N as a Neumann series in the compressed shifts; the two routes share no
subspace code beyond the N basis, so their agreement guards the whole
constraint pipeline.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .contractions import (
    _RELATION_TOL,
    as_matrices,
    constraint_residual,
    defects,
    truncation_tail,
    DefectData,
)
from .fock import TruncatedFockSpace
from .ideals import ConstrainedSubspace, PolyIdealSpec, constrained_creation_tuple
from .linalg import adj, opnorm
from .poisson import KernelMatrix, kernel_blocks

_SERIES_AGREEMENT_TOL = 1e-10


@dataclasses.dataclass
class CharFn:
    """A truncated characteristic function compressed to N on both sides."""

    matrix: np.ndarray
    sub: ConstrainedSubspace
    defect: DefectData
    tail_bound: float
    coinvariance_leak: float | None = None
    series_agreement: float | None = None

    @property
    def space(self) -> TruncatedFockSpace:
        return self.sub.space

    @property
    def d_T(self) -> int:
        return self.defect.d_T

    @property
    def d_star(self) -> int:
        return self.defect.d_star

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD (U, sigma, V) of the matrix, computed once.

        Theta = U[:, :r] diag(sigma) V[:, :r]* with r = min(p, q), sigma
        descending; U is p x p and V is q x q, so their trailing columns span
        ker Theta* and ker Theta.  Every spectral quantity of the model
        (Delta, its range, the model space, the pure basis) derives from it.
        """
        u, sigma, vh = np.linalg.svd(self.matrix, full_matrices=True)
        return u, sigma, adj(vh)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values, descending: those of ``svd`` once that exists, else values only."""
        if "svd" in self.__dict__:
            return self.svd[1]
        return np.linalg.svd(self.matrix, compute_uv=False)

    @cached_property
    def fourier_blocks(self) -> np.ndarray:
        """The vacuum-column Fourier block of every word, shape (dim, d_T, d_star).

        Row j is the d_T x d_star block of the j-th word of ``space``.  The
        vacuum column is contracted once and the result mapped back to words
        through the N basis.
        """
        nb = self.sub.N_basis
        b = self.sub.dim_N
        vacuum = np.tensordot(
            self.matrix.reshape(b, self.d_T, b, self.d_star), nb[0, :].conj(), axes=(2, 0)
        )
        return np.tensordot(nb, vacuum, axes=(1, 0))


def fourier_block(cf: CharFn, word) -> np.ndarray:
    """The d_T x d_star coefficient block of the given word.

    This is the block of the compressed expansion; it agrees with the block of
    the free function because the compression is exact (and is near-zero for
    every word when the tuple is the constrained shift itself).  If the
    vacuum is not in N the expansion is empty and blocks are zero by
    convention.
    """
    return cf.fourier_blocks[cf.space.index(tuple(word))].copy()


def fourier_sum(cf: CharFn, z) -> np.ndarray:
    """sum_alpha z^alpha theta_(alpha) over all truncated words.

    z is a point of C^n; z^alpha multiplies the letters along the word.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (cf.space.n,):
        raise ValueError(f"need a point of C^{cf.space.n}, got shape {z.shape}")
    coherent = np.empty(cf.space.dim, dtype=complex)
    for iw, w in enumerate(cf.space.words):
        val = 1.0 + 0.0j
        for a in w:
            val *= z[a - 1]
        coherent[iw] = val
    return np.tensordot(coherent, cf.fourier_blocks, axes=(0, 0))


def constrained_characteristic_function(
    ts,
    sub: ConstrainedSubspace,
    *,
    defect: DefectData | None = None,
) -> CharFn:
    """Characteristic function compressed to the constrained subspace.

    The function on the whole truncated space is built from its Fourier
    blocks and both sides are compressed by the N basis (the identity on the
    zero family, which gives the free function).  Whenever the family has
    relations (dim M > 0) the part that maps M into N is recorded as
    ``coinvariance_leak``; for a graded family it must stay below
    max(1e-8, 100 * relation residual), and the matrix is also assembled
    directly on N from the compressed shifts, which must agree with the
    compression to 1e-10 (recorded as ``series_agreement``).  Tuples
    violating the relations (residual above 1e-8) are refused.
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
    full_matrix = _block_matrix(mats, sub.space, defect)
    matrix = _compress_blocks(full_matrix, sub.N_basis, sub.N_basis, defect)

    series_agreement = leak = None
    if sub.dim_M:
        if sub.graded:
            series_agreement = opnorm(matrix - _series_matrix(mats, sub, defect))
            if series_agreement > _SERIES_AGREEMENT_TOL:
                raise RuntimeError(
                    f"compression and series routes disagree by {series_agreement:.3e}; "
                    "the constrained-subspace machinery is inconsistent"
                )
        # Invariance of the relation span: rows in N, columns in M vanish.
        leak = opnorm(_compress_blocks(full_matrix, sub.N_basis, sub.M_basis, defect))
        if leak > max(1e-8, 100.0 * max(residual, 1e-16)) and sub.graded:
            raise RuntimeError(
                f"characteristic function leaks {leak:.3e} from the relation span "
                "into the constrained subspace"
            )

    return CharFn(
        matrix=matrix,
        sub=sub,
        defect=defect,
        tail_bound=truncation_tail(mats, sub.space.d),
        coinvariance_leak=leak,
        series_agreement=series_agreement,
    )


def _block_matrix(
    mats: list[np.ndarray], space: TruncatedFockSpace, defect: DefectData
) -> np.ndarray:
    """sum_alpha R_alpha (x) theta_(alpha) on the whole truncated space.

    The vacuum-column blocks come from the Poisson-kernel recurrence; block
    theta_(alpha) is then placed at row word gamma alpha, column word gamma.
    """
    n, m = len(mats), mats[0].shape[0]
    d_T, d_star = defect.d_T, defect.d_star
    words = space.words
    row_blocks = (defect.delta_star @ defect.basis_star).reshape(n, m, d_star)
    blocks = np.empty((space.dim, d_T, d_star), dtype=complex)
    blocks[0] = -adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    if space.d:
        # theta_((a) + beta) = basis* Delta T_beta* (Delta_* basis_*)[rows of letter a]
        first = np.array([w[0] - 1 for w in words[1:]])
        rest = np.array([space.index(w[1:]) for w in words[1:]])
        blocks[1:] = kernel_blocks(mats, space, defect)[rest] @ row_blocks[first]

    rows, cols, alphas = np.array(
        [
            (space.index(gamma + alpha), col, ia)
            for col, gamma in enumerate(words)
            for ia, alpha in enumerate(words[: space.dim_up_to(space.d - len(gamma))])
        ]
    ).T
    theta = np.zeros((space.dim, d_T, space.dim, d_star), dtype=complex)
    theta[rows, :, cols, :] = blocks[alphas]
    return theta.reshape(space.dim * d_T, space.dim * d_star)


def _series_matrix(mats: list[np.ndarray], sub: ConstrainedSubspace, defect: DefectData) -> np.ndarray:
    """The constrained function assembled directly on N (the cross-check).

    -I(x)row + I(x)Delta (sum_k A^k) R_amp I(x)Delta_*, compressed to the
    defect bases, with A = sum_i B_i (x) T_i* for the compressed right shifts
    B_i on N; nilpotency of degree raising makes the k-sum finite and exact.
    """
    raising = constrained_creation_tuple(sub, "right")
    n, m = len(mats), mats[0].shape[0]
    block_dim = sub.dim_N
    row = np.hstack(mats)
    a = sum(np.kron(r, adj(t)) for r, t in zip(raising, mats))
    total = np.eye(block_dim * m, dtype=complex)
    acc = np.eye(block_dim * m, dtype=complex)
    for _ in range(sub.space.d):
        acc = a @ acc
        total += acc
    sel = np.eye(n * m, dtype=complex).reshape(n, m, n * m)  # sel[i] picks letter i's block
    r_amp = sum(np.kron(r, s) for r, s in zip(raising, sel))
    eye_b = np.eye(block_dim, dtype=complex)
    full = -np.kron(eye_b, row) + np.kron(eye_b, defect.delta) @ total @ r_amp @ np.kron(
        eye_b, defect.delta_star
    )
    # Compress C^m -> defect and C^{nm} -> dual defect, blockwise.
    resh = full.reshape(block_dim, m, block_dim, n * m)
    resh = np.tensordot(adj(defect.basis), resh, axes=(1, 1))       # (d_T, blk, blk, nm)
    resh = np.moveaxis(resh, 0, 1)                                   # (blk, d_T, blk, nm)
    resh = np.tensordot(resh, defect.basis_star, axes=(3, 0))        # (blk, d_T, blk, d_star)
    return np.ascontiguousarray(resh).reshape(
        block_dim * defect.d_T, block_dim * defect.d_star
    )


def _compress_blocks(
    theta: np.ndarray, left: np.ndarray, right: np.ndarray, defect: DefectData
) -> np.ndarray:
    """(left* (x) I_dT) theta (right (x) I_dstar) via reshapes."""
    dim, d_T, d_star = left.shape[0], defect.d_T, defect.d_star
    n_left, n_right = left.shape[1], right.shape[1]
    rows = adj(left) @ theta.reshape(dim, d_T * dim * d_star)          # (L, d_T * dim * d_star)
    out = right.T @ rows.reshape(n_left * d_T, dim, d_star)            # (L * d_T, R, d_star)
    return out.reshape(n_left * d_T, n_right * d_star)


def _require_same_subspace(theta: CharFn, kernel: KernelMatrix) -> None:
    """Refuse a function and a kernel compressed to different subspaces N.

    The same subspace object, or an equal N basis of the same Fock space,
    passes.  Equal dimensions do not: commutative and q-commutative families
    share dim N.
    """
    a, b = theta.sub, kernel.sub
    same_space = (a.space.n, a.space.d) == (b.space.n, b.space.d)
    if a is not b and not (same_space and np.array_equal(a.N_basis, b.N_basis)):
        raise ValueError(
            "the characteristic function and the kernel are compressed to different subspaces"
        )


def factorization_defect(theta: CharFn, kernel: KernelMatrix) -> float:
    """| I - Theta Theta* - K K* |, the joint defect of the factorization.

    For a pure tuple this is rounding-level at truncation; in general it is
    bounded by the recorded truncation tails.  Both must live on one
    subspace N.
    """
    _require_same_subspace(theta, kernel)
    p = theta.matrix.shape[0]
    if kernel.matrix.shape[0] != p:
        raise ValueError(
            f"row spaces disagree: function has {p} rows, kernel {kernel.matrix.shape[0]}"
        )
    eye = np.eye(p, dtype=complex)
    return opnorm(eye - theta.matrix @ adj(theta.matrix) - kernel.matrix @ adj(kernel.matrix))


@dataclasses.dataclass
class DeltaClassification:
    """Inner/outer verdicts of the function, read off its singular values."""

    inner: bool
    outer: bool
    partial_isometry_residual: float
    inner_threshold: float
    outer_threshold: float
    singular_values: np.ndarray
    rank_deficiency: int
    norm: float


def delta_and_classify(theta: CharFn) -> DeltaClassification:
    """Decide whether Theta is inner / outer, from its singular values alone.

    Delta = (I - Theta*Theta)^(1/2) has the eigenvalues sqrt(1 - sigma^2),
    so the singular values sigma of Theta carry every verdict and no
    decomposition beyond ``theta.singular_values`` is taken.

    Inner means Theta is a partial isometry; at truncation the residual
    |(Theta*Theta)^2 - Theta*Theta| = max |sigma^4 - sigma^2| of an inner
    function equals exactly the tail the degree cap forgets, so the threshold
    adds the function's recorded tail_bound.  Outer means dense range,
    decided by codomain-rank fullness with an absolute cutoff on squared
    singular values; the deficiency it counts is dim ker(Theta*), the same
    number the kernel-side route sees as dim ker(I - K*K).  The norm is the
    largest singular value.
    """
    svals = theta.singular_values
    sq = svals**2
    residual = float(np.max(np.abs(sq * sq - sq))) if svals.size else 0.0
    inner_threshold = 1e-8 + theta.tail_bound
    outer_threshold = 1e-8
    rows = theta.matrix.shape[0]
    full_rank_count = int(np.count_nonzero(sq > outer_threshold))
    # Dense range fails exactly on ker(Theta*), so the deficiency is counted
    # against the codomain; this is the same number the kernel route sees as
    # dim ker(I - K*K).
    deficiency = rows - full_rank_count
    return DeltaClassification(
        inner=bool(residual < inner_threshold),
        outer=bool(deficiency == 0),
        partial_isometry_residual=residual,
        inner_threshold=float(inner_threshold),
        outer_threshold=float(outer_threshold),
        singular_values=svals,
        rank_deficiency=int(deficiency),
        norm=float(svals[0]) if svals.size else 0.0,
    )


def eval_commutative(ts, z, *, defect: DefectData | None = None) -> np.ndarray:
    """Value of the characteristic function at a scalar point (commuting case).

    For a commuting tuple the Fourier expansion collapses to a function on
    the unit ball of C^n; this evaluates it in closed form,

        basis* ( -row + Delta (I - sum z_i T_i*)^(-1) [z_1 I ... z_n I] Delta_* ) basis_*,

    requiring |z|_2 < 1.  For n = 1 this is the classical Moebius-type symbol.
    The truncated Fourier sum approaches this value with an error controlled
    by |z|^(d+1)/(1 - |z|).
    """
    mats = as_matrices(ts)
    z = np.asarray(z, dtype=complex).ravel()
    n, m = len(mats), mats[0].shape[0]
    if z.shape != (n,):
        raise ValueError(f"need a point of C^{n}, got shape {z.shape}")
    if np.linalg.norm(z) >= 1.0:
        raise ValueError(f"point must lie in the open unit ball, |z| = {np.linalg.norm(z):.4f}")
    if n > 1:
        residual = constraint_residual(mats, PolyIdealSpec(n=n, kind="commutative"))
        if residual > _RELATION_TOL:
            raise ValueError(
                f"tuple does not commute (residual {residual:.3e}); "
                "the scalar evaluation only makes sense for commuting tuples"
            )
    if defect is None:
        defect = defects(mats)
    row = np.hstack(mats)
    core = np.eye(m, dtype=complex)
    for i in range(n):
        core = core - z[i] * adj(mats[i])
    zrow = np.hstack([z[i] * np.eye(m, dtype=complex) for i in range(n)])
    inner = -row + defect.delta @ np.linalg.solve(core, zrow) @ defect.delta_star
    return adj(defect.basis) @ inner @ defect.basis_star


def coincidence_necessary_mismatch(t1: CharFn, t2: CharFn) -> float:
    """A cheap necessary condition for the two functions to coincide.

    Coinciding functions have Fourier blocks related by fixed unitaries on
    both sides, so each word's singular values match.  Returns the largest
    per-word discrepancy between sorted singular values (infinity when the
    shapes already rule coincidence out).  A large value certifies that the
    functions do not coincide; a small one proves nothing by itself.
    """
    if (t1.d_T, t1.d_star) != (t2.d_T, t2.d_star):
        return float("inf")
    if (t1.space.n, t1.space.d) != (t2.space.n, t2.space.d):
        return float("inf")
    s1 = np.linalg.svd(t1.fourier_blocks, compute_uv=False)
    s2 = np.linalg.svd(t2.fourier_blocks, compute_uv=False)
    return float(np.max(np.abs(s1 - s2), initial=0.0))
