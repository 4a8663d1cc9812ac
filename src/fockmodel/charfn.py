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
Delta_* basis_*, so Theta reads the kernel's blocks
(:attr:`poisson.KernelMatrix.blocks`) and is built from the kernel.  The
blocks also drive the cheap unitary-invariance checks.

At a point X = (X_1, ..., X_n) each R_alpha becomes X_(reversed alpha) =
X_{a_p} ... X_{a_1}, so the function lives on the variety V_(J~) of the
reversed relations, p~(X) = p(X^T)^T, where Popescu's resolvent formula
gives it in closed form (:func:`evaluate`).

Constrained version: for T satisfying a family of polynomial relations, the
relation span M (x) defect is invariant under the function (exactly, also at
truncation), so compressing rows and columns to N = M-perp loses nothing:
the factorization against the constrained Poisson kernel,

    I - Theta_J Theta_J* = K_J K_J*    (plus the exact truncation tail),

survives compression verbatim.  The constrained function is that
compression, and :func:`constrained_characteristic_function` is the one
builder.  It takes the constrained kernel and keeps it, so the function, its
subspace N, its defect data and its tail all come from one kernel, and
:func:`factorization_defect` needs nothing else.  On the zero family,
``ideal_subspace(PolyIdealSpec(n=n), space)``, N is the whole space and the
result is the free function Theta_T.  For a
graded family with relations the same matrix is also the closed form at the
compressed right shifts on N, a nilpotent point of V_(J~); the two routes
share no subspace code beyond the N basis, so their agreement guards the
whole constraint pipeline.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .contractions import (
    as_matrices,
    defects,
    phi_step,
    require_relations,
    row_norm,
    DefectData,
)
from .fock import TruncatedFockSpace, reversed_word_products
from .ideals import ConstrainedSubspace, PolyIdealSpec, constrained_creation_tuple
from .linalg import adj, hermitian_norm, opnorm, row_gram
from .poisson import KernelMatrix

_SERIES_AGREEMENT_TOL = 1e-10
_NILPOTENT_TOL = 1e-24  # for sum_{|w| = j} |X_w|_F^2 at a point of row norm 1


@dataclasses.dataclass
class CharFn:
    """A truncated characteristic function compressed to N on both sides.

    ``kernel`` is the constrained Poisson kernel the function was built
    from; the subspace, the defect data and the tail bound are its.
    """

    matrix: np.ndarray
    kernel: KernelMatrix
    coinvariance_leak: float | None = None
    series_agreement: float | None = None

    @property
    def sub(self) -> ConstrainedSubspace:
        return self.kernel.sub

    @property
    def defect(self) -> DefectData:
        return self.kernel.defect

    @property
    def tail_bound(self) -> float:
        return self.kernel.tail_bound

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
    def fourier_blocks(self) -> np.ndarray:
        """The vacuum-column Fourier block of every word, shape (dim, d_T, d_star).

        Row j is the d_T x d_star block of the j-th word of ``space``.  The
        vacuum column is contracted once and the result mapped back to words
        through the N basis; when N is the whole space the vacuum column is
        read off directly.
        """
        nb = self.sub.N_basis
        b = self.sub.dim_N
        blocks = self.matrix.reshape(b, self.d_T, b, self.d_star)
        if self.sub.is_whole_space:
            return blocks[:, :, 0, :].copy()
        vacuum = np.tensordot(blocks, nb[0, :].conj(), axes=(2, 0))
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


def fourier_sum(cf: CharFn, point) -> np.ndarray:
    """sum_alpha X_(reversed alpha) (x) theta_(alpha) over all truncated words.

    ``point`` holds n k x k matrices (1 x 1 for a scalar point).  At a point
    of V_(J~) whose products of d + 1 letters vanish this equals
    :func:`evaluate` exactly.
    """
    xs = _point_matrices(point, cf.space.n)
    k = xs[0].shape[0]
    out = np.einsum("wij,wab->iajb", reversed_word_products(cf.space, xs), cf.fourier_blocks)
    return out.reshape(k * cf.d_T, k * cf.d_star)


def evaluate(ts, point, spec: PolyIdealSpec) -> np.ndarray:
    """Theta_T(X) at a point X of V_(J~) (n k x k matrices), from one linear solve:

        -I (x) basis* row basis_* + (I (x) basis* Delta)
            (I - sum X_i (x) T_i*)^(-1) (sum X_i (x) sel_i Delta_* basis_*),

    point-major on both sides.  Refused with ValueError: a point of the wrong
    shape, a tuple violating ``spec``, a point whose transposes violate it,
    and a point with |sum X_i X_i*| >= 1 that is not jointly nilpotent.
    """
    mats = as_matrices(ts)
    xs = _point_matrices(point, len(mats))
    require_relations(mats, spec)
    require_relations([x.T for x in xs], spec, "transposed point")
    norm = row_norm(xs)
    if norm >= 1.0 and not _jointly_nilpotent([x / norm for x in xs]):
        raise ValueError(f"point has row norm {norm:.4g} >= 1 and is not jointly nilpotent")
    return _resolvent(mats, xs, defects(mats))


def _point_matrices(point, n: int) -> list[np.ndarray]:
    """The point as n finite k x k complex matrices, or ValueError."""
    xs = as_matrices(point)
    k = xs[0].shape[0] if xs and xs[0].ndim == 2 else 0
    if k == 0 or len(xs) != n or any(x.shape != (k, k) or not np.isfinite(x).all() for x in xs):
        raise ValueError(f"need a point of {n} finite k x k matrices, got {[x.shape for x in xs]}")
    return xs


def _jointly_nilpotent(xs: list[np.ndarray]) -> bool:
    """Whether trace Phi^j(I) = sum_{|w| = j} |X_w|_F^2 vanishes for some j <= k."""
    q = None
    for _ in range(xs[0].shape[0]):
        q = phi_step(xs, q)
        if np.trace(q).real <= _NILPOTENT_TOL:
            return True
    return False


def _resolvent(mats: list[np.ndarray], xs: list[np.ndarray], defect: DefectData) -> np.ndarray:
    """The closed form of :func:`evaluate` at the point ``xs``, unchecked."""
    n, m, k = len(mats), mats[0].shape[0], xs[0].shape[0]
    row_blocks = (defect.delta_star @ defect.basis_star).reshape(n, m, defect.d_star)
    system = np.eye(k * m, dtype=complex) - sum(np.kron(x, adj(t)) for x, t in zip(xs, mats))
    rhs = sum(np.kron(x, r) for x, r in zip(xs, row_blocks))
    solved = np.linalg.solve(system, rhs).reshape(k, m, k * defect.d_star)
    value = (adj(defect.basis) @ defect.delta @ solved).reshape(k * defect.d_T, k * defect.d_star)
    empty_word = adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    return value - np.kron(np.eye(k), empty_word)


def constrained_characteristic_function(kernel: KernelMatrix) -> CharFn:
    """Characteristic function of the kernel's tuple, compressed to the kernel's N.

    The function on the whole truncated space is built from its Fourier
    blocks, which are the kernel's uncompressed blocks times row blocks of
    Delta_* basis_* (:func:`_block_matrix`), and both sides are compressed
    by the N basis.  When N is the whole space (the zero family, which gives
    the free function) N is exactly the identity and no compression is
    formed.  Whenever the family has relations (dim M > 0) the part that
    maps M into N is recorded as ``coinvariance_leak``; for a graded family
    it must stay below max(1e-8, 100 * relation residual), and the closed
    form of :func:`evaluate` at the compressed right shifts on N must agree
    with the compression to 1e-10 (recorded as ``series_agreement``).  The
    kernel builder has already refused tuples violating the relations.
    """
    mats, sub, defect = kernel.mats, kernel.sub, kernel.defect
    full_matrix = _block_matrix(kernel)
    if sub.is_whole_space:
        matrix = full_matrix
    else:
        matrix = _compress_blocks(full_matrix, sub.N_basis, sub.N_basis, defect)

    series_agreement = leak = None
    if sub.dim_M:
        if sub.graded:
            raising = constrained_creation_tuple(sub, "right")
            series_agreement = opnorm(matrix - _resolvent(mats, raising, defect))
            if series_agreement > _SERIES_AGREEMENT_TOL:
                raise RuntimeError(
                    f"compression and series routes disagree by {series_agreement:.3e}; "
                    "the constrained-subspace machinery is inconsistent"
                )
        # Invariance of the relation span: rows in N, columns in M vanish.
        leak = opnorm(_compress_blocks(full_matrix, sub.N_basis, sub.M_basis, defect))
        if leak > max(1e-8, 100.0 * max(kernel.relation_residual, 1e-16)) and sub.graded:
            raise RuntimeError(
                f"characteristic function leaks {leak:.3e} from the relation span "
                "into the constrained subspace"
            )

    return CharFn(
        matrix=matrix, kernel=kernel, coinvariance_leak=leak, series_agreement=series_agreement
    )


def _block_matrix(kernel: KernelMatrix) -> np.ndarray:
    """sum_alpha R_alpha (x) theta_(alpha) on the whole truncated space.

    The vacuum-column blocks are the kernel's blocks times row blocks of
    Delta_* basis_*; block theta_(alpha) is then placed at row word
    gamma alpha, column word gamma.
    """
    mats, space, defect = kernel.mats, kernel.space, kernel.defect
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
        blocks[1:] = kernel.blocks[rest] @ row_blocks[first]

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


def _compress_blocks(
    theta: np.ndarray, left: np.ndarray, right: np.ndarray, defect: DefectData
) -> np.ndarray:
    """(left* (x) I_dT) theta (right (x) I_dstar) via reshapes."""
    dim, d_T, d_star = left.shape[0], defect.d_T, defect.d_star
    n_left, n_right = left.shape[1], right.shape[1]
    rows = adj(left) @ theta.reshape(dim, d_T * dim * d_star)          # (L, d_T * dim * d_star)
    out = right.T @ rows.reshape(n_left * d_T, dim, d_star)            # (L * d_T, R, d_star)
    return out.reshape(n_left * d_T, n_right * d_star)


def factorization_defect(theta: CharFn) -> float:
    """| I - Theta Theta* - K K* |, the joint defect of the factorization.

    K is the kernel ``theta`` was built from.  For a pure tuple this is
    rounding-level at truncation; in general it is bounded by the recorded
    truncation tails.
    """
    k = theta.kernel.matrix
    gap = defect_star_lower(theta)
    gap -= k @ adj(k)  # only the lower triangle is read
    return hermitian_norm(gap)


def defect_star_lower(theta: CharFn) -> np.ndarray:
    """I - Theta Theta*, p x p, with only the lower triangle that ``eigvalsh`` reads.

    Theta is conjugated a block of rows at a time (:func:`linalg.row_gram`),
    never whole.  Every caller forms it anew rather than keeping it on
    ``theta``, which would hold one more p x p array for the life of the
    function.
    """
    out = row_gram(theta.matrix, lower=True)
    np.negative(out, out=out)
    out.flat[:: out.shape[0] + 1] += 1.0
    return out


@dataclasses.dataclass
class DeltaClassification:
    """Inner/outer verdicts of the function, read off its squared singular values.

    ``sigma_squared`` holds the min(p, q) values sigma^2 = 1 - lambda,
    descending, from the eigenvalues lambda of the p x p matrix
    I - Theta Theta*, clipped at 0.
    """

    inner: bool
    outer: bool
    partial_isometry_residual: float
    inner_threshold: float
    outer_threshold: float
    sigma_squared: np.ndarray
    rank_deficiency: int
    norm: float


def delta_and_classify(theta: CharFn) -> DeltaClassification:
    """Decide whether Theta is inner / outer, from its squared singular values alone.

    Delta = (I - Theta*Theta)^(1/2) has the eigenvalues sqrt(1 - sigma^2),
    so the squared singular values carry every verdict.  They come from the
    p side (p <= q for every characteristic function): the eigenvalues
    lambda of I - Theta Theta* are 1 - sigma^2, so one ``eigvalsh`` of that
    p x p matrix (:func:`defect_star_lower`) is the only decomposition.
    Only sigma^2 is kept: its square root would carry the rounding of lambda
    (about 1e-16) up to about 1e-8 at a zero singular value.

    Inner means Theta is a partial isometry; at truncation the residual
    |(Theta*Theta)^2 - Theta*Theta| = max |sigma^4 - sigma^2| of an inner
    function equals exactly the tail the degree cap forgets, so the threshold
    adds the function's recorded tail_bound.  Outer means dense range,
    decided by codomain-rank fullness with an absolute cutoff on squared
    singular values; the deficiency it counts is dim ker(Theta*), the same
    number the kernel-side route sees as dim ker(I - K*K).  The norm is the
    largest singular value.
    """
    p, q = theta.matrix.shape
    lam = np.linalg.eigvalsh(defect_star_lower(theta))
    sq = np.clip(1.0 - lam[: min(p, q)], 0.0, None)
    residual = float(np.max(np.abs(sq * sq - sq))) if sq.size else 0.0
    inner_threshold = 1e-8 + theta.tail_bound
    outer_threshold = 1e-8
    full_rank_count = int(np.count_nonzero(sq > outer_threshold))
    # Dense range fails exactly on ker(Theta*), so the deficiency is counted
    # against the codomain; this is the same number the kernel route sees as
    # dim ker(I - K*K).
    deficiency = p - full_rank_count
    return DeltaClassification(
        inner=bool(residual < inner_threshold),
        outer=bool(deficiency == 0),
        partial_isometry_residual=residual,
        inner_threshold=float(inner_threshold),
        outer_threshold=float(outer_threshold),
        sigma_squared=sq,
        rank_deficiency=int(deficiency),
        norm=float(np.sqrt(sq[0])) if sq.size else 0.0,
    )


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
