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
Products by an operator on the words or on a defect space are taken by the
helpers of :mod:`linalg` (:func:`linalg.kron_left` and its siblings), the
one place that layout is applied.

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
:func:`factorization_defect` needs nothing else.  Where the factorization
holds to rounding, the p x p spectrum of I - Theta Theta* is read off the
m x m Gram K*K (:func:`defect_star_spectrum`).  On the zero family,
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
from .fock import TruncatedFockSpace, left_target_slice, reversed_word_products
from .ideals import ConstrainedSubspace, PolyIdealSpec, constrained_creation_tuple
from .linalg import (
    PSD_RANK_TOL,
    adj,
    gap_frobenius,
    gram,
    hermitian_norm,
    kron_left,
    kron_right,
    opnorm,
    row_gram,
)
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
        vacuum column, Theta (N* e_0 (x) I), is formed once and mapped back to
        words by N (x) I; when N is the whole space it is read off directly.
        """
        nb, dim = self.sub.N_basis, self.space.dim
        if self.sub.is_whole_space:
            return self.matrix.reshape(dim, self.d_T, dim, self.d_star)[:, :, 0, :].copy()
        vacuum = kron_right(self.matrix, adj(nb[:1]), self.d_star)
        return kron_left(nb, vacuum, self.d_T).reshape(dim, self.d_T, self.d_star)


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
    Delta_* basis_* (:func:`_block_matrix`).  When N is the whole space (the
    zero family, which gives the free function) N is exactly the identity
    and no compression is formed.  Otherwise (dim M > 0) the rows
    (N* (x) I) Theta are formed once, the whole-space function is released,
    and the rows give the compression (their product by N (x) I) and the
    part that maps M into N (by M (x) I), recorded as
    ``coinvariance_leak``.  For a graded family the closed form of
    :func:`evaluate` at the compressed right shifts on N must agree with the
    compression to 1e-10 (recorded as ``series_agreement``), and then the
    leak must stay below max(1e-8, 100 * relation residual).  The kernel
    builder has already refused tuples violating the relations.
    """
    mats, sub, defect = kernel.mats, kernel.sub, kernel.defect
    matrix = _block_matrix(kernel)
    series_agreement = leak = None
    if not sub.is_whole_space:
        rows = kron_left(adj(sub.N_basis), matrix, defect.d_T)
        matrix = kron_right(rows, sub.N_basis, defect.d_star)  # drops the whole-space Theta
        if sub.graded:
            raising = constrained_creation_tuple(sub, "right")
            series_agreement = opnorm(matrix - _resolvent(mats, raising, defect))
            if series_agreement > _SERIES_AGREEMENT_TOL:
                raise RuntimeError(
                    f"compression and series routes disagree by {series_agreement:.3e}; "
                    "the constrained-subspace machinery is inconsistent"
                )
        # Invariance of the relation span: rows in N, columns in M vanish.
        leak = opnorm(kron_right(rows, sub.M_basis, defect.d_star))
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

    theta_((a) + beta) is the kernel block of beta times the a-th row block
    of Delta_* basis_*, written into the slice of the words (a) + beta
    (:func:`fock.left_target_slice`), as in the kernel's own recurrence.
    theta_(alpha) sits at row word gamma alpha, column word gamma: for each
    degree pair (j, k) = (|gamma|, |alpha|) the rows of degree j + k, viewed
    as (n^j, n^k), are gamma-major, so each pair is one strided assignment.
    """
    mats, space, defect = kernel.mats, kernel.space, kernel.defect
    n, m, d = len(mats), mats[0].shape[0], space.d
    d_T, d_star = defect.d_T, defect.d_star
    row_blocks = (defect.delta_star @ defect.basis_star).reshape(n, m, d_star)
    blocks = np.empty((space.dim, d_T, d_star), dtype=complex)
    blocks[0] = -adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    for k in range(d):
        parents = kernel.blocks[space.degree_slice(k)]
        for a in range(1, n + 1):
            np.matmul(parents, row_blocks[a - 1], out=blocks[left_target_slice(space, a, k)])

    theta = np.zeros((space.dim, d_T, space.dim, d_star), dtype=complex)
    for j in range(d + 1):
        gammas = np.arange(n**j)
        cols = space.degree_slice(j)
        for k in range(d + 1 - j):
            rows = theta[space.degree_slice(j + k), :, cols].reshape(n**j, n**k, d_T, n**j, d_star)
            rows[gammas, :, :, gammas] = blocks[space.degree_slice(k)]
    return theta.reshape(space.dim * d_T, space.dim * d_star)


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


# |G|_F up to which the spectrum of I - Theta Theta* is read off K*K.  By
# Weyl's inequality every eigenvalue then lies within 1e-12 of the dense one,
# so a rank decision at PSD_RANK_TOL = 1e-10 the two routes could disagree on
# needs an eigenvalue in [1e-10 - 1e-12, 1e-10 + 1e-12], deep inside the
# [1e-12, 1e-8] band where psd_spectrum warns on either route.  Rounding
# leaves |G|_F below 1e-13 on the zero and graded families up to p = 1533.
_GRAM_ROUTE_TOL = 1e-12


@dataclasses.dataclass
class DefectStarSpectrum:
    """The spectrum of the p x p matrix I - Theta Theta*, from K*K where that is certified.

    ``gap`` is |G|_F for G = I - Theta Theta* - K K*, K the Poisson kernel
    the function was built from (p x m).  On the Gram route (``gap`` at most
    1e-12) ``kernel_eigh`` holds K*K = V diag(L) V*, and the spectrum of
    K K* is L padded with p - min(p, m) zeros; otherwise ``lower`` holds the
    lower triangle of I - Theta Theta* for the dense route.
    """

    gap: float
    kernel: np.ndarray
    kernel_eigh: tuple[np.ndarray, np.ndarray] | None
    lower: np.ndarray | None

    def eigvals(self) -> np.ndarray:
        """The p eigenvalues, ascending: one ``eigvalsh`` on the dense route."""
        if self.lower is not None:
            return np.linalg.eigvalsh(self.lower)
        ell = self.kernel_eigh[0]
        p = self.kernel.shape[0]
        top = ell[ell.size - min(p, ell.size) :]  # K*K has m - p more zeros when p < m
        return np.sort(np.concatenate([np.zeros(p - top.size), top]))

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The p eigenvalues, ascending, and the p x h eigenvectors of those above 1e-10.

        On the Gram route they are u_k = K v_k / sqrt(l_k); on the dense
        route they come from one ``eigh``.  Either way in ascending order.
        """
        if self.lower is not None:
            lam, u = np.linalg.eigh(self.lower, UPLO="L")
            return lam, u[:, lam > PSD_RANK_TOL]
        ell, v = self.kernel_eigh
        keep = ell > PSD_RANK_TOL
        return self.eigvals(), (self.kernel @ v[:, keep]) / np.sqrt(ell[keep])


def defect_star_spectrum(theta: CharFn) -> DefectStarSpectrum:
    """The spectrum of I - Theta Theta*, from the m x m Gram K*K when the factorization holds.

    The gap G = I - Theta Theta* - K K* is formed once, a block of rows at a
    time, and only its Frobenius norm is kept (:func:`linalg.gap_frobenius`).
    Since |G|_2 <= |G|_F, Weyl's inequality puts every eigenvalue of
    I - Theta Theta* within |G|_F of the matching one of K K*.  When that
    certified bound is at most 1e-12 the spectrum comes from one ``eigh`` of
    K*K = I - Phi^(d+1)(I), and nothing p x p is decomposed.  Otherwise --
    relation families that are not graded, which break the factorization
    at the top degree, and bare matrices carrying no kernel of their own --
    the dense route decomposes I - Theta Theta* as before, from the same
    unchanged array.
    """
    k = theta.kernel.matrix
    lower = defect_star_lower(theta)
    gap = gap_frobenius(lower, k)
    if gap > _GRAM_ROUTE_TOL:
        return DefectStarSpectrum(gap=gap, kernel=k, kernel_eigh=None, lower=lower)
    return DefectStarSpectrum(gap=gap, kernel=k, kernel_eigh=np.linalg.eigh(gram(k)), lower=None)


@dataclasses.dataclass
class DeltaClassification:
    """Inner/outer verdicts of the function, read off its squared singular values.

    ``sigma_squared`` holds the min(p, q) values sigma^2 = 1 - lambda,
    descending, from the eigenvalues lambda of the p x p matrix
    I - Theta Theta* (:func:`defect_star_spectrum`), clipped at 0.
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
    lambda of I - Theta Theta* are 1 - sigma^2.  Where the factorization
    I - Theta Theta* = K K* holds to 1e-12 in Frobenius norm, lambda is the
    spectrum of the m x m Gram K*K padded with zeros, each value within that
    certified bound of the dense one (Weyl); otherwise one ``eigvalsh`` of
    the p x p matrix gives it (:func:`defect_star_spectrum`).
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
    lam = defect_star_spectrum(theta).eigvals()
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
