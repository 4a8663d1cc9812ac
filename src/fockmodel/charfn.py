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
(:attr:`poisson.KernelMatrix.blocks`) and is built from the kernel.  Neither
defect root is formed: the defects are held as eigen-data
(:class:`contractions.DefectData`), so basis* Delta is
sqrt(eigvals)[:, None] * basis* and Delta_* basis_* is
basis_star * sqrt(eigvals_star).  The blocks also drive the cheap
unitary-invariance checks.

At a point X = (X_1, ..., X_n) each R_alpha becomes X_(reversed alpha) =
X_{a_p} ... X_{a_1}, so the function lives on the variety V_(J~) of the
reversed relations, p~(X) = p(X^T)^T, where Popescu's resolvent formula
gives it in closed form (:func:`evaluate`).

Constrained version: for T satisfying a family of polynomial relations, the
relation span M comes from a two-sided ideal, so it is invariant under every
right creation R_i and N = M-perp is co-invariant (Popescu, "Operator theory
on noncommutative varieties", 2006).  The compression of Theta_T to
N (x) defect is then multi-analytic,

    Theta_N = sum_alpha (N* R_alpha N) (x) theta_(alpha),

and the factorization against the constrained Poisson kernel,

    I - Theta_J Theta_J* = K_J K_J*    (plus the exact truncation tail),

survives compression verbatim.  :func:`constrained_characteristic_function`
is the one builder; it takes the constrained kernel and keeps it, so the
function, N, the defect data, the tail and the classification all come from
one kernel.  A function holds the whole-space Fourier blocks and nothing
else of Theta (``CharFn.blocks``); Theta_N itself, the matrix, is
contracted from them on first read, two matmuls per degree pair
(:func:`_theta_n`), and no command reads it on the zero family.  With
relations no array is indexed by the whole word space on both sides, and
coinvariance is measured on N itself:
exact at truncation for graded families, lost at the top degree otherwise,
where the truncated R_i cuts the top part off a relation.  For a graded
family with relations Theta_N is also the closed form at the compressed
right shifts B_i = N* R_i N, a nilpotent point of V_(J~); the two routes
share no subspace code beyond N's basis, so their agreement guards the
whole constraint pipeline.  Each B_i raises the N-degree by exactly one, so
the resolvent there is a finite sum, taken degree by degree by forward
substitution (:func:`_theta_at_raising`): no Kronecker matrix is formed and
nothing is decomposed.  The dense solve of :func:`evaluate`
(:func:`_resolvent`) serves the general points, which are not nilpotent.
Every product by N is a method of :class:`ideals.ConstrainedSubspace`:
``degree_rows`` for Theta_N, ``right_shifts`` for the B_i and the
coinvariance leak, ``lift`` and ``compress`` for Theta* u and the Fourier
blocks; this module never reads N's basis.

The spectrum of I - Theta Theta* is one record per function,
:attr:`CharFn.spectrum` (:class:`DefectStarSpectrum`): its certificate
|I - Theta Theta* - K K*|_F, which J-fa-F reports, the p eigenvalues and the
eigenvectors of those above the rank cut, all from one decomposition taken
when the record is built (:func:`defect_star_spectrum`), and the bound on
|Phihat* Phihat - I|_F of the model column Phihat = [Theta ; Delta] that
isometry-F reports.  Where the factorization holds to rounding that is the
m x m Gram K*K, nothing p x p is decomposed, and the bound is the
certificate plus the norm of K*K's eigenvalues below the cut.  The verdicts
(:func:`delta_and_classify`), the model and isometry-F
(:attr:`CharFn.isometry_residual`) read the record.

Everything that depends on how Theta is held is computed in this module;
the model reads Theta only through the record, the kernel,
:func:`theta_star` and :func:`coincidence_residual`.  Gram by the Stein
recursion: since Theta is multi-analytic, its Gram A = Theta Theta* satisfies
A = F F* + sum_a (L_a (x) I) A (L_a (x) I)*, F the vacuum column and L_a
the left creation, so the blocks fix A too
(:func:`stein_gram`, O(p^2 d_star) against O(p^2 q) for a product of
Theta).  The identity holds where N is the whole space, and there
:func:`theta_gram` takes the recursion; relation families take a row Gram
of the matrix.  A is formed once per function, for the gate of the record.
The coincidence residual of two functions (:func:`coincidence_residual`) is
itself a function with the Fourier blocks
delta_(alpha) = tau theta_(alpha) - theta'_(alpha) tau_star, formed once,
and com is its Frobenius norm, never below the spectral norm: on the whole
space the block of alpha repeats at dim_(<= d - |alpha|) places, so
|D|_F^2 = sum_alpha dim_(<= d - |alpha|) |delta_(alpha)|_F^2, with no
p x p or p x q array.  Theta* u is one matmul per degree pair on the
blocks, between products by N (:func:`theta_star`), for every family.
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
    TriState,
)
from .fock import TruncatedFockSpace, reversed_word_products
from .ideals import ConstrainedSubspace, PolyIdealSpec
from .linalg import (
    PSD_RANK_TOL,
    adj,
    gap_frobenius,
    kron_inner,
    kron_left,
    kron_right,
    row_gram,
)
from .poisson import KernelMatrix

_COINVARIANCE_TOL = 1e-8  # max_i |R_i* N - N B_i*| of a graded family
_SERIES_AGREEMENT_TOL = 1e-10  # |Theta_N - Theta_T(B)|_F between the compression and the series
_NILPOTENT_TOL = 1e-24  # for sum_{|w| = j} |X_w|_F^2 at a point of row norm 1


@dataclasses.dataclass
class CharFn:
    """A truncated characteristic function compressed to N on both sides, held as its blocks.

    ``blocks`` holds the whole-space Fourier block of every word, shape
    (dim, d_T, d_star) (:func:`_theta_blocks`); they fix the function.
    ``kernel`` is the constrained Poisson kernel the function was built
    from; the subspace, the defect data and the tail bound are its.  The
    spectrum of I - Theta Theta* (:attr:`spectrum`), which carries the
    model's isometry bound (:attr:`isometry_residual`), is built on first
    read and kept.  :attr:`checks` pairs each residual measured on the
    function with its tolerance.
    """

    blocks: np.ndarray
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
        return self.blocks.shape[1]

    @property
    def d_star(self) -> int:
        return self.blocks.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        """(p, q) = (dim_N d_T, dim_N d_star), the shape of ``matrix``."""
        return self.sub.dim_N * self.d_T, self.sub.dim_N * self.d_star

    @cached_property
    def matrix(self) -> np.ndarray:
        """Theta_N, p x q, contracted from the blocks on first read (:func:`_theta_n`)."""
        return _theta_n(self.sub, self.blocks)

    @cached_property
    def spectrum(self) -> DefectStarSpectrum:
        """The eigen-data of I - Theta Theta* with its certificate (:func:`defect_star_spectrum`)."""
        return defect_star_spectrum(self)

    @property
    def isometry_residual(self) -> float:
        """isometry-F: the record's bound on |Phihat* Phihat - I|_F (``spectrum.isometry_bound``)."""
        return self.spectrum.isometry_bound

    @property
    def checks(self) -> list[tuple[str, float, float]]:
        """(name, residual, tolerance) of each identity measured on the function, in report order.

        Purity is the verdict of the kernel's classification.  J-fa-F is the
        factorization certificate |I - Theta Theta* - K K*|_F of
        :attr:`spectrum`, then comes the kernel's K*K
        (:attr:`poisson.KernelMatrix.gram_check`), then series-agree and
        coinvariance where the builder measured them (graded families with
        relations).
        """
        sub, pure = self.sub, self.kernel.classification.pure
        # The factorization is exact at truncation only for certified-pure tuples
        # under a graded (or empty) relation family; otherwise the tolerance adds
        # ten tails.  A family that is not graded leaves N short of co-invariance
        # at the top degree (coinvariance_leak 0.74 on 0.5 + x1 + 2i x2 x1 at
        # (2, 5)), so J-fa-F there is O(1), not tail-sized, and fails.
        exact_case = pure is TriState.YES and (sub.graded or sub.dim_M == 0)
        jfa_tol = 1e-9 if exact_case else 1e-9 + 10 * self.tail_bound
        checks = [("J-fa-F", self.spectrum.gap, jfa_tol), self.kernel.gram_check]
        if self.series_agreement is not None:
            checks.append(("series-agree", self.series_agreement, _SERIES_AGREEMENT_TOL))
        if self.coinvariance_leak is not None and sub.graded:
            checks.append(("coinvariance", self.coinvariance_leak, _COINVARIANCE_TOL))
        return checks

    @cached_property
    def fourier_blocks(self) -> np.ndarray:
        """The vacuum-column Fourier block of every word, shape (dim, d_T, d_star).

        Row j is the d_T x d_star block of the j-th word of ``space``.  When
        N is the whole space they are the stored ``blocks``; otherwise the
        vacuum column, Theta_N (N* e_0 (x) I), is formed once, N* e_0 by
        ``compress``, and mapped back to words by N (x) I (``lift``).
        """
        if self.sub.is_whole_space:
            return self.blocks
        vacuum_n = self.sub.compress(np.eye(self.space.dim, 1, dtype=complex), 1)  # N* e_0
        vacuum = kron_right(self.matrix, vacuum_n, self.d_star)
        return self.sub.lift(vacuum, self.d_T).reshape(self.space.dim, self.d_T, self.d_star)


def fourier_block(cf: CharFn, word) -> np.ndarray:
    """The d_T x d_star coefficient block of the given word.

    This is the block of the compressed expansion's vacuum column,
    Theta_N (N* e_0 (x) I), mapped back to words by N (x) I.  When the
    vacuum lies in N the blocks are the free function's blocks projected
    onto N, (N N* (x) I) applied to them, which is not the free blocks
    themselves unless N is the whole space (they are near-zero for every
    word when the tuple is the constrained shift itself).  When it does not,
    N* e_0 is the projection of the vacuum onto N, of norm below 1, and the
    blocks are that column mapped back, generally nonzero and not the
    projected free blocks.  A coincidence of Theta_N moves this column by
    fixed unitaries, so the per-word screen
    (:func:`coincidence_necessary_mismatch`) stays a necessary condition
    either way.
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
    """The closed form of :func:`evaluate` at the point ``xs``, unchecked, by one dense solve."""
    n, m, k = len(mats), mats[0].shape[0], xs[0].shape[0]
    row_blocks = _star_row_blocks(defect, n, m)
    system = np.eye(k * m, dtype=complex) - sum(np.kron(x, adj(t)) for x, t in zip(xs, mats))
    rhs = sum(np.kron(x, r) for x, r in zip(xs, row_blocks))
    solved = np.linalg.solve(system, rhs).reshape(k, m, k * defect.d_star)
    lead = np.sqrt(defect.eigvals)[:, None] * adj(defect.basis)  # basis* Delta
    value = (lead @ solved).reshape(k * defect.d_T, k * defect.d_star)
    empty_word = adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    return value - np.kron(np.eye(k), empty_word)


def _star_row_blocks(defect: DefectData, n: int, m: int) -> np.ndarray:
    """The n row blocks of Delta_* basis_* = basis_star * sqrt(eigvals_star), (n, m, d_star)."""
    return (defect.basis_star * np.sqrt(defect.eigvals_star)).reshape(n, m, defect.d_star)


def _theta_at_raising(theta: CharFn, raising: list[np.ndarray]) -> np.ndarray:
    """The closed form of :func:`evaluate` at the compressed right shifts B_i, degree by degree.

    For a graded N each B_i = N* R_i N maps N's columns of degree r - 1 into
    those of degree r and nowhere else, so I - sum_i B_i (x) T_i* is block
    unit lower triangular by N-degree, and the solution X of

        (I - sum_i B_i (x) T_i*) X = sum_i B_i (x) r_i,

    r_i the i-th row block of Delta_* basis_*, follows by forward
    substitution.  Nothing maps into degree 0, so X_0 = 0, and for r = 1..d

        X_r = sum_i B_i[r, r-1] (x) r_i  +  sum_i (B_i[r, r-1] (x) T_i*) X_(r-1),

    the first term in the column block of degree r - 1 and the second in the
    columns of degree < r - 1, where X_(r-1) lives.  Each step is one product
    by the stacked T_i* and one by the side-by-side blocks B_i[r, r-1]
    (:func:`linalg.kron_inner`, :func:`linalg.kron_left`); empty degree
    blocks give empty products.  Then

        Theta_T(B) = (I (x) basis* Delta) X + I (x) theta_(),

    with no decomposition.  Only the (r, r-1) blocks of each B_i are read:
    were B_i anything else, the value would differ from Theta_N and the
    builder would refuse.  Returns (dim_N d_T) x (dim_N d_star), point-major
    as :func:`_resolvent`, its oracle in the tests.
    """
    sub, mats, defect = theta.sub, theta.kernel.mats, theta.defect
    n, m, d_star, dim_n = len(mats), mats[0].shape[0], theta.d_star, sub.dim_N
    row_blocks = _star_row_blocks(defect, n, m).reshape(n, m * d_star)
    t_adj = adj(np.hstack(mats))  # the T_i* stacked, (n m) x m
    x = np.zeros((dim_n, m, dim_n, d_star), dtype=complex)
    for r in range(1, sub.space.d + 1):
        # N's columns of degree < r - 1 end at below, of degree r - 1 at prev, of degree r at top
        below, prev, top = (sub.n_cols_up_to(r - k) for k in (2, 1, 0))
        at_r, at_prev = slice(prev, top), slice(below, prev)
        step = np.stack([b[at_r, at_prev] for b in raising], axis=-1)  # (a, b, i) = B_i[a, b]
        size, size_prev = top - prev, prev - below
        source = (step.reshape(-1, n) @ row_blocks).reshape(size, size_prev, m, d_star)
        x[at_r, :, at_prev] = source.transpose(0, 2, 1, 3)
        earlier = x[at_prev, :, :below].reshape(size_prev * m, below * d_star)
        moved = kron_inner(t_adj, earlier, size_prev)
        x[at_r, :, :below] = kron_left(step.reshape(size, size_prev * n), moved, m).reshape(
            size, m, below, d_star
        )
    lead = np.sqrt(defect.eigvals)[:, None] * adj(defect.basis)  # basis* Delta
    value = kron_inner(lead, x.reshape(dim_n * m, dim_n * d_star), dim_n)
    diagonal = np.arange(dim_n)
    value.reshape(dim_n, theta.d_T, dim_n, d_star)[diagonal, :, diagonal] += theta.blocks[0]
    return value


def constrained_characteristic_function(kernel: KernelMatrix) -> CharFn:
    """Characteristic function of the kernel's tuple, compressed to the kernel's N.

    The function is held as the whole-space Fourier blocks
    (:func:`_theta_blocks`); Theta_N = sum_alpha (N* R_alpha N) (x)
    theta_(alpha) is contracted from them only where it is read
    (:attr:`CharFn.matrix`).  On the zero family it is the free function.
    With relations (dim M > 0) that compression is multi-analytic because N
    is co-invariant under the right shifts, and that is measured on N
    itself,

        max_i |R_i* N - N B_i*|,   B_i = N* R_i N,

    recorded as ``coinvariance_leak``; both come from
    :meth:`ideals.ConstrainedSubspace.right_shifts`.  For a graded family
    the leak must stay below 1e-8, and then the closed form of
    :func:`evaluate` at the compressed right shifts B_i must agree with
    Theta_N to 1e-10 in Frobenius norm, which is never below the spectral
    norm (recorded as ``series_agreement``).  The closed form is taken
    degree by degree: B_i raises the N-degree by one, so
    (I - sum_i B_i (x) T_i*)^(-1) is a finite sum, formed by forward
    substitution with no solve (:func:`_theta_at_raising`).  That route
    reads only the blocks of B_i from degree r - 1 to degree r, so a B_i
    with any other entry would show as disagreement and be refused.  The
    kernel builder has already refused tuples violating the relations.
    """
    sub = kernel.sub
    theta = CharFn(blocks=_theta_blocks(kernel), kernel=kernel)
    if not sub.is_whole_space:
        raising, theta.coinvariance_leak = sub.right_shifts()
        if sub.graded:
            if theta.coinvariance_leak > _COINVARIANCE_TOL:
                raise RuntimeError(
                    f"a right shift leaks {theta.coinvariance_leak:.3e} from the relation span "
                    "into the constrained subspace"
                )
            agreement = float(np.linalg.norm(theta.matrix - _theta_at_raising(theta, raising)))
            theta.series_agreement = agreement
            if agreement > _SERIES_AGREEMENT_TOL:
                raise RuntimeError(
                    f"compression and series routes disagree by {agreement:.3e}; "
                    "the constrained-subspace machinery is inconsistent"
                )
    return theta


def _theta_blocks(kernel: KernelMatrix) -> np.ndarray:
    """The Fourier block theta_(alpha) of every word alpha on the whole space, (dim, d_T, d_star).

    theta_((a) + beta) is the kernel block of beta times the a-th row block
    of Delta_* basis_*, written into the row a of the grid of the words
    (a) + beta (:meth:`fock.TruncatedFockSpace.grid`): one product per
    degree, as in the kernel's own recurrence.
    """
    mats, space, defect = kernel.mats, kernel.space, kernel.defect
    n, m, d_T, d_star = len(mats), mats[0].shape[0], defect.d_T, defect.d_star
    row_blocks = _star_row_blocks(defect, n, m)
    blocks = np.empty((space.dim, d_T, d_star), dtype=complex)
    blocks[0] = -adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    for k in range(space.d):
        parents = kernel.blocks[space.degree_slice(k)].reshape(n**k * d_T, m)
        np.matmul(parents, row_blocks, out=space.grid(blocks, 1, k).reshape(n, n**k * d_T, d_star))
    return blocks


def _theta_n(sub: ConstrainedSubspace, blocks: np.ndarray) -> np.ndarray:
    """Theta_N = sum_alpha (N* R_alpha N) (x) theta_(alpha), (dim_N d_T) x (dim_N d_star).

    For each degree pair (j, k) = (|gamma|, |alpha|) the conjugated rows of N
    at degree j + k, viewed as (n^j, n^k, columns), are contracted over gamma
    with the rows of N at degree j, then over alpha with the degree-k
    ``blocks`` of :func:`_theta_blocks`.  The rows come from
    :meth:`ideals.ConstrainedSubspace.degree_rows`, on the columns that can
    be nonzero at their degree: for a graded N, and N = I, only its columns
    of degree j + k and j take part.
    """
    space = sub.space
    n, d, (_, d_T, d_star) = space.n, space.d, blocks.shape
    cols, inner = zip(*(sub.degree_rows(r) for r in range(d + 1)))
    outer = [rows.conj() for rows in inner]
    theta = np.zeros((sub.dim_N, d_T, sub.dim_N, d_star), dtype=complex)
    for j in range(d + 1):
        for r in range(j, d + 1):
            k, alphas, target = r - j, blocks[space.degree_slice(r - j)], theta[cols[r], :, cols[j]]
            wide, narrow = outer[r].shape[1], inner[j].shape[1]
            pairs = (inner[j].T @ outer[r].reshape(n**j, n**k * wide)).reshape(narrow, n**k, wide)
            product = pairs.transpose(0, 2, 1) @ alphas.reshape(n**k, d_T * d_star)
            target += product.reshape(narrow, wide, d_T, d_star).transpose(1, 2, 0, 3)
    return theta.reshape(sub.dim_N * d_T, sub.dim_N * d_star)


def theta_star(theta: CharFn, u: np.ndarray) -> np.ndarray:
    """Theta_N* u for the p x h ``u``, q x h, as (N* (x) I) Theta* ((N (x) I) u).

    The whole-space Theta has the block theta_(alpha) at (gamma alpha, gamma),
    so (Theta* v)_gamma = sum_alpha theta_(alpha)* v_(gamma alpha).  For a
    degree pair (j, k) = (|gamma|, |alpha|) the rows of v at degree j + k,
    viewed as their grid (:meth:`fock.TruncatedFockSpace.grid`),
    (n^j, n^k d_T, h), meet the stacked degree-k blocks in one matmul.  The
    products by N are :meth:`ideals.ConstrainedSubspace.lift` and
    ``compress``, no-ops on the whole space.
    """
    sub, space, (dim, d_T, d_star), h = theta.sub, theta.space, theta.blocks.shape, u.shape[1]
    v = sub.lift(u, d_T).reshape(dim, d_T, h)
    out = np.zeros((dim, d_star, h), dtype=complex)
    for j in range(space.d + 1):
        for k in range(space.d - j + 1):
            width = space.n**k * d_T
            alphas = adj(theta.blocks[space.degree_slice(k)].reshape(width, d_star))
            out[space.degree_slice(j)] += alphas @ space.grid(v, j, k).reshape(space.n**j, width, h)
    return sub.compress(out.reshape(dim * d_star, h), d_star)


def stein_gram(space: TruncatedFockSpace, blocks: np.ndarray) -> np.ndarray:
    """G G* of the multi-analytic G on the whole ``space`` with the vacuum-column ``blocks``.

    ``blocks`` has shape (dim, r, c); G's block at (gamma alpha, gamma) is
    the block of alpha, so the (w, v) block of G G* sums
    g_(w / gamma) g_(v / gamma)* over the common prefixes gamma of w and v.
    That is the Stein identity

        G G* = F F* + sum_a (L_a (x) I) G G* (L_a (x) I)*,

    F the vacuum column (the stacked blocks) and L_a the left creation.
    Starting from F F*, a degree pair (j, k) with max(j, k) = r - 1 is
    complete after step r - 1, and step r adds it into the rows (a) + w and
    the columns (a) + v of the degree pair (j + 1, k + 1): the letter
    diagonal of the two grids (:meth:`fock.TruncatedFockSpace.grid`), one
    writable view for all letters.  That is O(p^2 c) for F F* plus copies,
    where a product of G costs O(p^2 q).  Returns the whole (dim r) x (dim r)
    matrix.
    """
    dim, r, c = blocks.shape
    vacuum = blocks.reshape(dim * r, c)
    out = vacuum @ adj(vacuum)
    square = out.reshape(dim, r, dim, r)
    for top in range(space.d):  # the source pairs (j, k) with max(j, k) = top
        for j, k in [(j, top) for j in range(top + 1)] + [(top, k) for k in range(top)]:
            rows = space.grid(square, 1, j).transpose(3, 4, 0, 1, 2)  # the rows (a) + w, columns first
            # the columns (b) + v of those rows, (b, v, ., a, w, .), at b = a
            target = np.einsum("avjawi->awivj", space.grid(rows, 1, k))
            target += square[space.degree_slice(j), :, space.degree_slice(k)]
    return out


def theta_gram(theta: CharFn) -> np.ndarray:
    """Theta Theta*, p x p, the whole Hermitian matrix.

    When N is the whole space this is :func:`stein_gram` of the blocks, and
    no product of Theta is taken; for a relation family Theta_N is
    conjugated a block of rows at a time (:func:`linalg.row_gram`).
    """
    if theta.sub.is_whole_space:
        return stein_gram(theta.space, theta.blocks)
    return row_gram(theta.matrix)


# |G|_F up to which the spectrum of I - Theta Theta* is read off K*K.  By
# Weyl's inequality every eigenvalue then lies within 1e-12 of the dense one,
# so a rank decision at PSD_RANK_TOL = 1e-10 the two routes could disagree on
# needs an eigenvalue in [1e-10 - 1e-12, 1e-10 + 1e-12], deep inside the
# [1e-12, 1e-8] band where psd_spectrum warns on either route.  Rounding
# leaves |G|_F below 1e-13 on the zero and graded families up to p = 1533.
_GRAM_ROUTE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class DefectStarSpectrum:
    """The eigen-data of the p x p matrix I - Theta Theta*, with its certificates.

    ``gap`` is |G|_F for G = I - Theta Theta* - K K*, K the Poisson kernel
    the function was built from (p x m); it is the value J-fa-F reports.
    For a pure tuple under a graded relation family it is rounding-level at
    truncation, and as a Frobenius norm it is never smaller than the
    spectral norm.  ``eigvals`` holds the p eigenvalues, ascending, and
    ``eigvecs`` the p x h orthonormal eigenvectors of the h of them above the
    rank cut 1e-10, in the same order: the last h of ``eigvals``
    (:attr:`kept`).  ``isometry_bound`` is the value isometry-F reports, an
    upper bound on |Phihat* Phihat - I|_F for the model column
    Phihat = [Theta ; Delta], Delta built from this record: at least |G'|_F
    for G' = I - Theta Theta* - P diag(lambda) P*, (lambda, P) the kept
    eigenpairs (:func:`defect_star_spectrum`).
    """

    gap: float
    eigvals: np.ndarray
    eigvecs: np.ndarray
    isometry_bound: float

    @property
    def kept(self) -> np.ndarray:
        """The eigenvalues of ``eigvecs``, ascending."""
        return self.eigvals[self.eigvals.size - self.eigvecs.shape[1] :]


def defect_star_spectrum(theta: CharFn) -> DefectStarSpectrum:
    """The eigen-data of I - Theta Theta*, from the m x m Gram K*K when the factorization holds.

    A = Theta Theta* is formed once (:func:`theta_gram`), and the gap
    G = I - A - K K* is read off it a block of rows at a time, keeping only
    its Frobenius norm (:func:`linalg.gap_frobenius`).  Since
    |G|_2 <= |G|_F, Weyl's inequality puts every eigenvalue of
    I - Theta Theta* within |G|_F of the matching one of K K*.  When that
    certified bound is at most 1e-12 the record comes from one ``eigh`` of
    K*K = V diag(l) V* = I - Phi^(d+1)(I), the kernel's own Gram
    (:attr:`poisson.KernelMatrix.gram`, which K*K's check reads too): the
    eigenvalues are l padded with p - min(p, m) zeros, and
    u_k = K v_k / sqrt(l_k); nothing p x p is decomposed.  Otherwise --
    relation families that are not graded, which break the factorization at
    the top degree, and any function its kernel does not factor -- one
    ``eigh`` of A gives 1 - mu and the eigenvectors, and A is dropped.
    Either way exactly one matrix is decomposed, once; :attr:`CharFn.spectrum`
    keeps the result.

    The isometry bound.  Delta = I - Z* Z with Z = D U* Theta, U the
    eigenvectors of I - Theta Theta* and D = diag(1 / sqrt(1 + sqrt(lambda))),
    1 at or below the rank cut; so M = U D^2 U* = I + P E P* over the kept
    eigenpairs (lambda, P), E = D_h^2 - I.  Then

        Phihat* Phihat - I = Theta* Y Theta,   Y = I - 2M + M A M = -M G' M,

    with G' = I - A - P diag(lambda) P* (E^2 = lambda D_h^4), and |M| <= 1,
    |Theta| <= 1 give |Phihat* Phihat - I|_F <= |G'|_F.  Phihat is an
    isometry by construction, so this sees only how well the eigen-data fit
    A.  On the Gram route P diag(lambda) P* = K V_keep V_keep* K*, so
    G' = G + K V_drop V_drop* K*, whose second term has the norm
    |l_drop|_2 of the eigenvalues of K*K at or below the cut: the bound is
    |G|_F + |l_drop|_2, O(m) on top of the gate.  On the dense route it is
    |G'|_F measured on A, one more pass of :func:`linalg.gap_frobenius`;
    |lambda_drop|_2 alone would leave out the backward error of the ``eigh``.
    """
    k = theta.kernel.matrix
    p = k.shape[0]
    a = theta_gram(theta)
    gap = gap_frobenius(a, k)
    if gap > _GRAM_ROUTE_TOL:
        mu, u = np.linalg.eigh(a)
        lam = 1.0 - mu[::-1]
        keep = lam > PSD_RANK_TOL
        u_h = u[:, ::-1][:, keep]
        return DefectStarSpectrum(
            gap=gap,
            eigvals=lam,
            eigvecs=u_h,
            isometry_bound=gap_frobenius(a, u_h * np.sqrt(lam[keep])),
        )
    ell, v = np.linalg.eigh(theta.kernel.gram)
    top = ell[ell.size - min(p, ell.size) :]  # K*K has m - p more zeros when p < m
    keep = ell > PSD_RANK_TOL
    return DefectStarSpectrum(
        gap=gap,
        eigvals=np.sort(np.concatenate([np.zeros(p - top.size), top])),
        eigvecs=(k @ v[:, keep]) / np.sqrt(ell[keep]),
        isometry_bound=gap + float(np.linalg.norm(ell[~keep])),
    )


@dataclasses.dataclass
class DeltaClassification:
    """Inner/outer verdicts of the function, read off its squared singular values.

    ``sigma_squared`` holds the min(p, q) values sigma^2 = 1 - lambda,
    descending, from the eigenvalues lambda of the p x p matrix
    I - Theta Theta* (:attr:`CharFn.spectrum`), clipped at 0.
    """

    inner: bool
    outer: bool
    partial_isometry_residual: float
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
    certified bound of the dense one (Weyl); otherwise one ``eigh`` of the
    p x p matrix Theta Theta* gave it.  Both are read off the function's one
    record, :attr:`CharFn.spectrum`.
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
    p, q = theta.shape
    lam = theta.spectrum.eigvals
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
        sigma_squared=sq,
        rank_deficiency=int(deficiency),
        norm=float(np.sqrt(sq[0])) if sq.size else 0.0,
    )


_FOURIER_SCREEN_TOL = 1e-6  # fourier-screen: a larger mismatch rules coincidence out


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


def coincidence_residual(
    theta: CharFn, theta_p: CharFn, tau: np.ndarray, tau_star: np.ndarray
) -> float:
    """The Frobenius norm |D|_F of D = (I (x) tau) Theta_N - Theta'_N (I (x) tau_star).

    Both functions are compressed to one N, so D is the function with the
    Fourier blocks delta_(alpha) = tau theta_(alpha) - theta'_(alpha) tau_star,
    formed once:

        D = sum_alpha (N* R_alpha N) (x) delta_(alpha).

    When N is the whole space D is multi-analytic: the block of alpha sits
    at (gamma alpha, gamma) for each of the dim_(<= d - |alpha|) words gamma
    with |gamma alpha| <= d, so

        |D|_F^2 = sum_alpha dim_(<= d - |alpha|) |delta_(alpha)|_F^2,

    one weighted sum over the degrees with nothing p x p or p x q formed.
    Otherwise (relation families) D is contracted from the blocks
    (:func:`_theta_n`) and its Frobenius norm taken.  Either way the value
    is never below the spectral norm |D|.
    """
    delta = tau @ theta.blocks - theta_p.blocks @ tau_star
    if not theta.sub.is_whole_space:
        return float(np.linalg.norm(_theta_n(theta.sub, delta)))
    space = theta.space
    squares = sum(
        space.dim_up_to(space.d - k) * np.linalg.norm(delta[space.degree_slice(k)]) ** 2
        for k in range(space.d + 1)
    )
    return float(np.sqrt(squares))
