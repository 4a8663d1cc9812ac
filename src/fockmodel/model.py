"""Functional model reconstruction and unitary-equivalence certificates.

From a (constrained) characteristic function Theta : C^q -> C^p with
pointwise defect Delta = (I - Theta*Theta)^(1/2), form the isometric column

    Phihat = [ Theta ; Delta ] : C^q -> C^p (+) C^q.

The model space is H = (C^p (+) ran Delta) (-) ran Phihat, of dimension
h = p + s - q with s = rank Delta, and the model operators are the
compressions to H of

    M_i = (compressed shift_i (x) I_{d_T})  (+)  0.

All of it comes from one eigendecomposition of the p x p matrix
I - Theta Theta* = sum_k lambda_k u_k u_k*, whose eigenvalues other than 1
are those of I - Theta*Theta: H has the orthonormal basis, in closed form,

    [ sqrt(lambda_k) u_k ; -Theta* u_k ]   for each lambda_k > 1e-10,

each column of norm lambda_k + |Theta* u_k|^2 = 1 and orthogonal to every
Phihat x, because Theta Delta = (I - Theta Theta*)^(1/2) Theta.  So h is the
number of kept eigenvalues and s = q - p + h, both known before anything of
size q exists.  The reported basis of that span is the one its shift rows,
I - Theta Theta* in the model projector, fix (``linalg.projector_basis``), so
the model operators do not depend on how the eigensolver splits a repeated
eigenvalue.  Phihat and Delta are never formed.  The isometry residual
|Phihat* Phihat - I| is measured, when asked for, on ran Theta*: it vanishes
on ker Theta by construction, so its restriction there has the same norm,
and one QR of the q x p matrix Theta* plus p x p products give it
(:attr:`ModelData.isometry_residual`).

Two independent reconstructions of the operators are available: the defining
compression above ("general"), and, for a pure tuple, the compression of the
shifts to the span of the u_k with lambda_k >= (1 - tail)/2 -- the orthogonal
complement of the large-singular-value range of Theta alone ("pure"), whose
basis never touches the Delta block.  At exact truncation both agree to
rounding; their disagreement is otherwise of the order of the truncation tail
and is reported, never hidden.

The unitary from the original space onto H sends h to (K h, 0) with K the
constrained Poisson kernel that Theta was built from (``theta.kernel``); its
matrix in the model basis, Gamma, is computed by projection and comes with
unitarity / embedding / intertwining residuals, all rounding-level plus
tail.

Coincidence machinery: a spatial unitary U with T'_i = U T_i U* induces
unitaries tau / tau_star between the defect spaces, and the characteristic
functions then coincide,

    (I (x) tau) Theta_J = Theta'_J (I (x) tau_star),

exactly at truncation.  Conversely, a coincidence witness transports the
whole model: (I (x) tau) (+) (I (x) tau_star) carries Delta to Delta' and
Phihat-ranges onto each other, hence model space to model space,
intertwines the model operators, and finally recovers a unitary V between
the original spaces with V T_i = T'_i V, normalized by Gamma* Gamma, which
is I only up to the truncation tail.  Every one of these steps is verified
numerically and reported.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .charfn import CharFn, defect_star_lower
from .contractions import Classification, TriState
from .ideals import constrained_creation_tuple
from .linalg import (
    PSD_RANK_TOL,
    adj,
    gram,
    hermitian_norm,
    opnorm,
    principal_angles,
    projector_basis,
    psd_spectrum,
    row_gram,
    unitary_polar_factor,
)


@dataclasses.dataclass
class ModelData:
    """Model space data built from one eigendecomposition of I - Theta Theta*.

    Bases live in the coordinates C^p (+) C^q of Phihat = [Theta ; Delta];
    the eigenvalues (clipped at 0, ascending) and eigenvectors of
    I - Theta Theta* are kept for the isometry residual, which is measured
    only when read.
    """

    theta: CharFn
    s: int
    H_basis: np.ndarray
    H_pure_basis: np.ndarray | None
    defect_star_eigvals: np.ndarray
    defect_star_eigvecs: np.ndarray

    @property
    def p(self) -> int:
        return self.theta.matrix.shape[0]

    @property
    def q(self) -> int:
        return self.theta.matrix.shape[1]

    @property
    def h(self) -> int:
        return self.H_basis.shape[1]

    @property
    def tail_bound(self) -> float:
        return self.theta.tail_bound

    @cached_property
    def isometry_residual(self) -> float:
        """|Phihat* Phihat - I|, measured on ran Theta* by one QR and p x p work.

        Delta = I - Z* Z with Z = D U* Theta, U the eigenvectors of
        I - Theta Theta* and D = diag(1 / sqrt(1 + sqrt(lambda))), the
        lambda at or below the rank cut 1e-10 counting as 0 (so Delta has
        rank s); the rows of Z are orthogonal, so no q-side decomposition
        defines Delta.  On ker Theta, Z x = 0 and Delta x = x, so
        R = Phihat* Phihat - I vanishes there for any eigen-data: R = P R P
        with P the projector onto ran Theta*.  One QR, Theta* = Q B with
        Q of k = min(p, q) orthonormal columns, gives span Q containing
        ran Theta*, so |Q* R Q| = |R| exactly: the norm of the same operator,
        not an estimate.  Q is never formed: Theta Q = B*, and since ran Z*
        lies in span Q, Delta Q = Q (I - G) with G = W* W, W = Z Q = D U* B*.
        So

            Q* R Q = B B* + (I - G)^2 - I,

        k x k, from one ``eigvalsh``.  The Grams are taken a block of rows at
        a time (:func:`linalg.row_gram`), and at most three k x k or k x p
        arrays are alive at once.
        """
        # Theta^T is a view of Theta; its triangular factor is B conjugated.
        b = np.linalg.qr(self.theta.matrix.T, mode="r")
        np.conjugate(b, out=b)
        lam = np.where(self.defect_star_eigvals > PSD_RANK_TOL, self.defect_star_eigvals, 0.0)
        w_adj = b @ self.defect_star_eigvecs
        w_adj /= np.sqrt(1.0 + np.sqrt(lam))  # W* = B U D
        eye_minus_g = row_gram(w_adj)
        del w_adj
        np.negative(eye_minus_g, out=eye_minus_g)
        diagonal = np.arange(eye_minus_g.shape[0])
        eye_minus_g[diagonal, diagonal] += 1.0
        residual = row_gram(b)
        del b
        residual[diagonal, diagonal] -= 1.0
        residual += eye_minus_g @ eye_minus_g
        return hermitian_norm(residual)


def build_model(theta: CharFn, *, classification: Classification | None = None) -> ModelData:
    """Assemble the model space of a characteristic function from one p x p ``eigh``.

    With I - Theta Theta* = sum_k lambda_k u_k u_k*, the model basis is the
    closed form of the module docstring over the lambda_k > 1e-10
    (NumericalRankWarning when an eigenvalue lies in [1e-12, 1e-8]), and
    s = q - p + h.  The pure basis spans the u_k with
    lambda_k >= (1 - tail)/2, that is sigma_k^2 <= (1 + tail)/2.  No other
    decomposition is taken, and no q x q array is formed; the isometry
    residual is measured on first access.

    Inside a repeated eigenvalue the eigenvectors are arbitrary, so both
    reported bases are rechosen by :func:`linalg.projector_basis`, pivoting
    on the p rows of the shift summand.  Those rows of the model projector
    are I - Theta Theta*, and those of the pure one a spectral projector of
    Theta Theta*, so the bases' shift rows -- all that the model operators
    and Gamma read -- are functions of Theta (pivot rows whose squared
    residuals lie within a relative 1e-8 count as tied).

    Refuses tuples certified not completely noncoisometric: the model space
    then misses part of the original space and nothing downstream would be
    meaningful.  (UNDETERMINED is allowed through; residuals will tell.)
    """
    if classification is not None and classification.cnc is TriState.NO:
        raise ValueError(
            "the tuple has a norm-preserved vector (not completely noncoisometric); "
            "it admits no model of this kind"
        )
    th = theta.matrix
    p, q = th.shape
    lam, u = np.linalg.eigh(defect_star_lower(theta), UPLO="L")
    lam, kept_u, kept = psd_spectrum(lam, u)
    h_basis = projector_basis(np.vstack([kept_u * np.sqrt(kept), -adj(adj(kept_u) @ th)]), p)

    tail = theta.tail_bound
    h_pure = None
    if tail < 0.5:
        pure_cols = projector_basis(u[:, lam >= 0.5 * (1.0 - tail)])
        h_pure = np.vstack([pure_cols, np.zeros((q, pure_cols.shape[1]), dtype=complex)])

    return ModelData(
        theta=theta,
        s=q - p + kept.size,
        H_basis=h_basis,
        H_pure_basis=h_pure,
        defect_star_eigvals=lam,
        defect_star_eigvecs=u,
    )


def _shift_rows(model_cols: np.ndarray, shift: np.ndarray, d_T: int, p: int) -> np.ndarray:
    """(shift (x) I_dT) applied to the first p rows of a model basis."""
    h1 = model_cols[:p, :]
    blocks = shift.shape[0]
    resh = h1.reshape(blocks, d_T, h1.shape[1])
    return np.tensordot(shift, resh, axes=(1, 0)).reshape(p, h1.shape[1])


def _compress_to(model_cols: np.ndarray, shift: np.ndarray, d_T: int, p: int) -> np.ndarray:
    """H* (shift (x) I_dT (+) 0) H for a basis whose first p rows matter."""
    return adj(model_cols[:p, :]) @ _shift_rows(model_cols, shift, d_T, p)


@dataclasses.dataclass
class ModelOperators:
    general: list[np.ndarray]
    pure: list[np.ndarray] | None
    branch_agreement: list[float] | None
    defining_residual: list[float]
    injectivity_margin: float
    used: str
    basis: np.ndarray  # the model-space basis the chosen branch is written in

    @property
    def Tt(self) -> list[np.ndarray]:
        return self.pure if self.used == "pure" else self.general


def model_operators(
    model: ModelData, *, classification: Classification | None = None
) -> ModelOperators:
    """Realize the ambient shifts on the model space, on both branches.

    The general branch solves the defining relation of the adjoint model
    operators -- (project to the first summand) o Tt_i* = (raising adjoint)
    o (project to the first summand) on the model space -- in the least
    squares sense, recording the per-generator residual.  That residual
    measures how far the truncation tilted the model space and scales with
    sqrt(tail_bound); the solution itself is accurate to the tail, as the
    branch agreement shows.  The projection must be injective on the model
    space; its smallest singular value is the margin, and falling under 1e-8
    means the input is numerically not completely noncoisometric (or the
    truncation degree too small), which is an error.

    The pure branch is the direct compression of the shifts, used as the
    canonical answer when purity is certified (its basis is independent of
    the defect block); otherwise the general solution is.  When both exist
    with matching dimensions their disagreement after a polar alignment of
    the bases is recorded per generator -- a real measure of how much the
    truncation tilted the model space, vanishing at rounding level when the
    tail does.
    """
    theta = model.theta
    d_T = theta.d_T
    p = model.p
    shifts = constrained_creation_tuple(theta.sub, "left")
    h1 = model.H_basis[:p, :]
    if h1.shape[1]:
        sigma_min = float(np.linalg.svd(h1, compute_uv=False)[-1])
    else:
        sigma_min = 0.0
    if h1.shape[1] and sigma_min <= 1e-8:
        raise ValueError(
            "the model space projects degenerately onto its shift summand "
            f"(smallest singular value {sigma_min:.3e}); the tuple is numerically "
            "not completely noncoisometric or the truncation degree is too small"
        )
    general = []
    defining = []
    for s_i in shifts:
        rhs = _shift_rows(model.H_basis, adj(s_i), d_T, p)
        x, *_ = np.linalg.lstsq(h1, rhs, rcond=None)
        general.append(adj(x))
        defining.append(float(opnorm(h1 @ x - rhs)))
    pure = None
    agreement = None
    if model.H_pure_basis is not None and model.H_pure_basis.shape[1] == model.h:
        pure = [_compress_to(model.H_pure_basis, s_i, d_T, p) for s_i in shifts]
        omega = unitary_polar_factor(adj(h1) @ model.H_pure_basis[:p, :])  # pure: 0 below p
        agreement = [
            float(opnorm(omega @ tp @ adj(omega) - tg)) for tp, tg in zip(pure, general)
        ]
    used = "general"
    if pure is not None and classification is not None and classification.pure is TriState.YES:
        used = "pure"
    basis = model.H_pure_basis if used == "pure" else model.H_basis
    return ModelOperators(
        general=general,
        pure=pure,
        branch_agreement=agreement,
        defining_residual=defining,
        injectivity_margin=sigma_min,
        used=used,
        basis=basis,
    )


@dataclasses.dataclass
class GammaResult:
    gamma: np.ndarray
    embedding_residual: float
    unitary_residual: float
    intertwining: dict[int, float]
    norm_identity_residual: float
    projection_residual: float
    used_branch: str


def model_unitary(model: ModelData, ops: ModelOperators) -> GammaResult:
    """Matrix of the canonical identification h -> (K h, 0) in the model basis.

    Returns Gamma together with how far (K h, 0) sticks out of the model
    space, how far Gamma is from unitary, and the intertwining residuals
    against the chosen model operators.  Two defining identities of the
    identification are verified on the side: column-wise |K* g| equals the
    norm of the model-space projection of (g, 0) (norm_identity_residual),
    and projecting Gamma's range back onto the shift summand recovers the
    kernel matrix (projection_residual).  All of these are zero at rounding
    level when the truncation tail is.  K is the kernel the model's function
    was built from.
    """
    kernel = model.theta.kernel
    k = kernel.matrix
    # Gamma must live in the same coordinates as the chosen operator branch;
    # (K h, 0) has no component below the p rows of the shift summand.
    basis = ops.basis
    h1 = basis[: model.p, :]
    gamma = adj(h1) @ k
    embedding_residual = opnorm(np.vstack([h1 @ gamma - k, basis[model.p :, :] @ gamma]))
    eye_h = np.eye(model.h, dtype=complex)
    eye_m = np.eye(gamma.shape[1], dtype=complex)
    unitary_residual = max(
        hermitian_norm(adj(gamma) @ gamma - eye_m),
        hermitian_norm(gamma @ adj(gamma) - eye_h) if model.h == gamma.shape[1] else np.inf,
    )
    mats = kernel.mats
    inter: dict[int, float] = {}
    for i, (tt, t) in enumerate(zip(ops.Tt, mats), start=1):
        co = opnorm(adj(tt) @ gamma - gamma @ adj(t))
        direct = opnorm(tt @ gamma - gamma @ t)
        inter[i] = float(max(co, direct))
    # |K* g_j| vs |P_model (g_j, 0)| over the standard basis of the shift summand:
    # K* columns are conjugated kernel rows, the projections are basis rows.
    col_norms_k = np.linalg.norm(k, axis=1)
    col_norms_p = np.linalg.norm(h1, axis=1)
    norm_identity = float(np.max(np.abs(col_norms_k - col_norms_p))) if model.p else 0.0
    projection_residual = float(opnorm(h1 @ gamma - k))
    return GammaResult(
        gamma=gamma,
        embedding_residual=float(embedding_residual),
        unitary_residual=float(unitary_residual),
        intertwining=inter,
        norm_identity_residual=norm_identity,
        projection_residual=projection_residual,
        used_branch=ops.used,
    )


@dataclasses.dataclass
class CoincidenceWitness:
    """Defect-space unitaries transporting one characteristic function onto another."""

    u: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    residual: float
    conjugation_residual: float
    theta: CharFn
    theta_p: CharFn


def coincidence_from_unitary(theta: CharFn, theta_p: CharFn, u: np.ndarray) -> CoincidenceWitness:
    """Build the coincidence witness induced by a spatial unitary.

    The tuples are those of the kernels the two functions were built from.
    Verifies first that both functions are compressed to one subspace N (the
    same subspace object, or an equal N basis of the same Fock space; equal
    dimensions do not do, since commutative and q-commutative families share
    dim N) and that T'_i = U T_i U* actually holds (these are input
    contracts, not something to silently repair), then forms the defect
    unitaries tau = basis'* U basis and tau_star = basis'* (I (x) U) basis_*
    and evaluates the coincidence residual

        | (I (x) tau) Theta - Theta' (I (x) tau_star) |,

    which vanishes at truncation up to rounding whenever the input contract
    holds.
    """
    a, b = theta.sub, theta_p.sub
    same_space = (a.space.n, a.space.d) == (b.space.n, b.space.d)
    if a is not b and not (same_space and np.array_equal(a.N_basis, b.N_basis)):
        raise ValueError("the two characteristic functions are compressed to different subspaces")
    mats, mats_p = theta.kernel.mats, theta_p.kernel.mats
    u = np.asarray(u, dtype=complex)
    m = mats[0].shape[0]
    if u.shape != (m, m):
        raise ValueError(f"unitary has shape {u.shape}, expected ({m}, {m})")
    if hermitian_norm(u @ adj(u) - np.eye(m)) > 1e-10:
        raise ValueError("the supplied matrix is not unitary")
    conj_residual = max(
        opnorm(tp - u @ t @ adj(u)) for t, tp in zip(mats, mats_p)
    )
    if conj_residual > 1e-10:
        raise ValueError(
            f"the tuples are not conjugated by the supplied unitary "
            f"(residual {conj_residual:.3e})"
        )
    dft, dft_p = theta.defect, theta_p.defect
    n = len(mats)
    tau = adj(dft_p.basis) @ u @ dft.basis
    tau_star = adj(dft_p.basis_star) @ np.kron(np.eye(n, dtype=complex), u) @ dft.basis_star
    lhs = _kron_left(tau, theta.matrix, theta.d_T)
    rhs = _kron_right(theta_p.matrix, tau_star, theta_p.d_star)
    residual = opnorm(lhs - rhs)
    return CoincidenceWitness(
        u=u,
        tau=tau,
        tau_star=tau_star,
        residual=float(residual),
        conjugation_residual=float(conj_residual),
        theta=theta,
        theta_p=theta_p,
    )


def _kron_left(tau: np.ndarray, mat: np.ndarray, d_in: int) -> np.ndarray:
    """(I_blocks (x) tau) @ mat, where mat rows come in blocks of size d_in."""
    blocks = mat.shape[0] // d_in
    resh = mat.reshape(blocks, d_in, mat.shape[1])
    out = np.tensordot(tau, resh, axes=(1, 1))          # (d_out, blocks, cols)
    out = np.moveaxis(out, 0, 1)
    return np.ascontiguousarray(out).reshape(blocks * tau.shape[0], mat.shape[1])


def _kron_right(mat: np.ndarray, tau: np.ndarray, d_out: int) -> np.ndarray:
    """mat @ (I_blocks (x) tau), where mat columns come in blocks of size d_out."""
    blocks = mat.shape[1] // d_out
    resh = mat.reshape(mat.shape[0], blocks, d_out)
    out = np.tensordot(resh, tau, axes=(2, 0))          # (rows, blocks, d_in)
    return np.ascontiguousarray(out).reshape(mat.shape[0], blocks * tau.shape[1])


@dataclasses.dataclass
class EquivalenceReport:
    """Full audit trail of coincidence => unitary equivalence."""

    coincidence_residual: float
    max_principal_angle: float
    model_intertwining: float
    gamma: GammaResult
    gamma_p: GammaResult
    defining_residuals: list[float]
    recovered_unitary: np.ndarray
    recovered_intertwining: float
    recovered_unitarity: float
    phase_deviation: float
    equivalent: bool


def verify_coincidence_implies_equivalence(
    witness: CoincidenceWitness,
    *,
    classification: Classification | None = None,
    classification_p: Classification | None = None,
) -> EquivalenceReport:
    """Transport the model along a coincidence witness and recover the unitary.

    The witness unitaries are promoted to a map of model ambient spaces,

        Psi = (I (x) tau)  (+)  (I (x) tau_star)   on C^p (+) C^q,

    which must carry model space onto model space (checked via principal
    angles), intertwine the model operators (checked in norm), and induce --
    through the canonical identifications Gamma / Gamma' -- a unitary V
    between the original spaces with V T_i = T'_i V.  Gamma is not an
    isometry at truncation: Gamma* Gamma = K* P K, with P the shift rows of
    the chosen model projector, is I - Phi^(d+1)(I) on the pure branch and
    its square on the general one.  Transport gives U_h Gamma = Gamma' U, so

        V = Gamma'* U_h Gamma (Gamma* Gamma)^(-1),

    by one linear solve, is exactly U at any degree and on either branch.
    Whatever the normalization, a unitary V with V T_i = T'_i V certifies
    the equivalence by itself.  V is also compared against the witness's own
    spatial unitary up to a global phase (a genuine equality only when the
    tuple is irreducible; it is reported, not asserted).
    """
    theta, theta_p = witness.theta, witness.theta_p
    mats, mats_p = theta.kernel.mats, theta_p.kernel.mats
    model = build_model(theta, classification=classification)
    model_p = build_model(theta_p, classification=classification_p)
    ops = model_operators(model, classification=classification)
    ops_p = model_operators(model_p, classification=classification_p)
    gamma = model_unitary(model, ops)
    gamma_p = model_unitary(model_p, ops_p)

    p = model.p

    def psi(x: np.ndarray) -> np.ndarray:
        """Psi x, by the block reshapes: Psi itself is never formed."""
        top = _kron_left(witness.tau, x[:p], theta.d_T)
        bottom = _kron_left(witness.tau_star, x[p:], theta.d_star)
        return np.vstack([top, bottom])

    moved = psi(ops.basis)
    if model.h == model_p.h and model.h > 0:
        # The subspace comparison must stay within one branch: the general
        # bases transform exactly covariantly under psi, while the pure-branch
        # basis tilts away from the general one by the square root of the
        # tail, which is not an equivalence defect.
        angles = principal_angles(psi(model.H_basis), model_p.H_basis)
        max_angle = float(np.max(angles)) if angles.size else 0.0
    else:
        max_angle = float("inf")
    u_h = adj(ops_p.basis) @ moved
    inter = 0.0
    for tt, tt_p in zip(ops.Tt, ops_p.Tt):
        inter = max(inter, opnorm(u_h @ tt - tt_p @ u_h))

    v = adj(gamma_p.gamma) @ u_h @ gamma.gamma
    v = adj(np.linalg.solve(gram(gamma.gamma), adj(v)))  # v (Gamma* Gamma)^(-1)
    rec_inter = max(opnorm(v @ t - tp @ v) for t, tp in zip(mats, mats_p))
    rec_unit = hermitian_norm(v @ adj(v) - np.eye(v.shape[0], dtype=complex))
    tr = np.trace(v @ adj(witness.u))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    phase_dev = opnorm(v - phase * witness.u)

    equivalent = bool(
        witness.residual < 1e-8
        and max_angle < 1e-6
        and inter < 1e-7
        and rec_inter < 1e-6
        and rec_unit < 1e-6
    )
    return EquivalenceReport(
        coincidence_residual=witness.residual,
        max_principal_angle=max_angle,
        model_intertwining=float(inter),
        gamma=gamma,
        gamma_p=gamma_p,
        defining_residuals=[*ops.defining_residual, *ops_p.defining_residual],
        recovered_unitary=v,
        recovered_intertwining=float(rec_inter),
        recovered_unitarity=float(rec_unit),
        phase_deviation=float(phase_dev),
        equivalent=equivalent,
    )
