"""Functional model reconstruction and unitary-equivalence certificates.

From a (constrained) characteristic function Theta : C^q -> C^p with
pointwise defect Delta = (I - Theta*Theta)^(1/2), form the isometric column

    Phihat = [ Theta ; Delta ] : C^q -> C^p (+) C^q.

The model space is H = (C^p (+) ran Delta) (-) ran Phihat, of dimension
h = p + s - q with s = rank Delta, and the model operators are the
compressions to H of

    M_i = (compressed shift_i (x) I_{d_T})  (+)  0.

All of it comes from the eigenpairs of the p x p matrix
I - Theta Theta* = sum_k lambda_k u_k u_k* with lambda_k > 1e-10, whose
eigenvalues other than 1 are those of I - Theta*Theta: H has the orthonormal
basis, in closed form,

    [ sqrt(lambda_k) u_k ; -Theta* u_k ]   for each lambda_k > 1e-10,

each column of norm lambda_k + |Theta* u_k|^2 = 1 and orthogonal to every
Phihat x, because Theta Delta = (I - Theta Theta*)^(1/2) Theta.  So h is the
number of kept eigenvalues and s = q - p + h, both known before anything of
size q exists.  The eigenpairs come from the factorization
I - Theta Theta* = K K* against the Poisson kernel K (p x m) wherever it is
certified: with K*K = V diag(l) V* (an m x m ``eigh``), lambda_k = l_k and
u_k = K v_k / sqrt(l_k), and no p x p matrix is decomposed.  The certificate
is the Frobenius norm of the gap I - Theta Theta* - K K*, which by Weyl's
inequality bounds how far each eigenvalue can be from the dense one; above
1e-12 one dense ``eigh`` of Theta Theta* is taken instead.  Either way the
eigenpairs are the function's one record, :attr:`charfn.CharFn.spectrum`
(:func:`charfn.defect_star_spectrum`), which the verdicts read too, and the
model keeps no copy of them.  The reported basis of that span is
the one its shift rows, I - Theta Theta* in the model projector, fix
(``linalg.projector_basis``), so the model operators do not depend on how
the eigensolver splits a repeated eigenvalue.  Phihat and Delta are never
formed.  Theta is read only through that record, the kernel, Theta* u_k on
the Fourier blocks for every family (:func:`charfn.theta_star`), and the
certificate's coincidence residual (:func:`charfn.coincidence_residual`),
which :mod:`charfn` takes of the functions alone.  So the model never reads
the p x q matrix of Theta, nor how the function is held.  The record also
carries the isometry check: Delta is built from the record, so Phihat is an
isometry by construction, and |Phihat* Phihat - I|_F can see only how well
the kept eigenpairs fit Theta Theta*.  The record's upper bound on it,
|I - Theta Theta* - P diag(lambda) P*|_F over the kept eigenpairs
(lambda, P), is what isometry-F reports
(:attr:`charfn.CharFn.isometry_residual`); it costs no work past the
record.

The operators (:attr:`ModelData.operators`) and Gamma
(:attr:`ModelData.gamma`) are later stages of the model, built on first use.
There are two independent reconstructions of the operators: the defining
compression above ("general"), and, for a pure tuple, the compression of the
shifts to the span of the u_k with lambda_k >= (1 - tail)/2 -- the orthogonal
complement of the large-singular-value range of Theta alone ("pure"), whose
basis never touches the Delta block.  The model's classification, the one
its kernel holds (:attr:`poisson.KernelMatrix.classification`), picks one.
At exact truncation both agree to rounding; their disagreement is otherwise
of the order of the truncation tail and is reported, never hidden.

The unitary from the original space onto H sends h to (K h, 0) with K the
constrained Poisson kernel that Theta was built from (``theta.kernel``); its
matrix in the model basis of the chosen branch, Gamma, is computed by
projection and comes with unitarity / embedding / intertwining residuals,
all rounding-level plus tail.

Coincidence machinery: a spatial unitary U with T'_i = U T_i U* induces
unitaries tau / tau_star between the defect spaces, and the characteristic
functions then coincide,

    (I (x) tau) Theta_J = Theta'_J (I (x) tau_star),

exactly at truncation.  Conversely, a coincidence witness transports the
whole model: (I (x) tau) (+) (I (x) tau_star) carries Delta to Delta' and
Phihat-ranges onto each other, hence model space to model space,
intertwines the model operators, and finally recovers a unitary V between
the original spaces with V T_i = T'_i V, normalized by Gamma* Gamma, which
is I only up to the truncation tail.  The certificate reads the two models
it is given and builds none.  Every one of these steps is verified
numerically and reported.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .charfn import CharFn, coincidence_residual, theta_star
from .contractions import Classification, TriState
from .linalg import (
    adj,
    gram,
    hermitian_norm,
    kron_inner,
    opnorm,
    principal_angles,
    projector_basis,
    psd_spectrum,
    unitary_polar_factor,
)


@dataclasses.dataclass
class ModelData:
    """Model space data built from the kept eigenpairs of I - Theta Theta*.

    Bases live in the coordinates C^p (+) C^q of Phihat = [Theta ; Delta].
    The eigenpairs stay on the function's record
    (:attr:`charfn.CharFn.spectrum`), and so does the isometry bound
    (:attr:`charfn.CharFn.isometry_residual`).  :attr:`classification` is
    the one the function's kernel holds; it picks the operator branch of the
    later stages, :attr:`operators` and :attr:`gamma`, each built on first
    use and kept.  :attr:`checks` pairs each residual of the model with its
    tolerance.
    """

    theta: CharFn
    s: int
    H_basis: np.ndarray
    H_pure_basis: np.ndarray | None

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    @property
    def q(self) -> int:
        return self.theta.shape[1]

    @property
    def h(self) -> int:
        return self.H_basis.shape[1]

    @property
    def tail_bound(self) -> float:
        return self.theta.tail_bound

    @property
    def classification(self) -> Classification:
        """The classification of the function's kernel."""
        return self.theta.kernel.classification

    @property
    def checks(self) -> list[tuple[str, float, float]]:
        """(name, residual, tolerance) of each identity the model rests on, in report order.

        isometry-F (the record's bound on |Phihat* Phihat - I|_F for the
        column Phihat = [Theta ; Delta]), the defining relation of the
        general branch (def), the agreement of the two branches where both
        exist, then Gamma's unitarity, intertwining and identification
        residuals.  All but isometry-F allow ten truncation tails.
        """
        ops, gamma, tail = self.operators, self.gamma, self.tail_bound
        agree = ops.branch_agreement
        identify = max(gamma.embedding_residual, gamma.norm_identity_residual,
                       gamma.projection_residual)
        return [
            ("isometry-F", self.theta.isometry_residual, 1e-9),
            # The least-squares residual of the defining relation measures the tilt of
            # the truncated model space, which scales with sqrt(tail), not tail.
            ("def", max(ops.defining_residual), 1e-7 + 10 * tail**0.5),
            *([] if agree is None else [("branch-agree", max(agree), 1e-8 + 10 * tail)]),
            ("Ga-unitary", gamma.unitary_residual, 1e-8 + 10 * tail),
            ("Ga-intertwine", max(gamma.intertwining.values()), 1e-8 + 10 * tail),
            ("Ga-identify", identify, 1e-7 + 10 * tail),
        ]

    @cached_property
    def operators(self) -> ModelOperators:
        """The ambient shifts realized on the model space, on both branches.

        The general branch solves the defining relation of the adjoint model
        operators -- (project to the first summand) o Tt_i* = (raising
        adjoint) o (project to the first summand) on the model space -- in
        the least squares sense, recording the per-generator residual.  That
        residual measures how far the truncation tilted the model space and
        scales with sqrt(tail_bound); the solution itself is accurate to the
        tail, as the branch agreement shows.  The projection must be
        injective on the model space; its smallest singular value is the
        margin, and falling under 1e-8 means the input is numerically not
        completely noncoisometric (or the truncation degree too small),
        which is an error.  The right-hand sides are (B_i* (x) I) h1, h1
        the shift rows of the model basis and B_i = N* S_i N the compressed
        left creation, applied by
        :meth:`ideals.ConstrainedSubspace.shift_adjoint`: a row gather by the
        creation index map between products by N, with no shift matrix.

        The pure branch is the direct compression of the shifts,
        X* (B_i (x) I) X = ((B_i* (x) I) X)* X on its basis X, used as the
        canonical answer when the model's classification certifies purity
        (its basis is independent of the defect block); otherwise the
        general solution is.  When both exist with matching dimensions their
        disagreement after a polar alignment of the bases is recorded per
        generator -- a real measure of how much the truncation tilted the
        model space, vanishing at rounding level when the tail does.
        """
        d_T, p, sub = self.theta.d_T, self.p, self.theta.sub
        letters = range(1, sub.space.n + 1)
        h1, h = self.H_basis[:p, :], self.h
        rhs = [sub.shift_adjoint(i, h1, d_T) for i in letters]
        # one factorization of h1 for every generator; its singular values give the margin
        solved, _, _, sigma = np.linalg.lstsq(h1, np.hstack(rhs), rcond=None)
        sigma_min = float(sigma[-1]) if h else 0.0
        if h and sigma_min <= 1e-8:
            raise ValueError(
                "the model space projects degenerately onto its shift summand "
                f"(smallest singular value {sigma_min:.3e}); the tuple is numerically "
                "not completely noncoisometric or the truncation degree is too small"
            )
        xs = np.split(solved, len(rhs), axis=1)
        general = [adj(x) for x in xs]
        defining = [float(opnorm(h1 @ x - r)) for x, r in zip(xs, rhs)]
        pure = agreement = None
        if self.H_pure_basis is not None and self.H_pure_basis.shape[1] == self.h:
            pure_h1 = self.H_pure_basis[:p, :]  # the pure basis is 0 below p
            pure = [adj(sub.shift_adjoint(i, pure_h1, d_T)) @ pure_h1 for i in letters]
            omega = unitary_polar_factor(adj(h1) @ pure_h1)
            agreement = [
                float(opnorm(omega @ tp @ adj(omega) - tg)) for tp, tg in zip(pure, general)
            ]
        certified_pure = self.classification.pure is TriState.YES
        used = "pure" if pure is not None and certified_pure else "general"
        return ModelOperators(
            general=general,
            pure=pure,
            branch_agreement=agreement,
            defining_residual=defining,
            injectivity_margin=sigma_min,
            used=used,
            basis=self.H_pure_basis if used == "pure" else self.H_basis,
        )

    @cached_property
    def gamma(self) -> GammaResult:
        """Matrix of the canonical identification h -> (K h, 0) in the model basis.

        Gamma is written in the basis of the chosen operator branch
        (:attr:`operators`) and comes with how far (K h, 0) sticks out of the
        model space, how far Gamma is from unitary, and the intertwining
        residuals against those operators.  Two defining identities of the
        identification are verified on the side: column-wise |K* g| equals
        the norm of the model-space projection of (g, 0)
        (norm_identity_residual), and projecting Gamma's range back onto the
        shift summand recovers the kernel matrix (projection_residual).  All
        of these are zero at rounding level when the truncation tail is.  K
        is the kernel the model's function was built from.
        """
        kernel = self.theta.kernel
        k = kernel.matrix
        ops = self.operators
        # (K h, 0) has no component below the p rows of the shift summand.
        basis = ops.basis
        h1 = basis[: self.p, :]
        gamma = adj(h1) @ k
        projection = h1 @ gamma - k
        projection_residual = float(opnorm(projection))
        if ops.used == "pure":  # the pure basis is 0 below p: the stack is projection, padded
            embedding_residual = projection_residual
        else:
            embedding_residual = float(opnorm(np.vstack([projection, basis[self.p :, :] @ gamma])))
        eye_h = np.eye(self.h, dtype=complex)
        eye_m = np.eye(gamma.shape[1], dtype=complex)
        unitary_residual = max(
            hermitian_norm(adj(gamma) @ gamma - eye_m),
            hermitian_norm(gamma @ adj(gamma) - eye_h) if self.h == gamma.shape[1] else np.inf,
        )
        inter: dict[int, float] = {}
        for i, (tt, t) in enumerate(zip(ops.Tt, kernel.mats), start=1):
            co = opnorm(adj(tt) @ gamma - gamma @ adj(t))
            direct = opnorm(tt @ gamma - gamma @ t)
            inter[i] = float(max(co, direct))
        # |K* g_j| vs |P_model (g_j, 0)| over the standard basis of the shift summand:
        # K* columns are conjugated kernel rows, the projections are basis rows.
        col_norms_k = np.linalg.norm(k, axis=1)
        col_norms_p = np.linalg.norm(h1, axis=1)
        norm_identity = float(np.max(np.abs(col_norms_k - col_norms_p))) if self.p else 0.0
        return GammaResult(
            gamma=gamma,
            embedding_residual=embedding_residual,
            unitary_residual=float(unitary_residual),
            intertwining=inter,
            norm_identity_residual=norm_identity,
            projection_residual=projection_residual,
        )


def build_model(theta: CharFn) -> ModelData:
    """Assemble the model space of a characteristic function from its kept eigenpairs.

    With I - Theta Theta* = sum_k lambda_k u_k u_k*, the model basis is the
    closed form of the module docstring over the lambda_k > 1e-10
    (NumericalRankWarning when an eigenvalue lies in [1e-12, 1e-8]), and
    s = q - p + h.  The pure basis spans the u_k with
    lambda_k >= (1 - tail)/2, that is sigma_k^2 <= (1 + tail)/2.  The
    eigenpairs are read off the function's record
    (:attr:`charfn.CharFn.spectrum`): from the m x m Gram K*K of the Poisson
    kernel when |I - Theta Theta* - K K*|_F is at most 1e-12 (the Weyl bound
    on every eigenvalue), so that nothing p x p is decomposed, and from one
    dense p x p ``eigh`` otherwise; reading the verdicts too takes no second
    decomposition.  Theta* u_k comes from the Fourier blocks
    (:func:`charfn.theta_star`).  No q x q array is formed, and the record
    keeps only the p x h kept eigenvectors.

    Inside a repeated eigenvalue the eigenvectors are arbitrary, so both
    reported bases are rechosen by :func:`linalg.projector_basis`, pivoting
    on the p rows of the shift summand.  Those rows of the model projector
    are I - Theta Theta*, and those of the pure one a spectral projector of
    Theta Theta*, so the bases' shift rows -- all that the model operators
    and Gamma read -- are functions of Theta (pivot rows whose squared
    residuals lie within a relative 1e-8 count as tied).

    The classification of the function's kernel
    (:attr:`poisson.KernelMatrix.classification`) picks the operator branch.
    Refuses tuples it certifies not completely noncoisometric: the model
    space then misses part of the original space and nothing downstream
    would be meaningful.  (UNDETERMINED is allowed through; residuals will
    tell.)
    """
    if theta.kernel.classification.cnc is TriState.NO:
        raise ValueError(
            "the tuple has a norm-preserved vector (not completely noncoisometric); "
            "it admits no model of this kind"
        )
    p, q = theta.shape
    spectrum = theta.spectrum
    _, kept_u, kept = psd_spectrum(spectrum.eigvals, spectrum.eigvecs)
    h_basis = projector_basis(np.vstack([kept_u * np.sqrt(kept), -theta_star(theta, kept_u)]), p)

    tail = theta.tail_bound
    h_pure = None
    if tail < 0.5:
        pure_cols = projector_basis(spectrum.eigvecs[:, spectrum.kept >= 0.5 * (1.0 - tail)])
        h_pure = np.vstack([pure_cols, np.zeros((q, pure_cols.shape[1]), dtype=complex)])

    return ModelData(
        theta=theta,
        s=q - p + kept.size,
        H_basis=h_basis,
        H_pure_basis=h_pure,
    )


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


@dataclasses.dataclass
class GammaResult:
    gamma: np.ndarray
    embedding_residual: float
    unitary_residual: float
    intertwining: dict[int, float]
    norm_identity_residual: float
    projection_residual: float

    @property
    def worst(self) -> float:
        """Worst violation of the identities defining the canonical identification."""
        return max(self.unitary_residual, self.embedding_residual, self.norm_identity_residual,
                   self.projection_residual, max(self.intertwining.values()))


@dataclasses.dataclass
class CoincidenceWitness:
    """Defect-space unitaries transporting one characteristic function onto another."""

    u: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    residual: float
    conjugation_residual: float
    tau_unitary_residual: float
    theta: CharFn
    theta_p: CharFn


# The bound of the certificate's conjugation check, which coincidence_from_unitary refuses above.
_CONJUGATION_TOL = 1e-10
_UNITARY_TOL = 1e-10  # |U U* - I| up to which a supplied matrix counts as unitary


class NotUnitaryError(ValueError):
    """The matrix supplied to :func:`coincidence_from_unitary` is not unitary."""


def coincidence_from_unitary(theta: CharFn, theta_p: CharFn, u: np.ndarray) -> CoincidenceWitness:
    """Build the coincidence witness induced by a spatial unitary.

    The tuples are those of the kernels the two functions were built from.
    Verifies first that both functions are compressed to one subspace N
    (:meth:`ideals.ConstrainedSubspace.same_as`: the same subspace object,
    the whole space of the same (n, d) on both sides, or an equal N basis of
    the same Fock space; equal dimensions do not do, since commutative and
    q-commutative families share dim N), that |U U* - I| <= 1e-10
    (:class:`NotUnitaryError` otherwise) and that T'_i = U T_i U* actually
    holds (these are input contracts, not something to silently repair),
    then forms the defect
    unitaries tau = basis'* U basis and tau_star = basis'* (I (x) U) basis_*
    and evaluates the coincidence residual, the Frobenius norm

        | (I (x) tau) Theta - Theta' (I (x) tau_star) |_F

    (:func:`charfn.coincidence_residual`, from one difference of Fourier
    blocks; on the whole space no p x q array is formed), which vanishes at
    truncation up to rounding whenever the input contract holds, and how far
    tau and tau_star are from isometries (``tau_unitary_residual``).
    """
    if not theta.sub.same_as(theta_p.sub):
        raise ValueError("the two characteristic functions are compressed to different subspaces")
    mats, mats_p = theta.kernel.mats, theta_p.kernel.mats
    u = np.asarray(u, dtype=complex)
    m = mats[0].shape[0]
    if u.shape != (m, m):
        raise ValueError(f"unitary has shape {u.shape}, expected ({m}, {m})")
    deviation = hermitian_norm(u @ adj(u) - np.eye(m))
    if deviation > _UNITARY_TOL:
        raise NotUnitaryError(
            f"the supplied matrix is not unitary (|U U* - I| = {deviation:.3e} > {_UNITARY_TOL:.0e})"
        )
    conj_residual = max(
        opnorm(tp - u @ t @ adj(u)) for t, tp in zip(mats, mats_p)
    )
    if conj_residual > _CONJUGATION_TOL:
        raise ValueError(
            f"the tuples are not conjugated by the supplied unitary "
            f"(residual {conj_residual:.3e})"
        )
    dft, dft_p = theta.defect, theta_p.defect
    tau = adj(dft_p.basis) @ u @ dft.basis
    tau_star = adj(dft_p.basis_star) @ kron_inner(u, dft.basis_star, len(mats))
    residual = coincidence_residual(theta, theta_p, tau, tau_star)
    tau_dev = max(
        hermitian_norm(tau.conj().T @ tau - np.eye(tau.shape[1])),
        hermitian_norm(tau_star.conj().T @ tau_star - np.eye(tau_star.shape[1])),
    )
    return CoincidenceWitness(
        u=u,
        tau=tau,
        tau_star=tau_star,
        residual=float(residual),
        conjugation_residual=float(conj_residual),
        tau_unitary_residual=tau_dev,
        theta=theta,
        theta_p=theta_p,
    )


@dataclasses.dataclass
class EquivalenceReport:
    """Full audit trail of coincidence => unitary equivalence.

    ``checks`` holds (name, residual, tolerance) of every identity the
    certificate rests on, in report order; the pair is ``equivalent`` when
    each residual is at most its tolerance.
    """

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
    checks: list[tuple[str, float, float]]

    @property
    def equivalent(self) -> bool:
        return all(residual <= tolerance for _, residual, tolerance in self.checks)


def verify_coincidence_implies_equivalence(
    witness: CoincidenceWitness, model: ModelData, model_p: ModelData
) -> EquivalenceReport:
    """Transport the model along a coincidence witness and recover the unitary.

    ``model`` and ``model_p`` are the models of the witness's two functions
    (:func:`build_model`); their classifications pick the operator branches.
    A model of any other function is refused with ValueError.  The witness
    unitaries are promoted to a map of model ambient spaces,

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

    The report's ``checks`` pair each residual with its tolerance:
    conjugation and tau-unitary 1e-10 (coincidence_from_unitary refuses
    above the first), com 1e-9, the largest principal angle 1e-6, the model
    intertwining 1e-7, and the unitarity and intertwining of V 1e-6 each.
    ``equivalent`` is their conjunction, so it is True exactly when every
    check the CLI reports for the certificate passes.
    """
    theta, theta_p = witness.theta, witness.theta_p
    if model.theta is not theta or model_p.theta is not theta_p:
        raise ValueError("the models are not built from the witness's characteristic functions")
    mats, mats_p = theta.kernel.mats, theta_p.kernel.mats
    ops, ops_p = model.operators, model_p.operators
    gamma, gamma_p = model.gamma, model_p.gamma

    p, words = model.p, theta.sub.dim_N

    def psi(x: np.ndarray) -> np.ndarray:
        """Psi x, by the block reshapes: Psi itself is never formed."""
        top = kron_inner(witness.tau, x[:p], words)
        bottom = kron_inner(witness.tau_star, x[p:], words)
        return np.vstack([top, bottom])

    moved = psi(ops.basis)
    if model.h == model_p.h and model.h > 0:
        # The subspace comparison must stay within one branch: the general
        # bases transform exactly covariantly under psi, while the pure-branch
        # basis tilts away from the general one by the square root of the
        # tail, which is not an equivalence defect.
        general = moved if ops.basis is model.H_basis else psi(model.H_basis)
        angles = principal_angles(general, model_p.H_basis)
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
        checks=[
            ("conjugation", witness.conjugation_residual, _CONJUGATION_TOL),
            ("tau-unitary", witness.tau_unitary_residual, 1e-10),
            ("com", witness.residual, 1e-9),
            ("subspace-angle", max_angle, 1e-6),
            ("model-intertwine", float(inter), 1e-7),
            ("recovered-unitary", float(rec_unit), 1e-6),
            ("recovered-intertwine", float(rec_inter), 1e-6),
        ],
    )
