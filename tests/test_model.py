"""Model-space reconstruction and unitary-equivalence certification.

Dimension oracles (worked by hand):

* T = [0] on C, d = 6: both defects are 1-dimensional, the function is the
  degree-one coordinate, and the model collapses to a single copy of the
  7-word space: (p, q, s, h) = (7, 7, 1, 1), with the model operator equal
  to the 1x1 zero matrix.
* the commuting nilpotent triple-space tuple (m = 3) under the commutative
  family at d = 6 (dim N = 28): p = 28*3 = 84, q = 28*6 = 168, and the
  model complement has s = 87, h = 3 (the model recovers a 3-dimensional
  space, matching m).
"""

import dataclasses
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import (
    SPECTRAL_CASES,
    adj,
    make_spec,
    opnorm,
    record_decompositions,
    spectral_theta,
    synthetic_theta,
    theta_of,
)
from fockmodel import (
    TriState,
    TruncatedFockSpace,
    build_model,
    classify,
    coincidence_from_unitary,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    ideal_subspace,
    model_operators,
    model_unitary,
    validate,
    verify_coincidence_implies_equivalence,
)
from fockmodel.linalg import NumericalRankWarning, principal_angles, projector_basis
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    conjugated_tuple,
    haar_unitary,
    q_commuting_nilpotent_tuple,
    random_row_contraction,
    random_scalar_tuple,
    scale_to_rho,
)


def _pipeline(mats, sub):
    cls = classify(mats)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    model = build_model(th, classification=cls)
    ops = model_operators(model, classification=cls)
    return cls, th, k, model, ops


# ---------------------------------------------------------------------------
# dimensions


def test_unilateral_shift_model_is_one_dimensional(subspace_factory):
    sub = subspace_factory("zero", n=1, d=6)
    cls, _, k, model, ops = _pipeline([np.array([[0.0]])], sub)
    assert (model.p, model.q, model.s, model.h) == (7, 7, 1, 1)
    assert model.isometry_residual == 0.0
    assert ops.Tt[0].shape == (1, 1)
    assert abs(ops.Tt[0][0, 0]) < 1e-14
    assert ops.injectivity_margin == pytest.approx(1.0)
    assert max(ops.defining_residual) == 0.0
    g = model_unitary(model, ops)
    assert g.unitary_residual == 0.0
    assert max(g.intertwining.values()) == 0.0


def test_commuting_nilpotent_triple_dims(subspace_factory):
    sub = subspace_factory("commutative", d=6)
    rng = np.random.default_rng(3)
    mats = commuting_nilpotent_tuple(rng, 2, 0.6)
    cls, th, _, model, ops = _pipeline(mats, sub)
    assert (model.p, model.q, model.s, model.h) == (84, 168, 87, 3)
    assert model.h == mats[0].shape[0]
    assert model.tail_bound == 0.0  # nilpotent: the truncation is lossless
    assert model.isometry_residual < 1e-12
    assert max(ops.defining_residual) < 1e-12
    assert ops.injectivity_margin == pytest.approx(1.0, abs=1e-10)


def test_model_operators_inherit_the_relations(subspace_factory):
    sub = subspace_factory("commutative", d=5)
    rng = np.random.default_rng(41)
    mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    *_, ops = _pipeline(mats, sub)
    t1, t2 = ops.Tt
    assert opnorm(t1 @ t2 - t2 @ t1) < 1e-10
    assert validate(ops.Tt).is_row_contraction


# ---------------------------------------------------------------------------
# the shift reproduces itself


def test_shift_model_reproduces_the_shift(subspace_factory):
    sub = subspace_factory("commutative", d=4)
    b = constrained_creation_tuple(sub, "left")
    cls, th, k, model, ops = _pipeline(b, sub)
    assert model.p == model.h  # vanishing function: the model is all of N x D_T
    w = ops.basis[: model.p]
    assert opnorm(adj(w) @ w - np.eye(model.h)) < 1e-12
    for i in range(2):
        assert opnorm(ops.Tt[i] - adj(w) @ b[i] @ w) < 1e-12
    g = model_unitary(model, ops)
    assert g.unitary_residual < 1e-12
    assert max(g.intertwining.values()) < 1e-12


# ---------------------------------------------------------------------------
# branches, tilts, and the canonical identification


@pytest.fixture(scope="module")
def scalar_half_model(subspace_factory):
    sub = subspace_factory("zero", n=1, d=10)
    mats = [np.array([[0.5]])]
    return _pipeline(mats, sub) + (sub,)


def test_pure_branch_is_used_for_certified_pure_tuples(scalar_half_model):
    cls, *_, ops, _ = scalar_half_model
    assert cls.pure is TriState.YES
    assert ops.used == "pure"
    assert ops.pure is not None
    assert ops.branch_agreement is not None


def test_defining_residual_scales_with_the_subspace_tilt(scalar_half_model):
    # the least-squares residual of the defining relation reflects how far
    # the truncated model space tilts out of its ideal position: sqrt(tail),
    # not tail -- the recovered operator is still tail-accurate
    cls, th, k, model, ops, _ = scalar_half_model
    tilt = np.sqrt(model.tail_bound)
    assert 0 < max(ops.defining_residual) < 10 * tilt
    assert max(ops.branch_agreement) < 1e-8 + 10 * model.tail_bound
    assert ops.injectivity_margin > 0.99
    # and the operator itself is within tail of the original scalar
    assert abs(ops.Tt[0][0, 0] - 0.5) < 10 * model.tail_bound + 1e-12


def test_model_unitary_identifications(scalar_half_model):
    cls, th, k, model, ops, _ = scalar_half_model
    g = model_unitary(model, ops)
    tail = model.tail_bound
    assert g.unitary_residual < 1e-8 + 10 * tail
    assert g.embedding_residual < 1e-8 + 10 * tail
    assert g.norm_identity_residual < 1e-7 + 10 * tail
    assert g.projection_residual < 1e-7 + 10 * tail
    assert max(g.intertwining.values()) < 1e-8 + 10 * tail


def test_functions_on_different_subspaces_are_refused(subspace_factory):
    # ([0.5], [0]) satisfies both the commutative and the q-commutative
    # relations, and the two families cut out subspaces of one dimension, so
    # the two functions have matching shapes; only N tells them apart
    mats = [np.array([[0.5]]), np.array([[0.0]])]
    comm, qcomm = subspace_factory("commutative", d=4), subspace_factory("q_commutative", d=4)
    assert comm.dim_N == qcomm.dim_N
    th, th_q = theta_of(mats, comm), theta_of(mats, qcomm)
    assert th_q.matrix.shape == th.matrix.shape
    u = np.eye(1)
    with pytest.raises(ValueError, match="different subspaces"):
        coincidence_from_unitary(th, th_q, u)
    # an equal N basis built separately is the same subspace
    again = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 4))
    assert again is not comm
    assert coincidence_from_unitary(th, theta_of(mats, again), u).residual < 1e-12


def test_build_model_rejects_norm_preserving_tuples(subspace_factory):
    one = [np.array([[1.0]])]
    th = theta_of(one, subspace_factory("zero", n=1, d=6))
    with pytest.raises(ValueError, match="noncoisometric"):
        build_model(th, classification=classify(one))


# ---------------------------------------------------------------------------
# coincidence witnesses


@pytest.fixture(scope="module")
def conjugated_pair(subspace_factory):
    sub = subspace_factory("commutative", d=5)
    rng = np.random.default_rng(17)
    mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    u = haar_unitary(3, rng)
    return sub, mats, conjugated_tuple(mats, u), u


def test_witness_from_a_true_conjugation(conjugated_pair):
    sub, mats, mats_p, u = conjugated_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    assert wit.residual < 1e-12
    assert wit.conjugation_residual < 1e-12
    assert opnorm(adj(wit.tau) @ wit.tau - np.eye(wit.tau.shape[1])) < 1e-12
    assert opnorm(adj(wit.tau_star) @ wit.tau_star - np.eye(wit.tau_star.shape[1])) < 1e-12


def test_witness_rejects_non_unitaries(conjugated_pair):
    sub, mats, mats_p, _ = conjugated_pair
    with pytest.raises(ValueError, match="unitary"):
        coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), np.eye(3) * 1.5)


def test_witness_rejects_non_conjugating_unitaries(conjugated_pair):
    sub, mats, _, u = conjugated_pair
    rng = np.random.default_rng(99)
    other = commuting_nilpotent_tuple(rng, 2, 0.5)
    with pytest.raises(ValueError, match="not conjugated"):
        coincidence_from_unitary(theta_of(mats, sub), theta_of(other, sub), u)


# ---------------------------------------------------------------------------
# coincidence implies unitary equivalence, constructively


def test_full_equivalence_certificate(conjugated_pair):
    sub, mats, mats_p, u = conjugated_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    eq = verify_coincidence_implies_equivalence(wit)
    assert eq.equivalent
    assert eq.coincidence_residual < 1e-12
    assert eq.max_principal_angle < 1e-8
    assert eq.model_intertwining < 1e-8
    assert eq.recovered_unitarity < 1e-8
    assert eq.recovered_intertwining < 1e-8
    # the recovered unitary conjugates the tuples, like the witness's own
    v = eq.recovered_unitary
    assert max(opnorm(v @ t - tp @ v) for t, tp in zip(mats, mats_p)) < 1e-8


def test_equivalence_without_any_relations(subspace_factory):
    # the free case: same machinery with the empty relation family
    sub = subspace_factory("zero", d=6)
    rng = np.random.default_rng(57)
    mats = random_scalar_tuple(rng, 2, 0.04)
    u = haar_unitary(1, rng)
    mats_p = conjugated_tuple(mats, u)
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    eq = verify_coincidence_implies_equivalence(wit)
    assert eq.equivalent
    # scalars are irreducible, so the recovered unitary can only differ from
    # the witness by a global phase
    assert eq.phase_deviation < 1e-6


_CUBE_ROOT = np.exp(2j * np.pi / 3)


def _dense_tuple(family, rng):
    """A pure m = 3 pair in the family that is not nilpotent: its tail is > 0 at every d."""
    if family == "zero":
        return random_row_contraction(rng, 2, 3, 0.5)
    if family == "commutative":
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return scale_to_rho([a, a @ a + (0.3 + 0.2j) * a + 0.5 * np.eye(3)], 0.5)
    # the clock and shift matrices q-commute for q^3 = 1, and so does any similar pair
    s = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    clock, shift = np.diag([1, _CUBE_ROOT, _CUBE_ROOT**2]), np.roll(np.eye(3), 1, axis=0)
    return scale_to_rho([s @ clock @ np.linalg.inv(s), s @ shift @ np.linalg.inv(s)], 0.9)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("family", ["zero", "commutative", "q_commutative"])
def test_dense_conjugate_pairs_recover_the_unitary_exactly(family, d, subspace_factory):
    # Gamma* Gamma is I - tail on the pure branch and (I - tail)^2 on the
    # general one, not I: unnormalized, V is off unitary by about the tail
    rng = np.random.default_rng([d, len(family)])
    mats = _dense_tuple(family, rng)
    sub = subspace_factory(family, d=d, q=_CUBE_ROOT if family == "q_commutative" else None)
    u = haar_unitary(3, rng)
    mats_p = conjugated_tuple(mats, u)
    th = theta_of(mats, sub)
    assert th.tail_bound > 1e-5
    wit = coincidence_from_unitary(th, theta_of(mats_p, sub), u)
    for cls, cls_p in ((None, None), (classify(mats), classify(mats_p))):
        eq = verify_coincidence_implies_equivalence(
            wit, classification=cls, classification_p=cls_p
        )
        assert eq.equivalent
        assert eq.recovered_unitarity < 1e-13
        assert eq.recovered_intertwining < 1e-13
        assert opnorm(eq.recovered_unitary - u) < 1e-13


def test_a_scalar_with_the_largest_tail_recovers_the_identity(subspace_factory):
    # T = [0.5] at d = 0: the tail is 0.25, and Gamma is 0.75 = 1 - tail on
    # the general branch and sqrt(0.75) on the pure one
    th = theta_of([np.array([[0.5]])], subspace_factory("zero", n=1, d=0))
    assert th.tail_bound == 0.25
    wit = coincidence_from_unitary(th, th, np.eye(1))
    cls = classify([np.array([[0.5]])])
    for c, gamma in ((None, 0.75), (cls, np.sqrt(0.75))):
        eq = verify_coincidence_implies_equivalence(wit, classification=c, classification_p=c)
        assert eq.gamma.gamma[0, 0] == pytest.approx(gamma, abs=1e-15)
        assert eq.equivalent
        assert abs(eq.recovered_unitary[0, 0] - 1.0) < 1e-15


def test_gamma_residuals_serializable_types(conjugated_pair):
    sub, mats, _, _ = conjugated_pair
    cls, th, k, model, ops = _pipeline(mats, sub)
    g = model_unitary(model, ops)
    assert isinstance(g.unitary_residual, float)
    assert isinstance(g.norm_identity_residual, float)
    assert isinstance(g.projection_residual, float)
    assert set(g.intertwining) == {1, 2}


# ---------------------------------------------------------------------------
# everything spectral comes from one eigh of I - Theta Theta*; a full SVD of
# Theta, and the dense Phihat below, taken here, are the oracles


def _dense_phihat(model):
    """[Theta ; Delta] in full, with Delta = I - Z* Z and Z = D U* Theta from the model's eigen-data.

    The rows of Z are orthogonal with squared norms 1 - lambda_k, so Delta
    is (I - Theta*Theta)^(1/2) at rank s; the eigenvalues at or below the
    rank cut 1e-10 count as 0.
    """
    th = model.theta.matrix
    q = th.shape[1]
    lam = np.where(model.defect_star_eigvals > 1e-10, model.defect_star_eigvals, 0.0)
    z = (adj(model.defect_star_eigvecs) @ th) / np.sqrt(1.0 + np.sqrt(lam))[:, None]
    return np.vstack([th, np.eye(q) - adj(z) @ z])


def _dense_isometry_residual(model):
    """|Phihat* Phihat - I| from the q x q Gram of the dense Phihat."""
    phihat = _dense_phihat(model)
    return opnorm(adj(phihat) @ phihat - np.eye(phihat.shape[1]))


def _full_svd_model(theta):
    """The model bases of the full SVD Theta = U Sigma V*, in C^p (+) C^s coordinates.

    E spans the v_k with 1 - sigma_k^2 > 1e-10 (sigma_k = 0 past min(p, q));
    H is spanned by [sqrt(1 - sigma_k^2) u_k ; -sigma_k E* v_k] for those k
    below min(p, q) and by [u_k ; 0] for k >= q; the pure basis spans the u_k
    past the sigma_k^2 > (1 + tail)/2.  Returns (E, H, pure rows of C^p).
    """
    th = theta.matrix
    p, q = th.shape
    u, sigma, vh = np.linalg.svd(th, full_matrices=True)
    v = adj(vh)
    defect = np.ones(q)
    defect[: sigma.size] -= sigma**2
    e = v[:, defect > 1e-10]
    paired = np.flatnonzero(defect[: sigma.size] > 1e-10)
    tilted = np.vstack(
        [u[:, paired] * np.sqrt(defect[paired]), -(adj(e) @ v[:, paired]) * sigma[paired]]
    )
    cokernel = np.vstack([u[:, q:], np.zeros((e.shape[1], max(p - q, 0)))])
    big = int(np.count_nonzero(sigma**2 > 0.5 * (1.0 + theta.tail_bound)))
    return e, projector_basis(np.hstack([tilted, cokernel]), p), projector_basis(u[:, big:])


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_delta_squares_to_the_defect(case, subspace_factory):
    th = spectral_theta(case, subspace_factory)
    model = build_model(th)
    e, h_svd, _ = _full_svd_model(th)
    assert (model.s, model.h) == (e.shape[1], h_svd.shape[1])
    assert model.h == model.p + model.s - model.q
    g = adj(th.matrix) @ th.matrix
    eye_q = np.eye(model.q)
    delta = _dense_phihat(model)[model.p :]
    assert opnorm(delta @ delta - (eye_q - g)) < 1e-12
    assert opnorm(delta - adj(delta)) < 1e-12
    # Delta lives on the range the SVD sees, E E*
    assert opnorm(e @ adj(e) @ delta - delta) < 1e-12


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_closed_form_model_basis_is_the_complement_of_phihat(case, subspace_factory):
    th = spectral_theta(case, subspace_factory)
    model = build_model(th)
    p, q = model.p, model.q
    h, phihat = model.H_basis, _dense_phihat(model)
    assert h.shape == (p + q, model.h) and phihat.shape == (p + q, q)
    assert model.isometry_residual < 1e-12
    assert abs(model.isometry_residual - _dense_isometry_residual(model)) < 1e-13
    assert opnorm(adj(h) @ h - np.eye(model.h)) < 1e-12
    assert opnorm(adj(phihat) @ h) < 1e-12
    # together they fill C^p (+) ran Delta, ran Delta = ran E from the SVD
    e, _, _ = _full_svd_model(th)
    target = np.zeros((p + q, p + q), dtype=complex)
    target[:p, :p] = np.eye(p)
    target[p:, p:] = e @ adj(e)
    assert opnorm(h @ adj(h) + phihat @ adj(phihat) - target) < 1e-12


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_the_p_side_route_matches_the_full_svd_closed_form(case, subspace_factory):
    th = spectral_theta(case, subspace_factory)
    model = build_model(th)
    p = model.p
    e, h_svd, pure_svd = _full_svd_model(th)
    assert np.max(np.abs(model.H_basis[:p] - h_svd[:p]), initial=0.0) < 1e-13
    # below the shift rows, the C^q coordinates are E times the C^s ones
    assert np.max(np.abs(model.H_basis[p:] - e @ h_svd[p:]), initial=0.0) < 1e-13
    if th.tail_bound >= 0.5:
        assert model.H_pure_basis is None
        pure_svd = None
    else:
        assert np.max(np.abs(model.H_pure_basis[:p] - pure_svd), initial=0.0) < 1e-13
        pure_svd = np.vstack([pure_svd, np.zeros((e.shape[1], pure_svd.shape[1]))])
    if case == "tall":
        return  # a bare matrix has no shifts to compress
    ops = model_operators(model)
    old = model_operators(dataclasses.replace(model, H_basis=h_svd, H_pure_basis=pure_svd))
    for branch in ("general", "pure"):
        for a, b in zip(getattr(ops, branch) or [], getattr(old, branch) or []):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-13


@pytest.mark.parametrize(
    "matrix, dims",
    [
        (np.zeros((0, 3)), (0, 3, 3, 0)),
        (np.zeros((3, 0)), (3, 0, 0, 3)),
        (np.eye(3), (3, 3, 0, 0)),
        (np.array([[0.5, 0.1j], [0.0, 0.3], [0.2, 0.0], [0.1, 0.4]]), (4, 2, 2, 4)),
    ],
    ids=["0x3", "3x0", "identity", "4x2"],
)
def test_empty_and_degenerate_shapes(matrix, dims):
    th = synthetic_theta(matrix)
    model = build_model(th)
    p, q, s, h = dims
    assert (model.p, model.q, model.s, model.h) == dims
    e, h_svd, _ = _full_svd_model(th)
    assert (e.shape[1], h_svd.shape[1]) == (s, h)
    assert model.H_basis.shape == (p + q, h)
    phihat = _dense_phihat(model)
    assert phihat.shape == (p + q, q)
    assert model.isometry_residual < 1e-12
    assert abs(model.isometry_residual - _dense_isometry_residual(model)) < 1e-13
    assert opnorm(adj(model.H_basis) @ model.H_basis - np.eye(h)) < 1e-12
    assert opnorm(adj(phihat) @ model.H_basis) < 1e-12


@pytest.mark.parametrize("case", ["nilpotent", "dense", "tall"])
def test_pure_basis_spans_what_a_full_svd_of_theta_gives(case, subspace_factory):
    th = spectral_theta(case, subspace_factory)
    model = build_model(th)
    u, svals, _ = np.linalg.svd(th.matrix, full_matrices=True)
    big = int(np.count_nonzero(svals**2 > 0.5 * (1.0 + th.tail_bound)))
    pure = model.H_pure_basis
    assert pure.shape[1] == model.p - big
    assert not np.any(pure[model.p :])
    assert np.max(principal_angles(pure[: model.p], u[:, big:])) < 1e-10


def _isometry_case(n, subspace_factory):
    """Theta of a dense triple: p = q at n = 1, p < q at n = 2."""
    rng = np.random.default_rng(37)
    mats = random_row_contraction(rng, n, 3, 0.6)
    return theta_of(mats, subspace_factory("zero", n=n, d=6 // n))


@pytest.mark.parametrize("n", [1, 2])
def test_isometry_residual_on_ran_theta_star_is_the_dense_norm(n, subspace_factory):
    # Phihat* Phihat - I vanishes on ker Theta, so restricting it to the span
    # of a QR basis of Theta* keeps its norm exactly
    th = _isometry_case(n, subspace_factory)
    p, q = th.matrix.shape
    assert (p == q) if n == 1 else (p < q)
    model = build_model(th)
    assert abs(model.isometry_residual - _dense_isometry_residual(model)) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_isometry_residual_on_ran_theta_star_holds_for_any_eigen_data(n, subspace_factory):
    # with the eigenvalues moved by 1e-6, Phihat is no isometry; the residual
    # is large and the two routes still measure the same norm
    model = build_model(_isometry_case(n, subspace_factory))
    bent = dataclasses.replace(model, defect_star_eigvals=model.defect_star_eigvals + 1e-6)
    want = _dense_isometry_residual(bent)
    assert want > 1e-7
    assert abs(bent.isometry_residual - want) <= 1e-9 * want


@pytest.mark.parametrize("gap, s", [(1e-9, 2), (5e-11, 1)])
def test_defect_rank_warns_in_the_ambiguous_band(gap, s):
    th = synthetic_theta(np.diag([np.sqrt(1.0 - gap), 0.5]))
    with pytest.warns(NumericalRankWarning):
        model = build_model(th)
    assert model.s == s  # the cutoff 1e-10 still decides
    assert model.h == s


def test_build_model_refuses_a_non_contractive_function():
    with pytest.raises(ValueError, match="not PSD"):
        build_model(synthetic_theta(np.diag([1.01, 0.5])))


# ---------------------------------------------------------------------------
# the reported operators are a function of Theta


def _perturbation_case(case, subspace_factory):
    if case == "zero-nil-seed-11":
        # the tuple of the free-spectral benchmark's model-zero-nil-n2-d6 command at seed 11
        rng = np.random.default_rng([zlib.crc32(b"free-spectral"), 11])
        return commuting_nilpotent_tuple(rng, 2, 0.5), subspace_factory("zero", d=6)
    rng = np.random.default_rng(41)
    if case == "q-commuting":
        q = 0.5j
        return q_commuting_nilpotent_tuple(rng, q, 0.5), subspace_factory("q_commutative", q=q)
    return random_row_contraction(rng, 2, 3, 0.4), subspace_factory("zero", d=5)


@pytest.mark.parametrize("case", ["zero-nil-seed-11", "q-commuting", "dense"])
def test_model_operators_move_with_theta_at_rounding_level(case, subspace_factory):
    mats, sub = _perturbation_case(case, subspace_factory)
    cls = classify(mats)
    th = theta_of(mats, sub)
    parts = np.random.default_rng(5).normal(size=(2, *th.matrix.shape))
    noise = parts[0] + 1j * parts[1]
    bent = dataclasses.replace(th, matrix=th.matrix + 1e-14 * noise / opnorm(noise))
    ops, moved = (
        model_operators(build_model(f, classification=cls), classification=cls) for f in (th, bent)
    )
    assert ops.pure is not None and ops.used == "pure"
    for branch in ("general", "pure"):
        for a, b in zip(getattr(ops, branch), getattr(moved, branch)):
            assert np.abs(a - b).max() <= 1e-10


# ---------------------------------------------------------------------------
# decomposition sizes: nothing of size q x q, and p-sized work only


@pytest.fixture(scope="module")
def zero_family_pair(subspace_factory):
    """A conjugated pair of nilpotent triples on the zero family at (2, 6): p = 381, q = 762."""
    sub = subspace_factory("zero", d=6)
    rng = np.random.default_rng(23)
    mats = commuting_nilpotent_tuple(rng, 2, 0.5)
    u = haar_unitary(3, rng)
    return sub, mats, conjugated_tuple(mats, u), u


def test_build_model_takes_one_eigh_of_size_p(zero_family_pair, monkeypatch):
    sub, mats, _, _ = zero_family_pair
    th = theta_of(mats, sub)
    p, q = th.matrix.shape
    assert (p, q) == (381, 762)
    seen = record_decompositions(monkeypatch)
    tracemalloc.start()
    try:
        model = build_model(th)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # besides the eigh, only projector_basis's QRs of h x h pivot rows
    assert [call for call in seen if call[0] != "qr"] == [("eigh", (p, p))]
    assert all(max(shape) <= 3 for name, shape in seen if name == "qr")
    assert peak < q * q * 16  # no q x q complex array was allocated
    assert (model.s, model.h) == (384, 3)
    # reading the isometry residual: one QR of Theta*, then p x p work
    built = len(seen)
    tracemalloc.start()
    try:
        assert model.isometry_residual < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen[built:] == [("qr", (q, p)), ("eigvalsh", (p, p))]
    assert peak < q * q * 16


def test_the_equivalence_certificate_takes_no_q_side_work(zero_family_pair, monkeypatch):
    sub, mats, mats_p, u = zero_family_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    p, q = wit.theta.matrix.shape
    seen = record_decompositions(monkeypatch)
    tracemalloc.start()
    try:
        eq = verify_coincidence_implies_equivalence(wit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eq.equivalent
    assert seen.count(("eigh", (p, p))) == 2
    assert all(min(shape) < p for name, shape in seen if shape != (p, p))
    assert peak < q * q * 16
