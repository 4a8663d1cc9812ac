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
    ORACLE_FAMILIES,
    ORACLE_SIZES,
    SPECTRAL_CASES,
    adj,
    make_spec,
    opnorm,
    oracle_family,
    oracle_tuple,
    record_decompositions,
    spectral_theta,
    synthetic_theta,
    theta_of,
)
from fockmodel import (
    PolyIdealSpec,
    TriState,
    TruncatedFockSpace,
    build_model,
    coincidence_from_unitary,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    constraint_residual,
    delta_and_classify,
    ideal_subspace,
    spectral_radius_of_phi,
    validate,
    verify_coincidence_implies_equivalence,
)
from fockmodel import charfn
from fockmodel.charfn import coincidence_residual
from fockmodel.model import _CONJUGATION_TOL
from fockmodel.linalg import (
    NumericalRankWarning,
    principal_angles,
    projector_basis,
    psd_spectrum,
)
from fockmodel.sampling import (
    commuting_diagonalizable_tuple,
    commuting_nilpotent_tuple,
    conjugated_tuple,
    direct_sum,
    haar_unitary,
    q_commuting_nilpotent_tuple,
    q_commuting_shift_tuple,
    random_row_contraction,
    random_scalar_tuple,
    scale_to_rho,
)


def _pipeline(mats, sub):
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    model = build_model(th)
    return k.classification, th, k, model, model.operators


def _slow(n):
    """A summand on C^1 whose purity the iteration leaves undetermined: (0.99, 0, ..., 0).

    Phi^k(I) is 0.9801^k on it, still far above 1e-9 and not yet stationary
    after the 500 steps classify takes, so a tuple with it gets the general
    operator branch.  It satisfies every relation family of these tests.
    """
    return [np.array([[0.99]])] + [np.zeros((1, 1))] * (n - 1)


def _certify(wit):
    """The certificate of a witness, from the models of its two functions."""
    return verify_coincidence_implies_equivalence(wit, build_model(wit.theta), build_model(wit.theta_p))


# ---------------------------------------------------------------------------
# dimensions


def test_unilateral_shift_model_is_one_dimensional(subspace_factory):
    sub = subspace_factory("zero", n=1, d=6)
    cls, _, k, model, ops = _pipeline([np.array([[0.0]])], sub)
    assert (model.p, model.q, model.s, model.h) == (7, 7, 1, 1)
    assert model.theta.isometry_residual == 0.0
    assert ops.Tt[0].shape == (1, 1)
    assert abs(ops.Tt[0][0, 0]) < 1e-14
    assert ops.injectivity_margin == pytest.approx(1.0)
    assert max(ops.defining_residual) == 0.0
    g = model.gamma
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
    assert model.theta.isometry_residual < 1e-12
    assert max(ops.defining_residual) < 1e-12
    assert ops.injectivity_margin == pytest.approx(1.0, abs=1e-10)


def test_general_operators_match_one_solve_per_generator(subspace_factory):
    # one least-squares factorization of the shift summand h1 serves every
    # generator: each solution, residual and the margin match their own solve
    sub = subspace_factory("commutative", d=5)
    mats = commuting_nilpotent_tuple(np.random.default_rng(43), 2, 0.7)
    model = build_model(theta_of(mats, sub))
    ops, h1 = model.operators, model.H_basis[: model.p]
    assert ops.injectivity_margin == pytest.approx(np.linalg.svd(h1, compute_uv=False)[-1], abs=1e-14)
    for s_i, general, defining in zip(constrained_creation_tuple(sub, "left"), ops.general,
                                      ops.defining_residual):
        rhs = np.kron(adj(s_i), np.eye(model.theta.d_T)) @ h1
        x = np.linalg.lstsq(h1, rhs, rcond=None)[0]
        assert opnorm(general - adj(x)) < 1e-14
        assert defining == pytest.approx(opnorm(h1 @ x - rhs), abs=1e-14)
    # a model basis column with no shift part makes h1 singular: refused
    degenerate = model.H_basis.copy()
    degenerate[:, 0] = 0.0
    degenerate[model.p, 0] = 1.0
    with pytest.raises(ValueError, match="projects degenerately"):
        dataclasses.replace(model, H_basis=degenerate).operators


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
    g = model.gamma
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
    g = model.gamma
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


def test_the_model_stages_are_built_once_and_read_each_other(scalar_half_model):
    cls, th, k, model, ops, sub = scalar_half_model
    assert model.classification is cls and k.classification is cls
    assert model.operators is ops and model.operators is model.operators
    assert model.gamma is model.gamma
    # Gamma is written in the basis of the operators' branch
    assert ops.used == "pure"
    assert np.array_equal(model.gamma.gamma, adj(ops.basis[: model.p]) @ k.matrix)
    # a tuple whose purity stays undetermined gets the general branch, and
    # Gamma follows it; J-fa-F then allows ten tails
    general = build_model(theta_of(_slow(1), sub))
    assert general.classification.pure is TriState.UNDETERMINED
    assert general.operators.used == "general" and general.operators.basis is general.H_basis
    kernel = general.theta.kernel
    assert np.array_equal(general.gamma.gamma, adj(general.H_basis[: general.p]) @ kernel.matrix)
    assert general.theta.checks[0][2] == 1e-9 + 10 * general.tail_bound
    assert theta_of(k.mats, sub).checks[0][2] == 1e-9  # certified pure


def test_build_model_rejects_norm_preserving_tuples(subspace_factory):
    one = [np.array([[1.0]])]
    th = theta_of(one, subspace_factory("zero", n=1, d=6))
    assert th.kernel.classification.cnc is TriState.NO
    with pytest.raises(ValueError, match="noncoisometric"):
        build_model(th)


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
    # the witness measures the same deviation itself
    want = max(opnorm(adj(t) @ t - np.eye(t.shape[1])) for t in (wit.tau, wit.tau_star))
    assert wit.tau_unitary_residual == pytest.approx(want, abs=1e-15)


def test_the_certificate_refuses_models_of_other_functions(conjugated_pair):
    sub, mats, mats_p, u = conjugated_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    model, model_p = build_model(wit.theta), build_model(wit.theta_p)
    # an equal function built a second time is still another function
    again = build_model(theta_of(mats, sub))
    assert np.array_equal(again.theta.matrix, wit.theta.matrix)
    for pair in ((again, model_p), (model, build_model(theta_of(mats_p, sub))), (model_p, model)):
        with pytest.raises(ValueError, match="witness's characteristic functions"):
            verify_coincidence_implies_equivalence(wit, *pair)
    assert verify_coincidence_implies_equivalence(wit, model, model_p).equivalent


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


@pytest.mark.parametrize("shift", [5e-11, 2e-10])
def test_the_witness_refuses_where_the_conjugation_check_would_fail(shift, subspace_factory):
    # T'_1 moved by shift I, so the conjugation residual is shift up to rounding
    sub = subspace_factory("zero", d=3)
    rng = np.random.default_rng(23)
    mats = random_row_contraction(rng, 2, 3, 0.5)
    u = haar_unitary(3, rng)
    mats_p = conjugated_tuple(mats, u)
    mats_p[0] = mats_p[0] + shift * np.eye(3)
    th, th_p = theta_of(mats, sub), theta_of(mats_p, sub)
    if shift > _CONJUGATION_TOL:
        with pytest.raises(ValueError, match="not conjugated"):
            coincidence_from_unitary(th, th_p, u)
        return
    wit = coincidence_from_unitary(th, th_p, u)
    assert _certify(wit).checks[0] == ("conjugation", wit.conjugation_residual, _CONJUGATION_TOL)
    assert wit.conjugation_residual == pytest.approx(shift, rel=1e-3)


def test_the_certificate_is_the_conjunction_of_its_checks(conjugated_pair, monkeypatch):
    sub, mats, mats_p, u = conjugated_pair
    th, th_p = theta_of(mats, sub), theta_of(mats_p, sub)
    eq = _certify(coincidence_from_unitary(th, th_p, u))
    assert [name for name, _, _ in eq.checks] == [
        "conjugation",
        "tau-unitary",
        "com",
        "subspace-angle",
        "model-intertwine",
        "recovered-unitary",
        "recovered-intertwine",
    ]
    assert eq.equivalent and all(r <= t for _, r, t in eq.checks)
    # com at 5e-9 fails its check (1e-9), and only that check
    monkeypatch.setattr("fockmodel.model.coincidence_residual", lambda *args: 5e-9)
    eq = _certify(coincidence_from_unitary(th, th_p, u))
    assert [name for name, r, t in eq.checks if r > t] == ["com"]
    assert not eq.equivalent


def _dense_coincidence_residual(theta, theta_p, tau, tau_star):
    """|(I (x) tau) Theta - Theta' (I (x) tau_star)|_F from the two matrices and np.kron."""
    eye = np.eye(theta.sub.dim_N)
    return float(np.linalg.norm(np.kron(eye, tau) @ theta.matrix - theta_p.matrix @ np.kron(eye, tau_star)))


def _placed_blocks(space, blocks):
    """The whole-space multi-analytic matrix with ``blocks[alpha]`` at (gamma alpha, gamma), word by word."""
    _, r, c = blocks.shape
    out = np.zeros((space.dim, r, space.dim, c), dtype=complex)
    for gamma in map(space.word, range(space.dim)):
        for i in range(space.dim_up_to(space.d - len(gamma))):
            out[space.index(gamma + space.word(i)), :, space.index(gamma)] = blocks[i]
    return out.reshape(space.dim * r, space.dim * c)


@pytest.mark.parametrize("n, d", [(2, 6), (3, 4), (1, 7), (2, 0), (2, 8)])
def test_com_on_the_whole_space_is_the_weighted_sum_of_block_norms(n, d, subspace_factory):
    # |D|_F^2 = sum_alpha dim_(<= d - |alpha|) |delta_alpha|_F^2: on random
    # blocks, against the Frobenius norm of the matrix with every block placed
    # at (gamma alpha, gamma) one word at a time, and against the contraction
    # of the blocks that relation families take
    rng = np.random.default_rng([n, d, 37])
    sub = subspace_factory("zero", n=n, d=d)
    th = theta_of(random_row_contraction(rng, n, 3, 0.8), sub)
    shape = th.blocks.shape
    theta, theta_p = (dataclasses.replace(th, blocks=rng.normal(size=shape) + 1j * rng.normal(size=shape))
                      for _ in range(2))
    got = coincidence_residual(theta, theta_p, np.eye(th.d_T), np.eye(th.d_star))
    delta = theta.blocks - theta_p.blocks
    want = np.linalg.norm(_placed_blocks(sub.space, delta))
    assert abs(got - want) <= 1e-14 * want
    assert abs(got - np.linalg.norm(charfn._theta_n(sub, delta))) <= 1e-14 * want


@pytest.mark.parametrize("kind", ["nilpotent", "dense", "jordan-pair", "coisometry"])
def test_the_zero_family_com_is_the_dense_norm(kind, subspace_factory):
    # on the whole space com is |D|_F, the weighted sum of the norms of the
    # Fourier blocks of D; against the Frobenius norm of the formed p x q
    # difference it agrees to a relative 1e-12 of the operands' scale, for a
    # conjugate pair (rounding-level com) and for two unrelated tuples (com of
    # order 1), with two letters and with three
    for n, d in [(2, 5), (3, 3)]:
        _check_the_zero_family_com(kind, n, d, subspace_factory("zero", n=n, d=d))


def _check_the_zero_family_com(kind, n, d, sub):
    rng = np.random.default_rng(67)
    if kind == "jordan-pair":
        mats = [np.eye(3, k=1, dtype=complex)] + [np.zeros((3, 3), dtype=complex)] * (n - 1)
    elif kind == "nilpotent":
        mats = commuting_nilpotent_tuple(rng, n, 0.6)
    elif kind == "coisometry":  # sum T_i T_i* = I: d_T = 0, so p = 0
        rows = haar_unitary(3 * n, rng)[:3]
        mats = [rows[:, 3 * i : 3 * (i + 1)] for i in range(n)]
    else:
        mats = random_row_contraction(rng, n, 3, 0.8)
    u = haar_unitary(3, rng)
    th, th_p = theta_of(mats, sub), theta_of(conjugated_tuple(mats, u), sub)
    wit = coincidence_from_unitary(th, th_p, u)
    want = _dense_coincidence_residual(th, th_p, wit.tau, wit.tau_star)
    if kind == "coisometry":
        assert th.d_T == 0 and wit.residual == want == 0.0
        return
    assert wit.residual < 1e-13 and want < 1e-13
    assert abs(wit.residual - want) <= 1e-12 * opnorm(th.matrix)
    if kind == "jordan-pair":  # d_T = 1: a turned Jordan pair, which tau = I does not undo
        other = theta_of(conjugated_tuple(mats, haar_unitary(3, rng)), sub)
    else:
        other = theta_of(random_row_contraction(rng, n, 3, 0.8), sub)
    assert (other.d_T, other.d_star) == (th.d_T, th.d_star)
    tau, tau_star = np.eye(th.d_T), np.eye(th.d_star)
    got = coincidence_residual(th, other, tau, tau_star)
    want = _dense_coincidence_residual(th, other, tau, tau_star)
    assert want > 0.1
    assert abs(got - want) <= 1e-12 * want


def test_a_wrong_tau_reads_far_above_the_com_tolerance(subspace_factory):
    # a conjugate pair at zero (2, 6) with tau turned by another unitary: the
    # spectral norm of D reads about 2 and |D|_F, which counts every copy of
    # each block, 20-30, both against the 1e-9 of com
    rng = np.random.default_rng(0)
    sub = subspace_factory("zero", d=6)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    u = haar_unitary(3, rng)
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(conjugated_tuple(mats, u), sub), u)
    assert wit.residual < 1e-13
    wrong = haar_unitary(wit.tau.shape[0], rng) @ wit.tau
    got = coincidence_residual(wit.theta, wit.theta_p, wrong, wit.tau_star)
    assert got > 10.0
    assert abs(got - _dense_coincidence_residual(wit.theta, wit.theta_p, wrong, wit.tau_star)) <= 1e-12 * got
    eye = np.eye(sub.dim_N)
    formed = np.kron(eye, wrong) @ wit.theta.matrix - wit.theta_p.matrix @ np.kron(eye, wit.tau_star)
    assert got > 10.0 * opnorm(formed)


def test_com_of_a_relation_family_is_the_formed_difference(space_factory):
    # N is not the whole space: com contracts the one difference of Fourier
    # blocks to N; against the difference of the two formed matrices, by
    # np.kron, it is rounding-level for a conjugate pair, and agrees to a
    # relative 1e-12 for two distinct tuples with tau and tau_star the
    # identity, on every relation family at two and three letters
    for family in ORACLE_FAMILIES:
        if oracle_family(family, 2, 5).kind != "zero":  # "zero-sum" has no relations either
            for n, d in [(2, 5), (3, 3)]:
                _check_relation_family_com(family, n, d, space_factory(n, d))


def _check_relation_family_com(family, n, d, space):
    case = f"{family} at (n, d) = ({n}, {d})"
    sub = ideal_subspace(oracle_family(family, n, d), space)
    assert not sub.is_whole_space, case
    rng = np.random.default_rng([n, d])
    mats = oracle_tuple(family, n, rng)
    u = haar_unitary(mats[0].shape[0], rng)
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(conjugated_tuple(mats, u), sub), u)
    want = _dense_coincidence_residual(wit.theta, wit.theta_p, wit.tau, wit.tau_star)
    assert wit.residual < 1e-13 and want < 1e-13, (case, wit.residual, want)
    other = oracle_tuple(family, n, np.random.default_rng([n, d, 1]))
    if all(np.array_equal(t, o) for t, o in zip(mats, other)):
        assert family == "custom-constant-term", case  # one tuple: only its pair runs
        return
    th, th_o = wit.theta, theta_of(other, sub)
    assert (th_o.d_T, th_o.d_star) == (th.d_T, th.d_star), case
    tau, tau_star = np.eye(th.d_T), np.eye(th.d_star)
    got = coincidence_residual(th, th_o, tau, tau_star)
    want = _dense_coincidence_residual(th, th_o, tau, tau_star)
    assert want > 0.1, (case, want)
    assert abs(got - want) <= 1e-12 * want, (case, got, want)


@pytest.mark.parametrize(
    "family", [f for f in ORACLE_FAMILIES if oracle_family(f, 2, 5).kind != "zero"]
)
def test_a_wrong_tau_on_a_relation_family_reads_above_the_spectral_norm(family, space_factory):
    # a conjugate pair on N with tau turned by another unitary: com is the
    # Frobenius norm of the contracted D, its square the trace of D D*, never
    # below the spectral norm of the formed difference and far above 1e-9
    sub = ideal_subspace(oracle_family(family, 2, 5), space_factory(2, 5))
    rng = np.random.default_rng([2, 5, 41])
    mats = oracle_tuple(family, 2, rng)
    u = haar_unitary(mats[0].shape[0], rng)
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(conjugated_tuple(mats, u), sub), u)
    assert wit.residual < 1e-13
    wrong = haar_unitary(wit.tau.shape[0], rng) @ wit.tau
    got = coincidence_residual(wit.theta, wit.theta_p, wrong, wit.tau_star)
    eye = np.eye(sub.dim_N)
    formed = np.kron(eye, wrong) @ wit.theta.matrix - wit.theta_p.matrix @ np.kron(eye, wit.tau_star)
    assert abs(got**2 - np.trace(formed @ adj(formed)).real) <= 1e-12 * got**2
    assert got >= opnorm(formed) * (1.0 - 1e-12)
    assert got > 1.0


# ---------------------------------------------------------------------------
# coincidence implies unitary equivalence, constructively


def test_full_equivalence_certificate(conjugated_pair):
    sub, mats, mats_p, u = conjugated_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    eq = _certify(wit)
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
    eq = _certify(wit)
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
    # general one, not I: unnormalized, V is off unitary by about the tail.
    # The pure tuple takes the pure branch; with the slow summand added,
    # conjugated by u (+) 1, the general one
    rng = np.random.default_rng([d, len(family)])
    mats = _dense_tuple(family, rng)
    sub = subspace_factory(family, d=d, q=_CUBE_ROOT if family == "q_commutative" else None)
    u = haar_unitary(3, rng)
    for tup, w, used in ((mats, u, "pure"),
                         (direct_sum(mats, _slow(2)), direct_sum([u], [np.eye(1)])[0], "general")):
        th = theta_of(tup, sub)
        assert th.tail_bound > 1e-5
        eq = _certify(coincidence_from_unitary(th, theta_of(conjugated_tuple(tup, w), sub), w))
        assert build_model(th).operators.used == used
        assert eq.equivalent
        assert eq.recovered_unitarity < 1e-13
        assert eq.recovered_intertwining < 1e-13
        assert opnorm(eq.recovered_unitary - w) < 1e-13


def test_a_scalar_with_the_largest_tail_recovers_the_identity(subspace_factory):
    # T = [r] at d = 0: the tail is r^2, and Gamma is sqrt(1 - tail) on the
    # pure branch, which r = 0.5 takes, and 1 - tail on the general one,
    # which r = 0.99 takes since its purity stays undetermined
    for mats, gamma in (([np.array([[0.5]])], np.sqrt(0.75)), (_slow(1), 1.0 - 0.99**2)):
        th = theta_of(mats, subspace_factory("zero", n=1, d=0))
        assert th.tail_bound == mats[0][0, 0] ** 2
        eq = _certify(coincidence_from_unitary(th, th, np.eye(1)))
        assert eq.gamma.gamma[0, 0] == pytest.approx(gamma, abs=1e-15)
        assert eq.equivalent
        assert abs(eq.recovered_unitary[0, 0] - 1.0) < 1e-15


@pytest.mark.parametrize("case", ["scalar-half", "commuting-nilpotent", "zero-dense"])
def test_the_pure_branch_reads_the_embedding_residual_off_the_projection(
    case, subspace_factory, monkeypatch
):
    # the pure basis is 0 below p, so (K h, 0) sticks out of the model space
    # exactly as far as its projection misses K: no (p + q) x m stack is
    # formed; the general branch, which the tuple takes with the slow summand
    # added, still stacks the two parts
    rng = np.random.default_rng(19)
    if case == "scalar-half":
        mats, sub = [np.array([[0.5]])], subspace_factory("zero", n=1, d=10)
    elif case == "commuting-nilpotent":
        mats, sub = commuting_nilpotent_tuple(rng, 2, 0.6), subspace_factory("commutative", d=5)
    else:
        mats, sub = random_row_contraction(rng, 2, 3, 0.4), subspace_factory("zero", d=5)
    stacked = []
    vstack = np.vstack
    monkeypatch.setattr(np, "vstack", lambda parts: stacked.append(vstack(parts)) or stacked[-1])
    for tup, used in ((mats, "pure"), (direct_sum(mats, _slow(len(mats))), "general")):
        model = build_model(theta_of(tup, sub))
        ops = model.operators
        assert ops.used == used
        stacked.clear()
        g = model.gamma
        m = tup[0].shape[0]
        tall = [a for a in stacked if a.shape == (model.p + model.q, m)]
        if used == "pure":
            assert tall == []
            assert g.embedding_residual is g.projection_residual
            # the stack it replaces, the projection padded with q zero rows, by the SVD oracle
            projection = ops.basis[: model.p] @ g.gamma - model.theta.kernel.matrix
            padded = vstack([projection, np.zeros((model.q, m))])
            assert g.embedding_residual == pytest.approx(opnorm(padded), rel=1e-12, abs=1e-300)
        else:
            assert len(tall) == 1
            assert g.embedding_residual == pytest.approx(opnorm(tall[0]), rel=1e-12, abs=1e-300)


def test_gamma_residuals_serializable_types(conjugated_pair):
    sub, mats, _, _ = conjugated_pair
    cls, th, k, model, ops = _pipeline(mats, sub)
    g = model.gamma
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
    is (I - Theta*Theta)^(1/2) at rank s.  D is 1 off the kept eigenpairs
    (lambda_h, U_h), so Z* Z = Theta* Theta + (U_h* Theta)* E (U_h* Theta)
    with E = D_h^2 - I, the p x h form the model keeps.
    """
    th = model.theta.matrix
    q = th.shape[1]
    spectrum = model.theta.spectrum
    e = 1.0 / (1.0 + np.sqrt(spectrum.kept)) - 1.0
    z = adj(spectrum.eigvecs) @ th
    return np.vstack([th, np.eye(q) - adj(th) @ th - adj(z) @ (e[:, None] * z)])


def _dense_isometry_residual(model, ord="fro"):
    """|Phihat* Phihat - I|_F from the q x q Gram of the dense Phihat (``ord=2``: spectral)."""
    phihat = _dense_phihat(model)
    return np.linalg.norm(adj(phihat) @ phihat - np.eye(phihat.shape[1]), ord)


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


def _spectral_model(case, subspace_factory):
    """Theta of a spectral case and its model, None for the unitary.

    The unitary (p = q = 0) keeps its vector's norm, so it is not c.n.c.
    and build_model refuses it; a row co-isometry has no model.
    """
    th = spectral_theta(case, subspace_factory)
    if case != "unitary":
        return th, build_model(th)
    with pytest.raises(ValueError, match="not completely noncoisometric"):
        build_model(th)
    return th, None


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_delta_squares_to_the_defect(case, subspace_factory):
    th, model = _spectral_model(case, subspace_factory)
    if model is None:
        return
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
    th, model = _spectral_model(case, subspace_factory)
    if model is None:
        return
    p, q = model.p, model.q
    h, phihat = model.H_basis, _dense_phihat(model)
    assert h.shape == (p + q, model.h) and phihat.shape == (p + q, q)
    assert model.theta.isometry_residual < 1e-12
    assert abs(model.theta.isometry_residual - _dense_isometry_residual(model)) < 1e-13
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
    th, model = _spectral_model(case, subspace_factory)
    if model is None:
        return
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
    ops = model.operators
    old = dataclasses.replace(model, H_basis=h_svd, H_pure_basis=pure_svd).operators
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
    assert model.theta.isometry_residual < 1e-12
    assert abs(model.theta.isometry_residual - _dense_isometry_residual(model)) < 1e-13
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


def _bent(model, bend):
    """The model on a copy of its function whose record has every eigenvalue moved by ``bend``.

    The model reads only the h kept ones, the last h of the record's
    eigenvalues, so exactly those move.
    """
    spectrum = model.theta.spectrum
    theta = dataclasses.replace(model.theta)
    theta.spectrum = dataclasses.replace(spectrum, eigvals=spectrum.eigvals + bend)
    return dataclasses.replace(model, theta=theta)


def _isometry_case(n, subspace_factory):
    """Theta of a dense triple: p = q at n = 1, p < q at n = 2."""
    rng = np.random.default_rng(37)
    mats = random_row_contraction(rng, n, 3, 0.6)
    return theta_of(mats, subspace_factory("zero", n=n, d=6 // n))


def _exact_isometry_residual(theta):
    """|Phihat* Phihat - I|_F = sqrt(tr((Y A)^2)), from the function's record, p x p work.

    With M = I + P E P* over the kept eigenpairs (lambda_h, P) of the record
    (E = D_h^2 - I, D = diag(1 / sqrt(1 + sqrt(lambda)))) and A = Theta Theta*,
    Phihat* Phihat - I = Theta* Y Theta with Y = I - 2M + M A M, whose
    Frobenius norm squared is tr((Y A)^2) exactly.  With Q = A P,
    Y = A - I + P E Q* + Q E P* + P (E (P* Q) E - 2E) P*.  This is the
    oracle of the isometry-F bound the record carries.
    """
    spectrum = theta.spectrum
    a = charfn.theta_gram(theta)
    p_h = spectrum.eigvecs
    e = np.diag(1.0 / (1.0 + np.sqrt(spectrum.kept)) - 1.0)
    q_h = a @ p_h
    low_rank = np.hstack([p_h, q_h])
    core = np.block([[e @ (adj(p_h) @ q_h) @ e - 2.0 * e, e], [e, np.zeros_like(e)]])
    y = (low_rank @ core) @ adj(low_rank)
    y += a
    y.flat[:: y.shape[0] + 1] -= 1.0
    ya = y @ a
    return float(np.sqrt(max(np.einsum("ij,ji->", ya, ya).real, 0.0)))


@pytest.mark.parametrize("n", [1, 2])
def test_isometry_residual_on_ran_theta_star_is_the_dense_norm(n, subspace_factory):
    # Phihat* Phihat - I = Theta* Y Theta lives on ran Theta*, and
    # tr((Y A)^2) is its Frobenius norm squared exactly, which bounds the
    # spectral norm
    th = _isometry_case(n, subspace_factory)
    p, q = th.matrix.shape
    assert (p == q) if n == 1 else (p < q)
    model = build_model(th)
    exact = _exact_isometry_residual(model.theta)
    assert abs(exact - _dense_isometry_residual(model)) < 1e-13
    assert exact >= _dense_isometry_residual(model, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_isometry_residual_on_ran_theta_star_holds_for_any_eigen_data(n, subspace_factory):
    # with the h kept eigenvalues moved by 1e-3, Phihat is no isometry; the
    # residual is large and the two routes still measure the same norm.  The
    # reported bound is a field of the record, so bending it moves nothing
    model = build_model(_isometry_case(n, subspace_factory))
    bent = _bent(model, 1e-3)
    want = _dense_isometry_residual(bent)
    exact = _exact_isometry_residual(bent.theta)
    assert want > 1e-7
    assert abs(exact - want) <= 1e-9 * want
    assert exact >= _dense_isometry_residual(bent, 2)
    assert bent.theta.isometry_residual == model.theta.isometry_residual


def _qr_isometry_residual(model):
    """|Phihat* Phihat - I|_F on ran Theta*, from one QR Theta* = Q B.

    R = Phihat* Phihat - I vanishes on ker Theta, so |Q* R Q|_F = |R|_F, and
    with G = B B* + C E C*, C = B U_h and E = D_h^2 - I over the h kept
    eigenpairs, Q* R Q = B B* + (I - G)^2 - I (Q is never formed).
    """
    b = np.linalg.qr(model.theta.matrix.T, mode="r").conj()
    spectrum = model.theta.spectrum
    c = b @ spectrum.eigvecs
    e = 1.0 / (1.0 + np.sqrt(spectrum.kept)) - 1.0
    bb = b @ adj(b)
    eye_minus_g = np.eye(bb.shape[0]) - bb - (c * e) @ adj(c)
    return np.linalg.norm(bb + eye_minus_g @ eye_minus_g - np.eye(bb.shape[0]))


def _oracle_isometry_case(case, subspace_factory):
    """The zero family at n = 1 (p = q) and n = 2 (p < q), and a commutative scalar pair."""
    if case == "commutative":  # not nilpotent, so Theta* moves the kept eigenvectors
        mats = random_scalar_tuple(np.random.default_rng(37), 2, 0.6)
        return theta_of(mats, subspace_factory("commutative", d=5))
    return _isometry_case(int(case[-1]), subspace_factory)


@pytest.mark.parametrize("bend", [0.0, 1e-3])
@pytest.mark.parametrize("case", ["zero-n1", "zero-n2", "commutative"])
def test_isometry_residual_is_the_qr_route(case, bend, subspace_factory):
    # tr((Y A)^2) against the QR of Theta*: rounding-level on the model's
    # own eigen-data, and a relative 1e-9 with the h kept eigenvalues moved
    # by 1e-3, where Phihat is no isometry
    model = build_model(_oracle_isometry_case(case, subspace_factory))
    assert model.theta.sub.is_whole_space == (case != "commutative")
    model = _bent(model, bend)
    want = _qr_isometry_residual(model)
    exact = _exact_isometry_residual(model.theta)
    if bend:
        assert want > 1e-7
        assert abs(exact - want) <= 1e-9 * want
    else:
        assert max(model.theta.isometry_residual, exact, want) < 1e-12
        assert abs(exact - want) < 1e-13


@pytest.mark.parametrize("n, d", ORACLE_SIZES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_isometry_residual_is_at_most_the_eigen_data_gap(family, n, d, space_factory):
    # with M = I + P E P* and G' = I - A - P diag(lambda) P*, pure algebra
    # gives Y = -M G' M for any kept eigen-data (lambda, P), and |M| <= 1,
    # |Theta| <= 1, so isometry-F = |Theta* Y Theta|_F <= |G'|_F; asserted
    # with the record bent by 1e-3.  On the Gram route P diag(lambda) P* is
    # K K*, so on the record itself |G'|_F is J-fa-F's |I - A - K K*|_F
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    model = build_model(theta_of(oracle_tuple(family, n, np.random.default_rng([n, d])), sub))
    th = model.theta.matrix
    a = th @ adj(th)

    def eigen_data_gap(theta):
        p_h, kept = theta.spectrum.eigvecs, theta.spectrum.kept
        return np.linalg.norm(np.eye(a.shape[0]) - a - (p_h * kept) @ adj(p_h))

    bent = _bent(model, 1e-3).theta
    assert _exact_isometry_residual(bent) <= eigen_data_gap(bent)
    if model.theta.spectrum.gap <= 1e-12:
        assert abs(eigen_data_gap(model.theta) - model.theta.spectrum.gap) <= 1e-14


def _isometry_bound_cases():
    """(id, theta factory) over the oracle families and sizes and the bare test matrices."""
    cases = []
    for family in ORACLE_FAMILIES:
        for n, d in ORACLE_SIZES:
            def make(space_factory, subspace_factory, family=family, n=n, d=d):
                sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
                return theta_of(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
            cases.append((f"{family}-n{n}-d{d}", make))
    bare = {"0x3": np.zeros((0, 3)), "3x0": np.zeros((3, 0)), "identity": np.eye(3),
            "4x2": np.array([[0.5, 0.1j], [0.0, 0.3], [0.2, 0.0], [0.1, 0.4]])}
    for name, matrix in bare.items():
        cases.append((f"bare-{name}", lambda *_, matrix=matrix: synthetic_theta(matrix)))
    cases.append(("bare-tall", lambda _, subspaces: spectral_theta("tall", subspaces)))
    return cases


_ISOMETRY_BOUND_CASES = _isometry_bound_cases()


@pytest.mark.parametrize("case", _ISOMETRY_BOUND_CASES, ids=[c[0] for c in _ISOMETRY_BOUND_CASES])
def test_isometry_f_is_an_upper_bound_within_twice_the_exact_norm(case, space_factory,
                                                                 subspace_factory):
    # isometry-F reports the record's bound on |Phihat* Phihat - I|_F: never
    # below the exact tr((Y A)^2) norm, up to a rounding allowance of
    # 4 eps m (m the kernel's columns) stated here, and within twice it plus
    # 1e-15.  On a bare p > q matrix the bound also reads the eigen-data on
    # the p - q directions of ker Theta*, which Theta* Y Theta cannot see, so
    # only the lower bound holds there; no characteristic function has p > q
    _, make = case
    theta = make(space_factory, subspace_factory)
    reported, exact = theta.isometry_residual, _exact_isometry_residual(theta)
    p, q = theta.shape
    assert reported >= exact - 4 * np.finfo(float).eps * theta.kernel.matrix.shape[1]
    if p <= q:
        assert reported <= 2 * exact + 1e-15


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
    th = theta_of(mats, sub)
    parts = np.random.default_rng(5).normal(size=(2, *th.blocks.shape))
    noise = parts[0] + 1j * parts[1]
    bent = dataclasses.replace(th, blocks=th.blocks + 1e-14 * noise / np.linalg.norm(noise))
    ops, moved = (build_model(f).operators for f in (th, bent))
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


def test_build_model_decomposes_nothing_larger_than_m(zero_family_pair, monkeypatch):
    sub, mats, _, _ = zero_family_pair
    th = theta_of(mats, sub)
    p, q = th.shape
    m = mats[0].shape[0]
    assert (p, q, m) == (381, 762, 3)
    seen = record_decompositions(monkeypatch)
    tracemalloc.start()
    try:
        model = build_model(th)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Gram route: one eigh of K*K, then projector_basis's QRs of h x h pivot rows
    assert [call for call in seen if call[0] != "qr"] == [("eigh", (m, m))]
    assert all(max(shape) <= m for name, shape in seen)
    assert peak < q * q * 16  # no q x q complex array was allocated
    assert (model.s, model.h) == (384, 3)
    assert th.spectrum.eigvecs.shape == (p, model.h)
    assert th.spectrum.kept.shape == (model.h,)
    # reading the isometry residual: a field of the record the model was
    # built from, so no decomposition and no p-sized array
    built = len(seen)
    tracemalloc.start()
    try:
        assert model.theta.isometry_residual < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen[built:] == []
    assert peak < 16 * p


def test_delta_and_classify_decomposes_nothing_larger_than_m(zero_family_pair, monkeypatch):
    sub, mats, _, _ = zero_family_pair
    th = theta_of(mats, sub)
    seen = record_decompositions(monkeypatch)
    dc = delta_and_classify(th)
    assert seen == [("eigh", (3, 3))]
    assert dc.sigma_squared.shape == (381,)


_BUDGET_CASES = {
    "zero-n2-d6": ("zero", (2, 6), lambda rng: random_row_contraction(rng, 2, 3, 0.9)),
    "commutative-n2-d7": ("commutative", (2, 7), lambda rng: commuting_nilpotent_tuple(rng, 2, 0.5)),
    "custom-constant-term-n2-d5": (
        "custom-constant-term", (2, 5), lambda rng: oracle_tuple("custom-constant-term", 2, rng)),
}


@pytest.mark.parametrize("case", _BUDGET_CASES.values(), ids=_BUDGET_CASES.keys())
def test_every_reader_of_the_spectrum_shares_one_decomposition(case, space_factory, monkeypatch):
    # the verdicts, J-fa-F, the model and its isometry residual read the
    # function's one record: on the Gram route one eigh of size m and
    # nothing of size p, on the dense route one eigh of size p and no
    # eigvalsh of that size
    family, (n, d), make = case
    mats = make(np.random.default_rng(7))
    th = theta_of(mats, ideal_subspace(oracle_family(family, n, d), space_factory(n, d)))
    p, m = th.shape[0], mats[0].shape[0]
    seen = record_decompositions(monkeypatch)
    delta_and_classify(th)
    gap = th.spectrum.gap
    model = build_model(th)
    assert model.theta.isometry_residual >= 0.0
    delta_and_classify(th)
    decompositions = [call for call in seen if call[0] != "qr"]  # projector_basis: h x h pivots
    if family == "custom-constant-term":
        assert gap > 1e-12
        assert decompositions == [("eigh", (p, p))]
    else:
        assert gap <= 1e-12
        assert decompositions == [("eigh", (m, m))]
    assert all(max(shape) < p for name, shape in seen if name == "qr")


def test_the_equivalence_certificate_takes_no_q_side_work(zero_family_pair, monkeypatch):
    sub, mats, mats_p, u = zero_family_pair
    wit = coincidence_from_unitary(theta_of(mats, sub), theta_of(mats_p, sub), u)
    p, q = wit.theta.matrix.shape
    seen = record_decompositions(monkeypatch)
    tracemalloc.start()
    try:  # both models and the certificate, which builds none of its own
        eq = _certify(wit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eq.equivalent
    # each model takes one eigh of the m x m Gram K*K, and nothing sees p on both sides
    assert seen.count(("eigh", (3, 3))) >= 2
    assert all(min(shape) < p for name, shape in seen)
    assert peak < q * q * 16


# ---------------------------------------------------------------------------
# the m x m Gram route of defect_star_spectrum against the dense p x p route


def _dense_route(theta):
    """Verdicts, model bases and isometry residual by the dense p x p route.

    One ``eigvalsh`` of I - Theta Theta*, formed from the dense Theta, gives
    sigma^2 and the verdicts, one ``eigh`` the model bases, and Delta is
    formed in full from all p eigenpairs, whose Phihat gives the isometry
    residual (Frobenius norm).
    """
    th = theta.matrix
    p, q = th.shape
    defect = np.eye(p) - th @ adj(th)
    sq = np.clip(1.0 - np.linalg.eigvalsh(defect)[: min(p, q)], 0.0, None)
    residual = float(np.max(np.abs(sq * sq - sq))) if sq.size else 0.0
    deficiency = p - int(np.count_nonzero(sq > 1e-8))
    verdicts = (bool(residual < 1e-8 + theta.tail_bound), deficiency == 0, deficiency)

    lam, u = np.linalg.eigh(defect)
    lam, kept_u, kept = psd_spectrum(lam, u)
    h_basis = projector_basis(np.vstack([kept_u * np.sqrt(kept), -adj(adj(kept_u) @ th)]), p)
    h_pure = None
    if theta.tail_bound < 0.5:
        pure_cols = projector_basis(u[:, lam >= 0.5 * (1.0 - theta.tail_bound)])
        h_pure = np.vstack([pure_cols, np.zeros((q, pure_cols.shape[1]), dtype=complex)])

    z = (adj(u) @ th) / np.sqrt(1.0 + np.sqrt(np.where(lam > 1e-10, lam, 0.0)))[:, None]
    phihat = np.vstack([th, np.eye(q) - adj(z) @ z])
    isometry = np.linalg.norm(adj(phihat) @ phihat - np.eye(q))
    return sq, verdicts, h_basis, h_pure, isometry


def _assert_the_record_is_the_dense_spectrum(theta):
    """The function's record against I - Theta Theta* formed and decomposed here.

    The eigenvalues agree to 1e-12, the eigenvectors are orthonormal, and
    U diag(kept) U* is I - Theta Theta* up to the eigenvalues below the rank
    cut, which are rounding-level on every case.
    """
    th, spectrum = theta.matrix, theta.spectrum
    defect = np.eye(th.shape[0]) - th @ adj(th)
    u, kept = spectrum.eigvecs, spectrum.kept
    assert np.max(np.abs(spectrum.eigvals - np.linalg.eigvalsh(defect)), initial=0.0) <= 1e-12
    assert opnorm(adj(u) @ u - np.eye(u.shape[1])) <= 1e-12
    assert opnorm((u * kept) @ adj(u) - defect) <= 1e-12


def _dense_graded_tuple(family, n, rng):
    """A dense tuple (tail > 0) satisfying the relations of a graded family.

    The zero family takes a generic triple; the others T_i = c_i E_ii on
    C^(n + 1), |c_i|^2 = 0.95, whose products of two different letters vanish.
    """
    if family == "zero":
        return random_row_contraction(rng, n, 3, 0.9)
    phases = np.exp(2j * np.pi * rng.random(n))
    return [np.sqrt(0.95) * c * np.diag(np.eye(n + 1)[i]) for i, c in enumerate(phases)]


def _gram_route_cases():
    """(id, tuple, family spec, space) over the graded oracle families and sizes."""
    cases = []
    for family in ORACLE_FAMILIES:
        if family == "custom-constant-term":
            continue
        for n, d in ORACLE_SIZES:
            spec = oracle_family(family, n, d)
            for kind in ("nilpotent", "dense"):
                rng = np.random.default_rng(3)
                if kind == "dense":
                    mats = _dense_graded_tuple(family, n, rng)
                elif family == "zero":
                    mats = commuting_nilpotent_tuple(rng, n, 0.6)
                else:
                    mats = oracle_tuple(family, n, rng)
                if constraint_residual(mats, spec) <= 1e-10:  # T_i = c_i E_ii needs n >= 2 here
                    cases.append((f"{family}-{kind}-n{n}-d{d}", mats, spec, (n, d)))
    rng = np.random.default_rng(5)
    cases += [
        # tail 0.2 and above with a generic dense tuple
        ("zero-dense-rho0.999-n2-d3", random_row_contraction(rng, 2, 4, 0.999), None, (2, 3)),
        # co-isometric: d_T = 0, so p = 0
        ("co-isometric-n2-d3", [np.array([[0.6]]), np.array([[0.8j]])], None, (2, 3)),
        # E_12 with row norm 1: d_T = 1, so p = 1 < m = 2 at degree 0
        ("p-below-m-n1-d0", [np.array([[0.0, 1.0], [0.0, 0.0]])], None, (1, 0)),
    ]
    return cases


_GRAM_CASES = _gram_route_cases()


@pytest.mark.parametrize("case", _GRAM_CASES, ids=[c[0] for c in _GRAM_CASES])
def test_the_gram_route_matches_the_dense_route(case, space_factory):
    name, mats, spec, (n, d) = case
    sub = ideal_subspace(spec or oracle_family("zero", n, d), space_factory(n, d))
    th = theta_of(mats, sub)
    p, m = th.matrix.shape[0], mats[0].shape[0]
    spectrum = th.spectrum
    assert spectrum.gap <= 1e-12
    if name.startswith("co-isometric"):
        assert p == 0
    if name.startswith("p-below-m"):
        assert p < m
    if "rho0.999" in name:
        assert th.tail_bound >= 0.2
    sq, verdicts, h_basis, h_pure, isometry = _dense_route(th)
    dc = delta_and_classify(th)
    assert np.max(np.abs(dc.sigma_squared - sq), initial=0.0) <= 1e-12
    assert (dc.inner, dc.outer, dc.rank_deficiency) == verdicts
    _assert_the_record_is_the_dense_spectrum(th)
    if name.startswith("co-isometric"):  # Phi(I) = I: not c.n.c., so no model
        with pytest.raises(ValueError, match="not completely noncoisometric"):
            build_model(th)
        return
    model = build_model(th)
    assert spectrum.eigvecs.shape == (p, model.h)
    assert model.H_basis.shape == h_basis.shape
    assert np.max(np.abs(model.H_basis - h_basis), initial=0.0) <= 1e-13
    assert (model.H_pure_basis is None) == (h_pure is None)
    if h_pure is not None:
        assert model.H_pure_basis.shape == h_pure.shape
        assert np.max(np.abs(model.H_pure_basis - h_pure), initial=0.0) <= 1e-13
    assert abs(model.theta.isometry_residual - isometry) <= 1e-13


def _fallback_cases():
    cases = []
    for n, d in ORACLE_SIZES:
        if d == 0:
            continue  # no relation fits below the degree cap: N is the whole space
        mats = oracle_tuple("custom-constant-term", n, np.random.default_rng(3))
        cases.append((f"custom-constant-term-n{n}-d{d}", mats, (n, d)))
    return cases + [("tall", None, None)]


_FALLBACK_CASES = _fallback_cases()


@pytest.mark.parametrize("case", _FALLBACK_CASES, ids=[c[0] for c in _FALLBACK_CASES])
def test_the_dense_fallback_is_the_dense_route(case, space_factory, subspace_factory):
    # where the factorization fails, the route is the dense one: one eigh of
    # Theta Theta*, against the oracle's own I - Theta Theta* to rounding
    name, mats, size = case
    if mats is None:
        th = spectral_theta(name, subspace_factory)
    else:
        n, d = size
        spec = oracle_family("custom-constant-term", n, d)
        th = theta_of(mats, ideal_subspace(spec, space_factory(n, d)))
    assert th.spectrum.gap > 1e-12
    _assert_the_record_is_the_dense_spectrum(th)
    sq, verdicts, h_basis, h_pure, isometry = _dense_route(th)
    dc = delta_and_classify(th)
    assert np.max(np.abs(dc.sigma_squared - sq), initial=0.0) <= 1e-12
    assert (dc.inner, dc.outer, dc.rank_deficiency) == verdicts
    model = build_model(th)
    assert model.H_basis.shape == h_basis.shape
    assert np.max(np.abs(model.H_basis - h_basis), initial=0.0) <= 1e-13
    assert (model.H_pure_basis is None) == (h_pure is None)
    if h_pure is not None:
        assert model.H_pure_basis.shape == h_pure.shape
        assert np.max(np.abs(model.H_pure_basis - h_pure), initial=0.0) <= 1e-13
    # Delta is now formed from the h kept eigenpairs, not all p
    assert abs(model.theta.isometry_residual - isometry) <= 1e-13


def test_the_zero_tuple_model_basis_has_an_exactly_real_diagonal(subspace_factory):
    # projector_basis turns each column by diag(R) / |diag(R)|, which is
    # exactly -1 at a negative real pivot (exp(i angle) gave -1 + 1.2e-16j)
    th = theta_of([np.zeros((2, 2)), np.zeros((2, 2))], subspace_factory("zero", d=2))
    assert th.spectrum.gap <= 1e-12  # the Gram route
    pure = build_model(th).H_pure_basis
    diagonal = np.diagonal(pure)
    assert diagonal.size and np.all(diagonal.imag == 0.0)
    assert np.all(np.abs(diagonal.real) == 1.0)


@pytest.mark.parametrize("q", [0.5j, -1])
@pytest.mark.parametrize("n, d", [(2, 6), (2, 8)])
def test_a_q_commuting_tuple_that_is_not_nilpotent_passes_every_check(n, d, q):
    # T_1 = c diag(q^j) on C^8 never vanishes, so the tail Phi^(d+1)(I) is
    # real, at least (rho / 2)^(d+1); every identity still holds within the
    # tolerance it cites, and a conjugate pair is certified equivalent
    rng = np.random.default_rng(11)
    mats = q_commuting_shift_tuple(rng, 8, q, 0.7)
    spec = PolyIdealSpec(n=n, kind="q_commutative", q=q)
    assert constraint_residual(mats, spec) <= 1e-15
    sub = ideal_subspace(spec, TruncatedFockSpace(n, d))

    def stages(tup):
        theta = theta_of(tup, sub)
        return theta.kernel.classification, theta, build_model(theta)

    cls, theta, model = stages(mats)
    assert cls.pure is TriState.YES
    assert theta.tail_bound > 1e-8 and theta.tail_bound >= 0.35 ** (d + 1)
    checks = theta.checks + model.checks
    assert [name for name, _, _ in checks][:4] == ["J-fa-F", "K*K", "series-agree", "coinvariance"]
    assert [name for name, residual, tolerance in checks if not residual <= tolerance] == []
    u = haar_unitary(8, rng)
    _, theta_b, model_b = stages(conjugated_tuple(mats, u))
    witness = coincidence_from_unitary(theta, theta_b, u)
    assert verify_coincidence_implies_equivalence(witness, model, model_b).equivalent


@pytest.mark.parametrize("n, d, m", [(2, 6, 4), (2, 5, 6), (3, 4, 4)])
def test_a_commuting_diagonalizable_tuple_passes_every_check(n, d, m):
    # T_i = S D_i S^(-1) commute to rounding and none is nilpotent, so the
    # tail is never zero; the model has h = m, and a conjugate pair is
    # certified equivalent
    rng = np.random.default_rng(3)
    mats = commuting_diagonalizable_tuple(rng, n, m, 0.7)
    spec = PolyIdealSpec(n=n, kind="commutative")
    assert constraint_residual(mats, spec) <= 1e-15
    assert spectral_radius_of_phi(mats) == pytest.approx(0.7, rel=1e-14)
    sub = ideal_subspace(spec, TruncatedFockSpace(n, d))
    cls, theta = _stages(mats, sub)
    model = build_model(theta)
    assert cls.pure is TriState.YES and theta.tail_bound > 1e-8
    assert model.h == m
    checks = theta.checks + model.checks
    assert [name for name, residual, tolerance in checks if not residual <= tolerance] == []
    u = haar_unitary(m, rng)
    _, theta_b = _stages(conjugated_tuple(mats, u), sub)
    model_b = build_model(theta_b)
    witness = coincidence_from_unitary(theta, theta_b, u)
    assert verify_coincidence_implies_equivalence(witness, model, model_b).equivalent


# ---------------------------------------------------------------------------
# direct sums: every invariant of T (+) T' is known from the parts


def _sum_parts(case):
    """(spec, d, sampler of one part by size, the two part sizes)."""
    if case == "zero":
        return PolyIdealSpec(n=2), 6, lambda rng, m: random_row_contraction(rng, 2, m, 0.6), (3, 4)
    if case == "q-shift":
        spec = PolyIdealSpec(n=2, kind="q_commutative", q=-1)
        return spec, 6, lambda rng, m: q_commuting_shift_tuple(rng, m, -1, 0.7), (5, 6)
    spec = PolyIdealSpec(n=3, kind="commutative")
    return spec, 5, lambda rng, m: commuting_nilpotent_tuple(rng, 3, 0.6), (3, 3)


def _stages(mats, sub):
    theta = theta_of(mats, sub)
    return theta.kernel.classification, theta


@pytest.mark.parametrize("case", ["zero", "q-shift", "commutative"])
def test_a_direct_sum_has_the_invariants_of_its_parts(case):
    spec, d, sample, (m1, m2) = _sum_parts(case)
    sub = ideal_subspace(spec, TruncatedFockSpace(spec.n, d))
    rng = np.random.default_rng(7)
    t1, t2 = sample(rng, m1), sample(rng, m2)
    parts = [_stages(t, sub) for t in (t1, t2)]
    cls, theta = _stages(direct_sum(t1, t2), sub)
    assert constraint_residual(direct_sum(t1, t2), spec) <= 1e-15

    # each word's singular values are the sorted union of the parts' (zeros padded)
    got = np.linalg.svd(theta.fourier_blocks, compute_uv=False)
    union = np.concatenate([np.linalg.svd(th.fourier_blocks, compute_uv=False) for _, th in parts], 1)
    union = np.pad(-np.sort(-union, axis=1), [(0, 0), (0, got.shape[1] - union.shape[1])])
    assert np.abs(got - union).max() <= 1e-14

    # the defects and the model space add up, and the tail is the larger one
    assert (theta.d_T, theta.d_star) == tuple(sum(dims) for dims in
                                              zip(*((th.d_T, th.d_star) for _, th in parts)))
    models = [build_model(th) for _, th in parts]
    model = build_model(theta)
    assert model.h == models[0].h + models[1].h == m1 + m2
    tails = [th.tail_bound for _, th in parts]
    assert abs(theta.tail_bound - max(tails)) <= 1e-14 * max(tails)

    # the swap carries T (+) T' onto T' (+) T: certified, every check at rounding
    swap = np.eye(m1 + m2)[np.r_[m1 : m1 + m2, 0:m1]]
    _, theta_b = _stages(direct_sum(t2, t1), sub)
    witness = coincidence_from_unitary(theta, theta_b, swap)
    report = verify_coincidence_implies_equivalence(witness, model, build_model(theta_b))
    assert report.equivalent
    assert max(residual for _, residual, _ in report.checks) <= 1e-13

    # negative control: T (+) T against T (+) T'', parts of one size, fails the screen
    t3 = t2 if m1 == m2 else sample(rng, m1)
    _, theta_tt = _stages(direct_sum(t1, t1), sub)
    _, theta_t3 = _stages(direct_sum(t1, t3), sub)
    assert charfn.coincidence_necessary_mismatch(theta_tt, theta_t3) > charfn._FOURIER_SCREEN_TOL


def test_a_row_coisometric_summand_admits_no_model(subspace_factory):
    # (0.6, 0.8) on C^1 has 0.36 + 0.64 = 1: its vector keeps its norm under
    # every Phi^k(I), so the sum is neither pure nor c.n.c.
    sub = subspace_factory("zero", n=2, d=5)
    mats = direct_sum(random_row_contraction(np.random.default_rng(7), 2, 3, 0.6),
                      [np.array([[0.6]]), np.array([[0.8]])])
    cls, theta = _stages(mats, sub)
    assert (cls.pure, cls.cnc) == (TriState.NO, TriState.NO)
    with pytest.raises(ValueError, match="not completely noncoisometric"):
        build_model(theta)
