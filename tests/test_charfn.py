"""Characteristic functions: Fourier data, factorization, inner/outer tests.

Scalar oracle (worked by hand, n = 1, T = [a], |a| < 1): the function is the
Moebius map (z - a)/(1 - conj(a) z), whose coefficients are

    theta_()     = -a
    theta_(1^k)  = (1 - |a|^2) * conj(a)^(k-1),   k >= 1.

With a = 1/2 the first few are -0.5, 0.75, 0.375, 0.1875, ...
The free function is the function on the zero family, where N is the whole
space.
"""

import dataclasses

import numpy as np
import pytest

from conftest import Q_TEST, SPECTRAL_CASES, adj, make_spec, opnorm, spectral_theta, theta_of
from fockmodel import (
    TruncatedFockSpace,
    classify,
    coincidence_necessary_mismatch,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    PolyIdealSpec,
    constraint_residual,
    delta_and_classify,
    evaluate,
    factorization_defect,
    fourier_block,
    fourier_sum,
    ideal_subspace,
    right_creation_tuple,
    truncation_tail,
)
from fockmodel import charfn
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    nilpotent_pair_tuple,
    q_commuting_nilpotent_tuple,
    random_row_contraction,
    random_scalar_tuple,
)

PAIR = [np.array([[0.5]]), np.array([[0.5]])]


@pytest.fixture(scope="module")
def mobius_half(subspace_factory):
    free = subspace_factory("zero", n=1, d=10)
    return theta_of([np.array([[0.5]])], free)


# ---------------------------------------------------------------------------
# Fourier coefficients


def test_mobius_blocks_frozen(mobius_half):
    assert fourier_block(mobius_half, ())[0, 0] == pytest.approx(-0.5, abs=1e-14)
    assert fourier_block(mobius_half, (1,))[0, 0] == pytest.approx(0.75, abs=1e-14)
    assert fourier_block(mobius_half, (1, 1))[0, 0] == pytest.approx(0.375, abs=1e-14)
    assert fourier_block(mobius_half, (1, 1, 1))[0, 0] == pytest.approx(0.1875, abs=1e-14)


def test_mobius_blocks_follow_the_geometric_law(mobius_half):
    a = 0.5
    for k in range(1, 11):
        want = (1 - a**2) * a ** (k - 1)
        got = fourier_block(mobius_half, (1,) * k)[0, 0]
        assert abs(got - want) < 1e-13


def test_unilateral_shift_blocks(subspace_factory):
    free = subspace_factory("zero", n=1, d=6)
    cf = theta_of([np.array([[0.0]])], free)
    assert fourier_block(cf, ())[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert fourier_block(cf, (1,))[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert fourier_block(cf, (1, 1))[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_zero_pair_blocks_are_coordinate_functionals(subspace_factory):
    cf = theta_of([np.zeros((1, 1))] * 2, subspace_factory("zero", d=4))
    assert (cf.d_T, cf.d_star) == (1, 2)
    assert opnorm(fourier_block(cf, ())) < 1e-14
    b = np.vstack([fourier_block(cf, (1,)), fourier_block(cf, (2,))])
    # the two degree-one blocks assemble to a unitary of the adjoint defect
    assert opnorm(adj(b) @ b - np.eye(2)) < 1e-12
    for w in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert opnorm(fourier_block(cf, w)) < 1e-14


@pytest.mark.parametrize(
    "n, d, kind",
    [(2, 5, "nilpotent"), (2, 5, "dense"), (3, 3, "dense"), (2, 0, "dense")],
)
def test_blocks_match_the_dense_series_on_the_zero_family(n, d, kind):
    # On the zero family N is the whole space, so the closed form at the full
    # right shifts (a nilpotent point) is the dense function on all words.
    rng = np.random.default_rng(53)
    if kind == "nilpotent":
        mats = commuting_nilpotent_tuple(rng, n, 0.7)
    else:
        mats = random_row_contraction(rng, n, 3, 0.7)
    sub = ideal_subspace(make_spec("zero", n=n), TruncatedFockSpace(n, d))
    th = theta_of(mats, sub)
    assert (th.tail_bound == 0.0) == (kind == "nilpotent")
    series = evaluate(mats, right_creation_tuple(sub.space), sub.spec)
    assert np.max(np.abs(th.matrix - series)) < 1e-13
    vacuum_column = series[:, : th.d_star].reshape(sub.space.dim, th.d_T, th.d_star)
    assert np.max(np.abs(th.fourier_blocks - vacuum_column)) < 1e-13


def test_block_count(mobius_half):
    # one word block per side for each of the 11 words, all of them in N
    assert mobius_half.sub.dim_N == 11
    assert mobius_half.matrix.shape == (11, 11)


# ---------------------------------------------------------------------------
# evaluation at points of the variety V_(J~)


def scalar_point(*z):
    return [np.array([[zi]], dtype=complex) for zi in z]


@pytest.mark.parametrize("a", [0.5, 0.37 + 0.21j])
@pytest.mark.parametrize("z", [0.3, -0.62, 0.5j, 0.21 - 0.4j])
def test_eval_reproduces_the_mobius_map(a, z):
    ts = [np.array([[a]])]
    got = evaluate(ts, scalar_point(z), PolyIdealSpec(n=1))[0, 0]
    want = (z - a) / (1 - np.conj(a) * z)
    assert abs(got - want) < 1e-12


def test_eval_rejects_noncommuting_tuples():
    rng = np.random.default_rng(5)
    bad = [m / 4 for m in (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]
    with pytest.raises(ValueError, match="tuple violates"):
        evaluate(bad, scalar_point(0.1, 0.2), make_spec("commutative"))


def test_partial_sum_approximates_eval_within_geometric_tail(subspace_factory):
    d = 6
    rng = np.random.default_rng(77)
    mats = [np.diag([0.5, 0.1]).astype(complex), np.diag([0.2, 0.6]).astype(complex)]
    mats = [m * (0.8 / opnorm(np.hstack(mats)) ** 2) ** 0.5 for m in mats]
    cf = theta_of(mats, subspace_factory("zero", d=d))
    for _ in range(8):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z *= rng.uniform(0.1, 0.7) / np.linalg.norm(z)
        r = np.linalg.norm(z)
        bound = 2 * r ** (d + 1) / (1 - r)
        point = scalar_point(*z)
        diff = opnorm(fourier_sum(cf, point) - evaluate(mats, point, make_spec("commutative")))
        assert diff <= bound


def nilpotent_point(kind, k, rng):
    """A jointly nilpotent k x k point of V_(J~), outside the unit ball."""
    if k == 2:
        return nilpotent_pair_tuple(rng, 2, 4.0)  # every product of two letters vanishes
    if kind == "zero":
        return [np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 1) for _ in range(2)]
    if kind == "commutative":
        return commuting_nilpotent_tuple(rng, 2, 4.0)
    return q_commuting_nilpotent_tuple(rng, 1 / Q_TEST, 4.0)  # J~ is q^-1-commutation


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["zero", "commutative", "q_commutative"])
def test_evaluate_is_the_fourier_sum_at_nilpotent_points(kind, k, subspace_factory):
    # products of k <= d + 1 letters vanish, so the Fourier sum is exact
    rng = np.random.default_rng(83)
    sub = subspace_factory(kind, d=4)
    if kind == "zero":
        mats = random_row_contraction(rng, 2, 3, 0.8)
    elif kind == "commutative":
        mats = [np.diag([0.5, 0.1, -0.3j]).astype(complex), np.diag([0.2, 0.6j, 0.4])]
    else:
        mats = q_commuting_nilpotent_tuple(rng, Q_TEST, 0.7)
    th = theta_of(mats, sub)
    point = nilpotent_point(kind, k, rng)
    assert opnorm(np.hstack(point)) > 1.0
    got = evaluate(mats, point, sub.spec)
    assert got.shape == (k * th.d_T, k * th.d_star)
    assert opnorm(got - fourier_sum(th, point)) < 1e-13


def test_compressed_right_shifts_lie_on_the_reversed_variety(subspace_factory):
    # theta_alpha pairs with the reversed word, so the right shifts on N
    # satisfy the transposed relations, not the relations themselves
    sub = subspace_factory("q_commutative", d=5)
    shifts = constrained_creation_tuple(sub, "right")
    assert constraint_residual(shifts, sub.spec) > 0.1
    assert constraint_residual([b.T for b in shifts], sub.spec) < 1e-12
    mats = q_commuting_nilpotent_tuple(np.random.default_rng(89), Q_TEST, 0.7)
    th = theta_of(mats, sub)
    assert opnorm(evaluate(mats, shifts, sub.spec) - th.matrix) < 1e-10


def test_evaluate_is_contractive_on_the_ball():
    rng = np.random.default_rng(97)
    dense = random_row_contraction(rng, 2, 3, 0.8)
    diagonal = [np.diag([0.5, 0.1]).astype(complex), np.diag([0.2, 0.6]).astype(complex)]
    q_mats = q_commuting_nilpotent_tuple(rng, Q_TEST, 0.7)
    worst = 0.0
    for j in range(200):
        r = rng.uniform(0.05, 0.99)
        if j % 4 < 2:  # any 2 x 2 point lies on the free variety
            mats, spec = dense, make_spec("zero")
            point = random_row_contraction(rng, 2, 2, r**2)
        elif j % 4 == 2:
            mats, spec = diagonal, make_spec("commutative")
            point = random_scalar_tuple(rng, 2, r**2)
        else:
            mats, spec = q_mats, make_spec("q_commutative")
            point = q_commuting_nilpotent_tuple(rng, 1 / Q_TEST, r**2)
        worst = max(worst, opnorm(evaluate(mats, point, spec)))
    assert worst <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "point, kind, needle",
    [
        # a q-commuting point lies on V_J, not on V_(J~)
        (q_commuting_nilpotent_tuple(np.random.default_rng(7), Q_TEST, 0.5), "q_commutative",
         "transposed point violates"),
        (scalar_point(0.8, 0.7), "zero", "not jointly nilpotent"),
        ([np.eye(2) * 0.1, np.eye(3) * 0.1], "zero", "k x k"),
        (scalar_point(0.1), "zero", "k x k"),
        ([np.zeros((2, 3))] * 2, "zero", "k x k"),
    ],
    ids=["off-the-variety", "outside-the-ball", "mixed-sizes", "too-few", "not-square"],
)
def test_evaluate_refuses_points_it_cannot_take(point, kind, needle):
    mats = q_commuting_nilpotent_tuple(np.random.default_rng(11), Q_TEST, 0.7)
    with pytest.raises(ValueError, match=needle):
        evaluate(mats, point, make_spec(kind))


# ---------------------------------------------------------------------------
# factorization of the identity


def test_factorization_scalar_pair_commutative():
    space = TruncatedFockSpace(2, 6)
    sub = ideal_subspace(make_spec("commutative"), space)
    k = constrained_poisson_kernel(PAIR, sub)
    th = constrained_characteristic_function(k)
    assert factorization_defect(th) < 1e-9


def test_factorization_commuting_matrix_pair_high_degree():
    mats = [np.diag([0.6, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
    scale = (0.8**0.5) / opnorm(np.hstack(mats))
    mats = [scale * m for m in mats]
    assert classify(mats).pure.value == "yes"
    space = TruncatedFockSpace(2, 8)
    sub = ideal_subspace(make_spec("commutative"), space)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    assert factorization_defect(th) < 1e-9


def test_factorization_q_nilpotent_exact():
    rng = np.random.default_rng(13)
    mats = q_commuting_nilpotent_tuple(rng, Q_TEST, 0.75)
    space = TruncatedFockSpace(2, 4)
    sub = ideal_subspace(make_spec("q_commutative"), space)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    assert th.tail_bound == 0.0
    assert factorization_defect(th) < 1e-9


def test_complementary_projections_on_the_model_side():
    space = TruncatedFockSpace(2, 6)
    sub = ideal_subspace(make_spec("commutative"), space)
    k = constrained_poisson_kernel(PAIR, sub)
    th = constrained_characteristic_function(k)
    p_th = th.matrix @ adj(th.matrix)
    p_k = k.matrix @ adj(k.matrix)
    eye = np.eye(p_th.shape[0])
    # the sum is the identity to rounding; each summand is idempotent only up
    # to the truncation tail (they fail to be projections individually by
    # exactly the amount the tail steals)
    assert opnorm(eye - p_th - p_k) < 1e-9
    tail = th.tail_bound
    assert opnorm(p_th @ p_th - p_th) <= tail + 1e-10
    assert opnorm(p_k @ p_k - p_k) <= tail + 1e-10


# ---------------------------------------------------------------------------
# constrained shifts have vanishing characteristic function


@pytest.mark.parametrize("kind", ["zero", "commutative", "q_commutative"])
def test_constrained_shift_theta_vanishes(kind, subspace_factory):
    sub = subspace_factory(kind, d=4)
    b = constrained_creation_tuple(sub, "left")
    th = theta_of(b, sub)
    assert opnorm(th.matrix) < 1e-12


def test_random_pure_tuple_is_far_from_a_shift(subspace_factory):
    rng = np.random.default_rng(23)
    mats = random_row_contraction(rng, 2, 2, 0.6)
    sub = subspace_factory("zero", d=4)
    th = theta_of(mats, sub)
    assert opnorm(th.matrix) > 0.1


# ---------------------------------------------------------------------------
# structure of the constrained function


@pytest.fixture(scope="module")
def comm_theta_d5(subspace_factory):
    sub = subspace_factory("commutative", d=5)
    rng = np.random.default_rng(41)
    mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    th = theta_of(mats, sub)
    return sub, th


def test_constrained_function_is_multi_analytic(comm_theta_d5):
    sub, th = comm_theta_d5
    b = constrained_creation_tuple(sub, "left")
    d = sub.space.d
    keep = sub.n_cols_up_to(d - 1) * th.d_star
    for bi in b:
        comm = th.matrix @ np.kron(bi, np.eye(th.d_star)) - np.kron(bi, np.eye(th.d_T)) @ th.matrix
        assert opnorm(comm[:, :keep]) < 1e-10


def test_coinvariance_leak_is_tiny_for_graded_families(comm_theta_d5):
    _, th = comm_theta_d5
    assert th.coinvariance_leak is not None
    assert th.coinvariance_leak < 1e-12


def test_series_route_agrees_with_compression():
    space = TruncatedFockSpace(2, 6)
    sub = ideal_subspace(make_spec("commutative"), space)
    th = theta_of(PAIR, sub)
    assert th.series_agreement is not None
    assert th.series_agreement < 1e-10


def test_routes_that_disagree_are_refused(monkeypatch):
    sub = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 3))
    formula = charfn._resolvent
    monkeypatch.setattr(charfn, "_resolvent", lambda *args: formula(*args) + 1e-6)
    with pytest.raises(RuntimeError, match="routes disagree"):
        theta_of(PAIR, sub)


def test_a_leaking_relation_span_is_refused():
    # a relation "span" that overlaps N: the function maps it into N
    sub = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 3))
    corrupted = dataclasses.replace(sub, M_basis=sub.N_basis[:, :1])
    kernel = dataclasses.replace(constrained_poisson_kernel(PAIR, sub), sub=corrupted)
    with pytest.raises(RuntimeError, match="leaks .* from the relation span"):
        constrained_characteristic_function(kernel)


# ---------------------------------------------------------------------------
# inner / outer classification


def test_mobius_is_inner_and_outer(mobius_half):
    dc = delta_and_classify(mobius_half)
    assert dc.inner and dc.outer
    tail = 0.25**11
    assert dc.partial_isometry_residual == pytest.approx(tail, rel=1e-5)
    assert dc.sigma_squared.min() == pytest.approx(0.25**11, rel=1e-6)
    assert dc.rank_deficiency == 0


def test_shift_function_is_inner_but_not_outer(subspace_factory):
    sub = subspace_factory("commutative", d=4)
    b = constrained_creation_tuple(sub, "left")
    th = theta_of(b, sub)
    dc = delta_and_classify(th)
    assert dc.inner  # the zero function is a (degenerate) partial isometry
    assert not dc.outer
    assert dc.rank_deficiency == th.matrix.shape[0]


def test_rank_deficiency_counts_the_kernel_of_one_minus_gram(subspace_factory):
    # dual route: dim ker(I - K*K) computed from the kernel gram must agree
    # with the corank of the function on the codomain side
    sub = subspace_factory("commutative", d=6)
    rng = np.random.default_rng(19)
    mats = commuting_nilpotent_tuple(rng, 2, 0.6)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    dc = delta_and_classify(th)
    gram = adj(k.matrix) @ k.matrix
    eigs = np.linalg.eigvalsh(np.eye(gram.shape[0]) - gram)
    dim_ker = int(np.count_nonzero(eigs <= 1e-8))
    assert dc.rank_deficiency == dim_ker
    assert dc.outer == (dim_ker == 0)


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_verdicts_read_off_the_singular_values(case, subspace_factory):
    # the dense routes the p-side spectrum replaced are the oracles
    th = spectral_theta(case, subspace_factory)
    dc = delta_and_classify(th)
    g = adj(th.matrix) @ th.matrix
    assert abs(dc.partial_isometry_residual - opnorm(g @ g - g)) < 1e-12
    want = np.linalg.svd(th.matrix, compute_uv=False) ** 2
    assert dc.sigma_squared.shape == want.shape
    assert np.max(np.abs(dc.sigma_squared - want), initial=0.0) < 1e-12
    assert abs(dc.norm - opnorm(th.matrix)) < 1e-12


@pytest.mark.parametrize("kind", ["zero", "commutative", "q_commutative"])
def test_fourier_blocks_match_a_contraction_per_word(kind, subspace_factory):
    sub = subspace_factory(kind, d=4)
    rng = np.random.default_rng(37)
    if kind == "q_commutative":
        mats = q_commuting_nilpotent_tuple(rng, Q_TEST, 0.7)
    else:
        mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    th = theta_of(mats, sub)
    b, nb = sub.dim_N, sub.N_basis
    resh = th.matrix.reshape(b, th.d_T, b, th.d_star)
    for idx, w in enumerate(sub.space.words):
        want = np.einsum("j,jalb,l->ab", nb[idx, :], resh, nb[0, :].conj())
        assert opnorm(fourier_block(th, w) - want) < 1e-14
    z = np.array([0.3, -0.2j])
    coherent = np.array([np.prod(z[np.array(w, dtype=int) - 1]) for w in sub.space.words])
    want = np.einsum("j,jalb,l->ab", coherent @ nb, resh, nb[0, :].conj())
    assert opnorm(fourier_sum(th, [np.array([[zi]]) for zi in z]) - want) < 1e-14


# ---------------------------------------------------------------------------
# coincidence screen


def test_necessary_mismatch(mobius_half, subspace_factory):
    assert coincidence_necessary_mismatch(mobius_half, mobius_half) == 0.0
    other = theta_of([np.array([[0.3]])], mobius_half.sub)
    assert coincidence_necessary_mismatch(mobius_half, other) == pytest.approx(0.2)
    free = subspace_factory("zero", d=4)
    shaped = theta_of([np.zeros((1, 1))] * 2, free)
    assert coincidence_necessary_mismatch(mobius_half, shaped) == np.inf


def test_necessary_mismatch_equals_the_per_word_loop(subspace_factory):
    rng = np.random.default_rng(61)
    sub = subspace_factory("zero", d=3)
    t1, t2 = (
        theta_of(random_row_contraction(rng, 2, 3, 0.7), sub)
        for _ in range(2)
    )
    want = max(
        np.max(np.abs(np.linalg.svd(b1, compute_uv=False) - np.linalg.svd(b2, compute_uv=False)))
        for b1, b2 in zip(t1.fourier_blocks, t2.fourier_blocks)
    )
    assert coincidence_necessary_mismatch(t1, t2) == want
