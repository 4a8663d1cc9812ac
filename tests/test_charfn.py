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

from conftest import (
    ORACLE_FAMILIES,
    ORACLE_SIZES,
    Q_TEST,
    SPECTRAL_CASES,
    adj,
    make_spec,
    opnorm,
    oracle_family,
    oracle_tuple,
    record_decompositions,
    spanning_svd_subspace,
    spectral_theta,
    synthetic_theta,
    theta_of,
)
from fockmodel import (
    TruncatedFockSpace,
    classify,
    coincidence_from_unitary,
    coincidence_necessary_mismatch,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    PolyIdealSpec,
    constraint_residual,
    delta_and_classify,
    evaluate,
    fourier_block,
    fourier_sum,
    ideal_subspace,
    right_creation_tuple,
    truncation_tail,
)
from fockmodel import charfn
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    conjugated_tuple,
    haar_unitary,
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


def _stein_tuple(kind, n, rng):
    """A nilpotent, a dense, a Jordan-pair (d_T = 1 < m) or a row co-isometry (d_T = 0) tuple."""
    if kind == "nilpotent":
        return commuting_nilpotent_tuple(rng, n, 0.6)
    if kind == "dense":
        return random_row_contraction(rng, n, 3, 0.9)
    if kind == "jordan-pair":
        return [np.eye(3, k=1, dtype=complex)] + [np.zeros((3, 3), dtype=complex)] * (n - 1)
    rows = haar_unitary(3 * n, rng)[:3]  # sum T_i T_i* = I: a unitary when n = 1
    return [rows[:, 3 * i : 3 * (i + 1)] for i in range(n)]


@pytest.mark.parametrize("kind", ["nilpotent", "dense", "jordan-pair", "unitary"])
@pytest.mark.parametrize("n, d", ORACLE_SIZES + [(2, 8)])
def test_the_stein_recursion_is_the_gram_of_the_dense_theta(n, d, kind, space_factory):
    # A = F F* + sum_a (L_a (x) I) A (L_a (x) I)* built from the Fourier blocks
    # against the product of the dense Theta
    mats = _stein_tuple(kind, n, np.random.default_rng(59))
    sub = ideal_subspace(make_spec("zero", n=n), space_factory(n, d))
    th = theta_of(mats, sub)
    assert th.sub.is_whole_space
    if kind == "jordan-pair":
        assert th.d_T == 1
    if kind == "unitary":
        assert th.d_T == 0
    got = charfn.stein_gram(sub.space, th.blocks)
    assert np.array_equal(charfn.theta_gram(th), got)
    want = th.matrix @ adj(th.matrix)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14


def _lambda_max_blocks(case, n, d, space, rng):
    """The vacuum-column blocks of a multi-analytic G on ``space`` for a named case."""
    sub = ideal_subspace(make_spec("zero", n=n), space)
    kind = {"jordan": "jordan-pair", "coisometry": "unitary"}.get(case, "dense")
    mats = _stein_tuple(kind, n, rng)
    th = theta_of(mats, sub)
    if case == "conjugate":  # (I (x) tau) Theta - Theta' (I (x) tau_*): rounding level
        u = haar_unitary(3, rng)
        wit = coincidence_from_unitary(th, theta_of(conjugated_tuple(mats, u), sub), u)
        return wit.tau @ th.blocks - wit.theta_p.blocks @ wit.tau_star
    if case == "jordan":  # a turned Jordan pair, d_T = 1
        return th.blocks - theta_of(conjugated_tuple(mats, haar_unitary(3, rng)), sub).blocks
    if case in ("distinct", "coisometry"):
        return th.blocks - theta_of(_stein_tuple(kind, n, rng), sub).blocks
    blocks = np.zeros_like(th.blocks)
    if case == "zero-vacuum":
        blocks[1:] = th.blocks[1:]
    elif case == "top-degree":
        blocks[space.degree_slice(d)] = th.blocks[space.degree_slice(d)]
    elif case == "vacuum-only":
        blocks[0] = th.blocks[0]
    return blocks


@pytest.mark.parametrize(
    "case, n, d",
    [(case, 2, 5) for case in ("conjugate", "distinct", "jordan", "zero-vacuum", "top-degree",
                               "vacuum-only", "all-zero", "coisometry")]
    + [(case, n, d) for case in ("conjugate", "distinct") for n, d in ((2, 0), (2, 1), (3, 3))],
)
def test_stein_lambda_max_is_the_top_eigenvalue_of_the_stein_gram(case, n, d, space_factory):
    # the recursion deflated at level k by an eigh of the degree-(d - k)
    # Gram, then a secular equation of width d_star dim_(k-1), against
    # eigvalsh of the whole p x p Gram, at the chosen level and at every other
    space = space_factory(n, d)
    blocks = _lambda_max_blocks(case, n, d, space, np.random.default_rng([n, d, 71]))
    c = blocks.shape[2]
    want = np.linalg.eigvalsh(charfn.stein_gram(space, blocks))[-1] if blocks.size else 0.0
    got = charfn.stein_lambda_max(space, blocks)
    assert abs(got - want) <= 1e-12 * want
    if blocks.size:
        for k in range(1, d + 1):
            assert abs(charfn._deflated_lambda_max(space, blocks, k) - want) <= 1e-12 * want
    if case == "conjugate":
        assert 0.0 < want < 1e-25
    elif case in ("distinct", "jordan", "zero-vacuum"):
        assert want > 0.1
    elif case == "top-degree":  # every deflated Gram is 0: the d_star x d_star Gram of F
        assert abs(got - np.linalg.norm(blocks.reshape(-1, c), 2) ** 2) <= 1e-12 * got
    elif case == "vacuum-only":  # I (x) theta_(): no root above mu_top = |theta_()|^2
        assert got > 0.1
        assert abs(got - np.linalg.norm(blocks[0], 2) ** 2) <= 1e-12 * got
    else:  # all zero, or d_T = 0
        assert got == 0.0
        assert case == "all-zero" or blocks.shape[1] == 0


def _secular_case(case):
    """(lam, h) of diag(lam) + h h*, lam >= 0 and h of width c."""
    rng = np.random.default_rng(sum(map(ord, case)))

    def cols(p, c):
        return rng.normal(size=(p, c)) + 1j * rng.normal(size=(p, c))

    if case == "one-pole":  # c = 1, the weight on the top pole
        lam = np.array([2.0, 1.5, 0.7, 0.0])
        return lam, np.array([[3.0], [1e-9], [2e-9], [0.0]], dtype=complex)
    if case == "similar-weights":
        lam = 1.0 - 1e-3 * np.arange(12.0)
        return lam, 0.1 * np.exp(1j * np.arange(12.0))[:, None] * (1.0 + 1e-2 * rng.random((12, 3)))
    if case == "repeated-top":  # M(x) is a multiple of I for every x
        lam = np.array([1.0, 1.0, 0.5, 0.5])
        return lam, np.array([[0.3, 0], [0, 0.3], [0.8, 0], [0, 0.8]], dtype=complex)
    if case == "equal-columns":
        h = cols(9, 3)
        h[:, 1] = h[:, 0]
        return np.abs(rng.normal(size=9)), h
    if case == "root-at-top":  # phi(top (1 + 4 eps)) <= 1: the root reads as top
        return np.array([1.0, 0.5, 0.0]), np.array([[1e-9], [1e-9], [1e-9]], dtype=complex)
    if case == "lambda-zero":
        return np.zeros(7), cols(7, 4)
    if case.startswith("scaled"):  # lam and |h|^2 scaled by one factor
        lam, h = _secular_case("wide")
        factor = float(case.split("-", 1)[1])
        return factor * lam, np.sqrt(factor) * h
    # "wide": the deflated layout, zeros then a spectrum repeated per prefix, c = 90
    mu = np.abs(rng.normal(size=40)) ** 2
    return np.concatenate([np.zeros(30), mu, mu, mu]), 0.3 * cols(150, 90)


@pytest.mark.parametrize(
    "case",
    ["one-pole", "similar-weights", "repeated-top", "equal-columns", "root-at-top", "lambda-zero",
     "wide", "scaled-1e-30", "scaled-1e20"],
)
def test_secular_lambda_max_is_the_top_eigenvalue(case):
    # Newton on 1 / phi against eigvalsh of the whole diag(lam) + h h*
    lam, h = _secular_case(case)
    want = np.linalg.eigvalsh(np.diag(lam) + h @ h.conj().T)[-1]
    got = charfn._secular_lambda_max(lam, h)
    assert abs(got - want) <= 1e-12 * want
    if case == "root-at-top":
        assert got == lam.max()


@pytest.mark.parametrize(
    "family, n, d",
    [(family, n, d) for family in ORACLE_FAMILIES for n, d in ORACLE_SIZES] + [("zero", 2, 8)],
)
def test_theta_star_on_the_blocks_is_the_adjoint_of_the_matrix(family, n, d, space_factory):
    # (N* (x) I) Theta* ((N (x) I) u), one matmul per degree pair on the
    # blocks, against the dense Theta_N* applied to orthonormal columns
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    rng = np.random.default_rng([n, d])
    th = theta_of(oracle_tuple(family, n, rng), sub)
    p, q = th.shape
    u, _ = np.linalg.qr(rng.normal(size=(p, 3)) + 1j * rng.normal(size=(p, 3)))
    got = charfn.theta_star(th, u)
    assert got.shape == (q, u.shape[1])
    assert np.max(np.abs(got - adj(th.matrix) @ u), initial=0.0) <= 1e-13


def test_only_a_whole_space_function_reads_its_blocks_as_fourier_blocks(subspace_factory):
    # on the whole space the stored blocks are the Fourier blocks; a relation
    # family maps its vacuum column back through N; a bare matrix is the
    # degree-0 function whose one block it is, with the Stein Gram M M*
    rng = np.random.default_rng(61)
    free = theta_of(random_row_contraction(rng, 2, 3, 0.7), subspace_factory("zero", d=3))
    assert free.sub.is_whole_space and free.fourier_blocks is free.blocks
    comm = theta_of(commuting_nilpotent_tuple(rng, 2, 0.6), subspace_factory("commutative", d=3))
    assert not comm.sub.is_whole_space
    assert comm.fourier_blocks.shape == (comm.space.dim, comm.d_T, comm.d_star)
    assert comm.fourier_blocks is not comm.blocks
    bare = synthetic_theta(np.diag([0.5, 0.25]))
    assert bare.sub.is_whole_space and bare.shape == (2, 2)
    assert np.array_equal(bare.matrix, np.diag([0.5, 0.25]))
    assert np.array_equal(charfn.theta_gram(bare), np.diag([0.25, 0.0625]))


@pytest.mark.parametrize(
    "family, n, d",
    [(family, n, d) for family in ORACLE_FAMILIES for n, d in ORACLE_SIZES
     if ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d)).vacuum_in_N],
)
def test_fourier_blocks_are_the_free_blocks_projected_onto_n(family, n, d, space_factory):
    # with the vacuum in N, Theta_N (N* e_0 (x) I) mapped back by N (x) I is
    # (N N* (x) I) Theta (e_0 (x) I): the free blocks projected onto N
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    kernel = constrained_poisson_kernel(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
    th = constrained_characteristic_function(kernel)
    free = charfn._theta_blocks(kernel).reshape(sub.space.dim, -1)
    want = (sub.N_basis @ adj(sub.N_basis) @ free).reshape(th.fourier_blocks.shape)
    assert np.max(np.abs(th.fourier_blocks - want), initial=0.0) < 1e-14
    if (family, n, d) == ("commutative", 2, 5):  # and they are not the free blocks
        assert np.max(np.abs(th.fourier_blocks.reshape(free.shape) - free)) > 0.1


def test_fourier_blocks_without_the_vacuum_are_its_projection_mapped_back(space_factory):
    # custom-constant-term at (2, 5): the vacuum row of N has norm 0.967, so
    # the vacuum is not in N, yet the blocks are not zero.  They are the
    # column Theta_N (N* e_0 (x) I) of the comprehension oracle mapped back
    # by N (x) I, which a coincidence of Theta_N moves by fixed unitaries,
    # and not the free blocks projected onto N (those differ by 9.5e-3)
    family, n, d = "custom-constant-term", 2, 5
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    nb = sub.N_basis
    assert not sub.vacuum_in_N and abs(np.linalg.norm(nb[0]) - 0.967) < 1e-3
    kernel = constrained_poisson_kernel(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
    th = constrained_characteristic_function(kernel)
    d_T, d_star = kernel.d_T, kernel.defect.d_star
    theta_n = (np.kron(adj(nb), np.eye(d_T)) @ _comprehension_block_matrix(kernel)
               @ np.kron(nb, np.eye(d_star)))
    column = theta_n @ np.kron(adj(nb[:1]), np.eye(d_star))
    want = (np.kron(nb, np.eye(d_T)) @ column).reshape(th.fourier_blocks.shape)
    assert np.max(np.abs(th.fourier_blocks - want)) < 1e-14
    assert np.max(np.linalg.norm(th.fourier_blocks, 2, axis=(1, 2))) > 0.7
    free = charfn._theta_blocks(kernel).reshape(sub.space.dim, -1)
    projected = (nb @ adj(nb) @ free).reshape(want.shape)
    assert np.max(np.abs(th.fourier_blocks - projected)) > 5e-3


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
    assert th.spectrum.gap < 1e-9


def test_factorization_commuting_matrix_pair_high_degree():
    mats = [np.diag([0.6, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
    scale = (0.8**0.5) / opnorm(np.hstack(mats))
    mats = [scale * m for m in mats]
    assert classify(mats).pure.value == "yes"
    space = TruncatedFockSpace(2, 8)
    sub = ideal_subspace(make_spec("commutative"), space)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    assert th.spectrum.gap < 1e-9


def test_factorization_q_nilpotent_exact():
    rng = np.random.default_rng(13)
    mats = q_commuting_nilpotent_tuple(rng, Q_TEST, 0.75)
    space = TruncatedFockSpace(2, 4)
    sub = ideal_subspace(make_spec("q_commutative"), space)
    k = constrained_poisson_kernel(mats, sub)
    th = constrained_characteristic_function(k)
    assert th.tail_bound == 0.0
    assert th.spectrum.gap < 1e-9


def _dense_factorization_gap(th):
    """I - Theta Theta* - K K*, formed densely from the function and its kernel."""
    k = th.kernel.matrix
    return np.eye(th.matrix.shape[0]) - th.matrix @ adj(th.matrix) - k @ adj(k)


@pytest.mark.parametrize("n, d", [(2, 5), (3, 3)])
@pytest.mark.parametrize(
    "family", ["zero", "commutative", "q-uniform", "custom-homogeneous", "custom-constant-term"]
)
def test_j_fa_f_is_the_frobenius_norm_of_the_dense_gap(family, n, d, space_factory):
    # J-fa-F reads |G|_F off the spectrum's certificate, with no p x p
    # decomposition; it is the dense Frobenius norm and bounds the spectral
    # one.  Rounding-level on the graded families; the family that is not
    # graded breaks the factorization at the top degree, where the two norms
    # differ visibly
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    th = theta_of(oracle_tuple(family, n, np.random.default_rng(3)), sub)
    gap = _dense_factorization_gap(th)
    jfa, spectral = th.spectrum.gap, np.max(np.abs(np.linalg.eigvalsh(gap)))
    assert abs(jfa - np.linalg.norm(gap)) <= 1e-13
    assert jfa >= spectral
    if family == "custom-constant-term":
        assert jfa > 2 * spectral > 0.1
    else:
        assert jfa < 1e-12


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
    # series-agree is the Frobenius norm of the difference, never below its spectral norm
    difference = th.matrix - charfn._theta_at_raising(th, sub.right_shifts()[0])
    assert th.series_agreement == np.linalg.norm(difference)
    assert th.series_agreement >= opnorm(difference)


def test_routes_that_disagree_are_refused(monkeypatch):
    sub = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 3))
    formula = charfn._theta_at_raising
    monkeypatch.setattr(charfn, "_theta_at_raising", lambda *args: formula(*args) + 1e-6)
    with pytest.raises(RuntimeError, match="routes disagree"):
        theta_of(PAIR, sub)


def _raising_subspaces():
    """N of each oracle case that is graded by degree (a graded family, or the whole space)."""
    subs = {(family, n, d): ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
            for family in ORACLE_FAMILIES for n, d in ORACLE_SIZES}
    return {case: sub for case, sub in subs.items() if sub.graded or sub.is_whole_space}


def test_the_raising_cases_include_empty_degree_blocks_n_1_and_d_0():
    subs = _raising_subspaces()
    assert any(n == 1 for _, n, _ in subs) and any(d == 0 for _, _, d in subs)
    assert any(np.any(np.bincount(sub.N_degrees, minlength=sub.space.d + 1) == 0)
               for sub in subs.values())


@pytest.mark.parametrize("family, n, d", list(_raising_subspaces()))
def test_theta_by_degree_at_the_raising_point_matches_the_dense_solve(family, n, d, space_factory):
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    th = theta_of(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
    raising = constrained_creation_tuple(sub, "right")
    # B_i = N* R_i N is exactly zero outside its blocks from degree r - 1 to degree r
    off_step = sub.N_degrees[:, None] != sub.N_degrees[None, :] + 1
    assert not any(np.any(b[off_step]) for b in raising)
    by_degree = charfn._theta_at_raising(th, raising)
    dense = charfn._resolvent(th.kernel.mats, raising, th.defect)
    assert by_degree.shape == dense.shape == th.shape
    assert np.max(np.abs(by_degree - dense), initial=0.0) < 1e-14


def test_a_graded_relation_family_takes_no_solve_and_no_kronecker_matrix(monkeypatch):
    from fockmodel import build_model

    sub = ideal_subspace(make_spec("commutative", n=3), TruncatedFockSpace(3, 4))
    mats = commuting_nilpotent_tuple(np.random.default_rng(11), 3, 0.9)
    solves = record_decompositions(monkeypatch, names=("solve",))
    krons, kron = [], np.kron

    def recorded_kron(a, b):
        krons.append((np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", recorded_kron)
    th = theta_of(mats, sub)
    assert build_model(th).operators is not None
    assert th.series_agreement < 1e-13
    assert solves == [] and krons == []


def test_a_leaking_relation_span_is_refused():
    # an N without the vacuum column: its complement, the relation "span",
    # then holds the vacuum, which the function maps into N
    sub = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 3))
    corrupted = dataclasses.replace(sub, basis=sub.N_basis[:, 1:], N_degrees=sub.N_degrees[1:])
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


# ---------------------------------------------------------------------------
# Theta placed by degree slices, against the comprehension-built oracle


def _comprehension_block_matrix(kernel):
    """sum_alpha R_alpha (x) theta_(alpha), every word looked up in ``space.index``.

    The oracle of the whole-space function that :func:`charfn._theta_n`
    places when N = I, and compresses otherwise: each block is placed at row
    word gamma alpha, column word gamma, by one index triple per
    (gamma, alpha) pair.
    """
    mats, space, defect = kernel.mats, kernel.space, kernel.defect
    n, m = len(mats), mats[0].shape[0]
    d_T, d_star = defect.d_T, defect.d_star
    words = space.words
    row_blocks = (defect.basis_star * np.sqrt(defect.eigvals_star)).reshape(n, m, d_star)
    blocks = np.empty((space.dim, d_T, d_star), dtype=complex)
    blocks[0] = -adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    if space.d:
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


def _assert_theta_matches_the_oracle(mats, sub):
    kernel = constrained_poisson_kernel(mats, sub)
    want = _comprehension_block_matrix(kernel)
    compressed = constrained_characteristic_function(kernel).matrix
    if sub.is_whole_space:
        assert np.array_equal(compressed, want)
    else:  # (N* (x) I) Theta (N (x) I) by explicit Kronecker products, summed in another order
        left = np.kron(adj(sub.N_basis), np.eye(kernel.d_T))
        right = np.kron(sub.N_basis, np.eye(kernel.defect.d_star))
        assert opnorm(compressed - left @ want @ right) < 1e-13
    return kernel


@pytest.mark.parametrize("n, d", ORACLE_SIZES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_theta_by_degree_slices_matches_the_comprehension_oracle(family, n, d, space_factory):
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    _assert_theta_matches_the_oracle(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)


@pytest.mark.parametrize("d", [0, 1, 4])
def test_theta_by_degree_slices_on_degenerate_defects(d, subspace_factory):
    free = subspace_factory("zero", d=d)
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    # T_1 T_1* = E_11 has the eigenvalue 1: the defect has rank d_T = 1 < m = 2
    kernel = _assert_theta_matches_the_oracle([e12, np.zeros((2, 2))], free)
    assert (kernel.d_T, kernel.defect.d_star) == (1, 3)
    # a co-isometric tuple, T_1 T_1* + T_2 T_2* = I: no defect at all, d_T = 0
    kernel = _assert_theta_matches_the_oracle([np.eye(2) / np.sqrt(2)] * 2, free)
    assert kernel.d_T == 0


# ---------------------------------------------------------------------------
# the whole-degree products on the grid against the per-letter routes they
# replaced, with every range written out by the closed formula


def _left_targets(space, a, k):
    """The words (a) + w, w of degree k < d: positions (a - 1) n^k + [0, n^k) of degree k + 1."""
    start = space.degree_slice(k + 1).start + (a - 1) * space.n**k
    return slice(start, start + space.n**k)


def _per_letter_theta_blocks(kernel):
    mats, space, defect = kernel.mats, kernel.space, kernel.defect
    n, m = len(mats), mats[0].shape[0]
    row_blocks = (defect.basis_star * np.sqrt(defect.eigvals_star)).reshape(n, m, defect.d_star)
    blocks = np.empty((space.dim, defect.d_T, defect.d_star), dtype=complex)
    blocks[0] = -adj(defect.basis) @ np.hstack(mats) @ defect.basis_star
    for k in range(space.d):
        parents = kernel.blocks[space.degree_slice(k)]
        for a in range(1, n + 1):
            np.matmul(parents, row_blocks[a - 1], out=blocks[_left_targets(space, a, k)])
    return blocks


def _per_letter_stein_gram(space, blocks):
    dim, r, c = blocks.shape
    vacuum = blocks.reshape(dim * r, c)
    out = vacuum @ adj(vacuum)

    def rows(words):
        return slice(words.start * r, words.stop * r)

    for top in range(space.d):
        for j, k in [(j, top) for j in range(top + 1)] + [(top, k) for k in range(top)]:
            source = out[rows(space.degree_slice(j)), rows(space.degree_slice(k))]
            for a in range(1, space.n + 1):
                targets = (rows(_left_targets(space, a, g)) for g in (j, k))
                out[tuple(targets)] += source
    return out


def _prefixed_words(space, j, k):
    """Flat indices of gamma + w, gamma of degree j (rows) and w of degree <= k (columns)."""
    n, g = space.n, np.arange(space.n**j)[:, None]
    starts = [space.degree_slice(j + l).start for l in range(k + 1)]
    return np.concatenate([s + g * n**l + np.arange(n**l) for l, s in enumerate(starts)], axis=1)


def _gathered_deflated_lambda_max(space, blocks, k):
    """:func:`charfn._deflated_lambda_max` with C and its prefixed tails gathered by index arrays."""
    n, d, (dim, r, c) = space.n, space.d, blocks.shape
    inner = TruncatedFockSpace(n, d - k)
    mu, v = np.linalg.eigh(charfn.stein_gram(inner, blocks[: inner.dim]))
    head = space.dim_up_to(k - 1)
    cols = np.zeros((dim, r, head, c), dtype=complex)
    for j in range(k):
        gammas = space.degree_slice(j)
        rows = _prefixed_words(space, j, d - j)
        cols[rows, :, np.arange(gammas.start, gammas.stop)[:, None]] = blocks[: rows.shape[1]]
    cols = cols.reshape(dim, r, head * c)
    tails = adj(v) @ cols[_prefixed_words(space, k, d - k)].reshape(n**k, inner.dim * r, head * c)
    lam = np.concatenate([np.zeros(head * r)] + [np.clip(mu, 0.0, None)] * n**k)
    return charfn._secular_lambda_max(lam, np.vstack([cols[:head].reshape(head * r, -1), *tails]))


def _grid_cases():
    """The kernel oracle cases of test_poisson, and the unitary spectral case (d_* = 0)."""
    from test_poisson import ORACLE_CASES

    cases = {name: (make(), n, d) for name, (make, n, d, _) in ORACLE_CASES.items()}
    return {**cases, "unitary": ([np.array([[1.0 + 0j]])], 1, 4)}


@pytest.mark.parametrize("case", _grid_cases().values(), ids=_grid_cases().keys())
def test_the_grid_products_equal_the_per_letter_routes(case, subspace_factory):
    mats, n, d = case
    kernel = constrained_poisson_kernel(mats, subspace_factory("zero", n=n, d=d))
    theta = charfn._theta_blocks(kernel)
    assert np.array_equal(theta, _per_letter_theta_blocks(kernel))
    space = kernel.space
    for blocks in (theta, kernel.blocks):
        assert np.array_equal(charfn.stein_gram(space, blocks), _per_letter_stein_gram(space, blocks))
        if blocks.size:
            for k in range(1, d + 1):
                want = _gathered_deflated_lambda_max(space, blocks, k)
                assert charfn._deflated_lambda_max(space, blocks, k) == want


# ---------------------------------------------------------------------------
# Theta_N from the Fourier blocks against the whole-space Theta compressed by
# Kronecker products, and the leaks against dense oracles


def _rows_route_cases():
    """The oracle families and sizes with relations below the degree cap, and larger ones."""
    cases = [(family, n, d) for family in ORACLE_FAMILIES for n, d in ORACLE_SIZES
             if not ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d)).is_whole_space]
    return cases + [("commutative", 2, 7), ("q-uniform", 2, 7), ("custom-mixed-degree", 2, 7),
                    ("q-per-pair", 3, 4), ("custom-constant-term", 2, 5)]


@pytest.mark.parametrize("family, n, d", _rows_route_cases())
def test_the_rows_route_matches_the_kronecker_compression(family, n, d, space_factory):
    space = space_factory(n, d)
    spec = oracle_family(family, n, d)
    sub = ideal_subspace(spec, space)
    kernel = constrained_poisson_kernel(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
    d_T, d_star = kernel.d_T, kernel.defect.d_star
    whole = _comprehension_block_matrix(kernel)
    rows = np.kron(adj(sub.N_basis), np.eye(d_T)) @ whole
    theta_n = rows @ np.kron(sub.N_basis, np.eye(d_star))
    th = constrained_characteristic_function(kernel)
    assert np.max(np.abs(th.matrix - theta_n), initial=0.0) < 1e-14
    # the kernel leak through the oracle's N and a basis of the relation span
    # M orthogonal to it
    oracle = spanning_svd_subspace(spec, space)
    m_basis = oracle.M_basis
    assert m_basis.shape[1] == sub.dim_M
    flat = kernel.blocks.reshape(space.dim * d_T, -1)
    kernel_leak = opnorm(np.kron(adj(m_basis), np.eye(d_T)) @ flat)
    assert abs(kernel.subspace_leak - kernel_leak) < 1e-14
    # coinvariance on N, |(I - N N*) R_i* N| by dense right shifts
    off_n = np.eye(space.dim) - sub.N_basis @ adj(sub.N_basis)
    dense_leak = max(opnorm(off_n @ adj(r) @ sub.N_basis) for r in right_creation_tuple(space))
    assert abs(th.coinvariance_leak - dense_leak) < 1e-14
    # the leak as it was measured on Theta, |(N* (x) I) Theta (M (x) I)|
    oracle_rows = np.kron(adj(oracle.N_basis), np.eye(d_T)) @ whole
    theta_leak = opnorm(oracle_rows @ np.kron(m_basis, np.eye(d_star)))
    if sub.graded:
        assert max(th.coinvariance_leak, theta_leak) <= 1e-14
    else:  # the truncated right shifts cut the top degree off a relation
        assert min(th.coinvariance_leak, theta_leak) >= 0.1


def test_a_rotated_top_block_of_n_is_refused():
    # the kernel of a tuple whose products of two letters vanish is zero
    # above degree 1, so it cannot see N's degree-4 block turned off the
    # symmetric tensors; the coinvariance of N does
    space = TruncatedFockSpace(2, 5)
    sub = ideal_subspace(make_spec("commutative"), space)
    rng = np.random.default_rng(5)
    unitary, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    rotated = sub.N_basis.copy()
    rotated[space.degree_slice(4)] = unitary @ rotated[space.degree_slice(4)]
    corrupted = dataclasses.replace(sub, basis=rotated)
    kernel = constrained_poisson_kernel(nilpotent_pair_tuple(rng, 2, 0.6), corrupted)
    assert kernel.subspace_leak < 1e-14
    with pytest.raises(RuntimeError, match="leaks .* from the relation span"):
        constrained_characteristic_function(kernel)


def test_a_constrained_theta_is_never_formed_on_the_whole_space(monkeypatch):
    # the budget of a constrained charfn and model: no whole-space Theta, no
    # dim x dim array, and no SVD in ideal_subspace larger than a x a with
    # a = n dim N_(k-1).  At commutative (2, 12) the whole-space Theta would
    # take 16 (8191 d_T) (8191 d_star) bytes, 19 GB for d_T = 3, d_star = 6.
    import tracemalloc

    from fockmodel import build_model
    from fockmodel.sampling import commuting_nilpotent_tuple

    space = TruncatedFockSpace(2, 12)
    mats = commuting_nilpotent_tuple(np.random.default_rng(11), 2, 0.5)
    seen = record_decompositions(monkeypatch)
    tracemalloc.start()
    try:
        sub = ideal_subspace(make_spec("commutative"), space)
        _, subspace_peak = tracemalloc.get_traced_memory()
        subspace_calls = list(seen)
        tracemalloc.reset_peak()
        th = theta_of(mats, sub)
        _, theta_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dc = delta_and_classify(th)
        jfa = th.spectrum.gap
        model = build_model(th)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest_a = space.n * max(np.count_nonzero(sub.N_degrees == k) for k in range(space.d))
    assert subspace_calls and all(name == "svd" for name, _ in subspace_calls)
    assert max(max(shape) for _, shape in subspace_calls) <= largest_a
    assert subspace_peak < space.dim * space.dim * 16  # no dim x dim complex array
    assert th.matrix.shape == (sub.dim_N * th.d_T, sub.dim_N * th.d_star) == (273, 546)
    assert theta_peak < 64e6
    assert peak < 64e6
    assert dc.inner and jfa < 1e-9 and model.h == 3


@pytest.mark.parametrize("case", SPECTRAL_CASES + ["fallback"])
def test_the_shared_spectrum_gives_the_same_verdicts_and_j_fa(case, subspace_factory):
    # the function keeps one frozen record (gap, eigvals, eigvecs,
    # isometry_bound), which the verdicts, J-fa-F and isometry-F read; a fresh
    # build agrees bit for bit on both routes, and the record holds nothing
    # p x p
    if case == "fallback":
        sub = ideal_subspace(oracle_family("custom-constant-term", 2, 5), TruncatedFockSpace(2, 5))
        th = theta_of(oracle_tuple("custom-constant-term", 2, None), sub)
    else:
        th = spectral_theta(case, subspace_factory)
    spectrum = th.spectrum
    dc = delta_and_classify(th)
    assert th.spectrum is spectrum
    fields = [f.name for f in dataclasses.fields(spectrum)]
    assert fields == ["gap", "eigvals", "eigvecs", "isometry_bound"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum.gap = 0.0
    fresh = charfn.defect_star_spectrum(th)
    assert fresh.gap == spectrum.gap
    assert fresh.isometry_bound == spectrum.isometry_bound == th.isometry_residual
    assert np.array_equal(fresh.eigvals, spectrum.eigvals)
    assert np.array_equal(fresh.eigvecs, spectrum.eigvecs)
    p, q = th.shape
    h = spectrum.eigvecs.shape[1]
    assert spectrum.eigvals.shape == (p,) and spectrum.eigvecs.shape == (p, h)
    assert np.array_equal(spectrum.kept, spectrum.eigvals[p - h :])
    assert np.array_equal(dc.sigma_squared, np.clip(1.0 - spectrum.eigvals[: min(p, q)], 0.0, None))
    assert (spectrum.gap > 1e-12) == (case == "fallback" or case == "tall")
