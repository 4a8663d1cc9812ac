"""Poisson-type kernels: gram identity, intertwining, constrained variants.

The scalar oracle is worked by hand: for T = [x] with |x| < 1 the kernel
columns carry weights x^k against the word basis, so K*K telescopes to
1 - |x|^(2(d+1)).  With x = 1/sqrt(2), d = 10 that is exactly 1 - 2^-11.
The free kernel is the kernel on the zero family, where N is the whole space.
"""

import dataclasses

import numpy as np
import pytest

from conftest import Q_TEST, adj, make_spec, opnorm
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_creation,
    constrained_poisson_kernel,
    defects,
    ideal_subspace,
    left_creation,
    phi_power,
    right_creation,
    truncation_tail,
    verify_intertwining,
)
from fockmodel.fock import word_operator
from fockmodel.poisson import kernel_blocks
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    nilpotent_pair_tuple,
    q_commuting_nilpotent_tuple,
    random_row_contraction,
)

SCALAR = [np.array([[1 / np.sqrt(2)]])]
PAIR = [np.array([[0.5]]), np.array([[0.5]])]


@pytest.fixture(scope="module")
def free_1_10(subspace_factory):
    return subspace_factory("zero", n=1, d=10)


def test_scalar_gram_value_frozen(free_1_10):
    k = constrained_poisson_kernel(SCALAR, free_1_10)
    gram = (adj(k.matrix) @ k.matrix)[0, 0]
    assert abs(gram - (1 - 2.0**-11)) < 1e-14
    assert k.matrix.shape == (11, 1)
    assert k.d_T == 1


def test_gram_defect_equals_the_exact_tail(free_1_10):
    k = constrained_poisson_kernel(SCALAR, free_1_10)
    # K*K = I - Phi^(d+1)(I) holds to rounding, so the residual is tiny even
    # though the tail itself is ~5e-4
    assert k.tail_bound == pytest.approx(0.5**11)
    assert k.gram_residual() < 1e-13


def test_intertwining_is_exact(free_1_10):
    k = constrained_poisson_kernel(SCALAR, free_1_10)
    res = verify_intertwining(k)
    assert set(res) == {1}
    assert max(res.values()) < 1e-12


def test_strict_contraction_scaling(free_1_10):
    # the kernel of 0.9 * [1] is the kernel of the scaled tuple [0.9]
    k = constrained_poisson_kernel([np.array([[0.9]])], free_1_10)
    gram = (adj(k.matrix) @ k.matrix)[0, 0]
    assert abs(gram - (1 - 0.81**11)) < 1e-13
    assert k.tail_bound == pytest.approx(0.81**11)


def test_multivariate_gram_and_intertwining(subspace_factory):
    rng = np.random.default_rng(21)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    k = constrained_poisson_kernel(mats, subspace_factory("zero", d=5))
    assert k.gram_residual() < 1e-12
    assert max(verify_intertwining(k).values()) < 1e-12
    assert k.tail_bound == pytest.approx(truncation_tail(mats, 5))


# ---------------------------------------------------------------------------
# constrained kernels


@pytest.fixture(scope="module")
def comm_sub_d4(subspace_factory):
    return subspace_factory("commutative", d=4)


def test_constrained_kernel_of_commuting_pair(comm_sub_d4):
    k = constrained_poisson_kernel(PAIR, comm_sub_d4)
    assert k.sub is comm_sub_d4 and k.space is comm_sub_d4.space
    assert k.matrix.shape == (comm_sub_d4.dim_N * 1, 1)
    assert k.subspace_leak < 1e-12
    assert k.relation_residual < 1e-12
    assert k.gram_residual() < 1e-13
    assert k.tail_bound == pytest.approx(0.5**5)
    assert max(verify_intertwining(k).values()) < 1e-12


def test_constrained_kernel_rejects_relation_violators(comm_sub_d4):
    rng = np.random.default_rng(5)
    bad = [m / 4 for m in (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]
    with pytest.raises(ValueError, match="relations"):
        constrained_poisson_kernel(bad, comm_sub_d4)


def test_nilpotent_kernel_is_an_exact_isometry(subspace_factory):
    rng = np.random.default_rng(31)
    nil = nilpotent_pair_tuple(rng, 2, 0.7)
    sub = subspace_factory("zero", d=4)
    k = constrained_poisson_kernel(nil, sub)
    gram = adj(k.matrix) @ k.matrix
    assert k.tail_bound == 0.0
    assert opnorm(gram - np.eye(2)) < 1e-14


# ---------------------------------------------------------------------------
# the index-map routes against the dense compressed shifts N* S N

# x1 x2 = x1 is not homogeneous; T2 fixes e1 and T1 kills it, so T1 T2 = T1
NON_GRADED = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (1,): -1.0})])
NON_GRADED_TUPLE = [np.array([[0, 0], [0.6, 0]], complex), np.array([[1, 0], [0, 0]], complex)]


def _family(kind):
    """(tuple, subspace) of one relation family, at a degree with checked rows."""
    rng = np.random.default_rng(41)
    if kind == "zero":
        return random_row_contraction(rng, 2, 3, 0.8), ideal_subspace(
            make_spec("zero"), TruncatedFockSpace(2, 4))
    if kind == "commutative":
        return commuting_nilpotent_tuple(rng, 2, 0.6), ideal_subspace(
            make_spec("commutative"), TruncatedFockSpace(2, 4))
    if kind == "q_commutative":
        return q_commuting_nilpotent_tuple(rng, Q_TEST, 0.6), ideal_subspace(
            make_spec("q_commutative"), TruncatedFockSpace(2, 4))
    return NON_GRADED_TUPLE, ideal_subspace(NON_GRADED, TruncatedFockSpace(2, 3))


FAMILIES = ["zero", "commutative", "q_commutative", "non-graded"]


def dense_intertwining(kernel):
    """The residuals of K T_i* = (B_i* (x) I) K with B_i = N* S_i N formed densely."""
    sub, d_T = kernel.sub, kernel.d_T
    rows = sub.n_cols_up_to(sub.space.d - 1) * d_T
    resh = kernel.matrix.reshape(sub.dim_N, d_T, -1)
    out = {}
    for i in range(1, sub.space.n + 1):
        b = adj(sub.N_basis) @ left_creation(sub.space, i) @ sub.N_basis
        lhs = kernel.matrix @ adj(kernel.mats[i - 1])
        rhs = np.tensordot(adj(b), resh, axes=(1, 0)).reshape(kernel.matrix.shape)
        out[i] = opnorm((lhs - rhs)[:rows, :])
    return out


@pytest.mark.parametrize("kind", FAMILIES)
def test_constrained_creation_is_the_dense_compression(kind):
    _, sub = _family(kind)
    for side, dense in (("left", left_creation), ("right", right_creation)):
        for i in (1, 2):
            want = adj(sub.N_basis) @ dense(sub.space, i) @ sub.N_basis
            assert opnorm(constrained_creation(sub, i, side) - want) < 1e-14


@pytest.mark.parametrize("kind", FAMILIES)
def test_intertwining_matches_the_dense_route(kind):
    mats, sub = _family(kind)
    kernel = constrained_poisson_kernel(mats, sub)
    assert sub.n_cols_up_to(sub.space.d - 1) > 0  # some rows are checked
    got, want = verify_intertwining(kernel), dense_intertwining(kernel)
    assert set(got) == set(want) == {1, 2}
    assert all(got[i] < 1e-13 and want[i] < 1e-13 for i in got)
    # a kernel-shaped matrix that intertwines nothing: the residuals are O(1)
    # and the gather must reproduce the dense products to rounding
    rng = np.random.default_rng(43)
    noise = rng.normal(size=kernel.matrix.shape) + 1j * rng.normal(size=kernel.matrix.shape)
    broken = dataclasses.replace(kernel, matrix=noise)
    got, want = verify_intertwining(broken), dense_intertwining(broken)
    for i in got:
        assert want[i] > 0.1
        assert abs(got[i] - want[i]) <= 1e-13 * want[i]


def test_kernel_keeps_the_tail_operator(subspace_factory):
    rng = np.random.default_rng(21)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    k = constrained_poisson_kernel(mats, subspace_factory("zero", d=5))
    assert np.array_equal(k.tail, phi_power(mats, 6))
    assert k.tail_bound == truncation_tail(mats, 5)


@pytest.mark.parametrize("kind", ["zero", "commutative"])
def test_kernel_keeps_its_uncompressed_blocks(kind, subspace_factory):
    rng = np.random.default_rng(47)
    mats = random_row_contraction(rng, 2, 3, 0.8) if kind == "zero" else PAIR
    sub = subspace_factory(kind, d=4)
    k = constrained_poisson_kernel(mats, sub)
    assert np.array_equal(k.blocks, kernel_blocks(mats, sub.space, k.defect))
    # on the zero family the compressed matrix is the same array, reshaped
    assert np.shares_memory(k.blocks, k.matrix) == (kind == "zero")
    if kind != "zero":
        nb = sub.N_basis
        want = np.tensordot(adj(nb), k.blocks, axes=(1, 0)).reshape(k.matrix.shape)
        assert np.array_equal(k.matrix, want)


def test_kernel_blocks_are_the_word_products():
    # basis* Delta T_alpha*, with T_alpha* = T_{a_p}* ... T_{a_1}* multiplied out per word
    rng = np.random.default_rng(45)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    space = TruncatedFockSpace(2, 4)
    dft = defects(mats)
    blocks = kernel_blocks(mats, space, dft)
    lead = adj(dft.basis) @ dft.delta
    for w, block in zip(space.words, blocks):
        want = lead @ word_operator(space, tuple(reversed(w)), [adj(t) for t in mats])
        assert opnorm(block - want) < 1e-14
