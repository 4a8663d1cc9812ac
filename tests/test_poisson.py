"""Poisson-type kernels: gram identity, intertwining, constrained variants.

The scalar oracle is worked by hand: for T = [x] with |x| < 1 the kernel
columns carry weights x^k against the word basis, so K*K telescopes to
1 - |x|^(2(d+1)).  With x = 1/sqrt(2), d = 10 that is exactly 1 - 2^-11.
The free kernel is the kernel on the zero family, where N is the whole space.
"""

import numpy as np
import pytest

from conftest import adj, make_spec, opnorm
from fockmodel import (
    constrained_poisson_kernel,
    defects,
    truncation_tail,
    verify_intertwining,
)
from fockmodel.sampling import nilpotent_pair_tuple, random_row_contraction

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


def test_defect_passthrough_changes_nothing(free_1_10):
    base = constrained_poisson_kernel(SCALAR, free_1_10)
    again = constrained_poisson_kernel(SCALAR, free_1_10, defect=defects(SCALAR))
    assert opnorm(base.matrix - again.matrix) == 0.0


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
