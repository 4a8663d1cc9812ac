"""Relation families, the constrained subspace, and compressed creations.

Dimension values are frozen from two independent computations: the
closed-form count of commutative monomials (binomials) and the brute-force
operator-span oracle in conftest.  The production code must match both.
"""

import math

import numpy as np
import pytest

from conftest import Q_TEST, adj, brute_force_constraint_dims, make_spec, opnorm
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_creation,
    constrained_creation_tuple,
    ideal_subspace,
)
from fockmodel.fock import left_creation_tuple, word_operator
from fockmodel.ideals import _crosscheck_spanning

# dim N for the commutative family, n=2 d=0..6 and n=3 d=0..4
COMM_DIMS_N2 = [1, 3, 6, 10, 15, 21, 28]
COMM_DIMS_N3 = [1, 4, 10, 20, 35]


def commutative_dim(n, d):
    return sum(math.comb(n + k - 1, k) for k in range(d + 1))


# ---------------------------------------------------------------------------
# polynomials


def test_poly_drops_zero_terms():
    p = NCPoly({(1,): 1.0, (2,): 0.0})
    assert p.terms == {(1,): 1.0}
    assert not p.is_zero
    assert NCPoly({(1,): 0.0}).is_zero


def test_poly_metadata():
    p = NCPoly({(): 2.0, (1, 2): 1.0})
    assert p.degree == 2
    assert not p.is_homogeneous
    assert p.max_letter == 2
    assert NCPoly({(1, 2): 1.0, (2, 1): -1.0}).is_homogeneous


def test_commutator_terms():
    assert NCPoly.commutator(1, 2).terms == {(1, 2): 1.0, (2, 1): -1.0}
    q = 0.5j
    assert NCPoly.q_commutator(1, 2, q).terms == {(1, 2): 1.0, (2, 1): -q}


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        NCPoly.q_commutator(1, 2, 0)


def test_apply_to_evaluates_with_identity_for_empty_word():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = NCPoly({(): 2.0, (1,): 1.0, (1, 1): -1.0})
    got = p.apply_to([a])
    want = 2 * np.eye(3) + a - a @ a
    assert opnorm(got - want) < 1e-12


# ---------------------------------------------------------------------------
# relation family specs


def test_spec_generator_counts():
    assert PolyIdealSpec(n=2, kind="zero").generators() == []
    assert len(PolyIdealSpec(n=3, kind="commutative").generators()) == 3
    assert len(PolyIdealSpec(n=3, kind="q_commutative", q=1j).generators()) == 3


def test_spec_requires_parameters():
    with pytest.raises(ValueError):
        PolyIdealSpec(n=2, kind="q_commutative")
    with pytest.raises(ValueError):
        PolyIdealSpec(n=2, kind="custom")


def test_graded_flags():
    assert PolyIdealSpec(n=2, kind="zero").is_graded
    assert PolyIdealSpec(n=2, kind="commutative").is_graded
    assert PolyIdealSpec(n=2, kind="q_commutative", q=Q_TEST).is_graded
    homog = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 1): 1.0})])
    assert homog.is_graded
    mixed = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (1,): -1.0})])
    assert not mixed.is_graded


def test_q_value_lookup():
    spec = PolyIdealSpec(n=3, kind="q_commutative", q={(1, 2): 1j, (1, 3): 2.0, (2, 3): -1.0})
    assert spec.q_value(1, 2) == 1j
    assert spec.q_value(2, 3) == -1.0


# ---------------------------------------------------------------------------
# constrained subspace dimensions


@pytest.mark.parametrize("d", range(7))
def test_commutative_dims_n2_frozen(d, space_factory):
    sub = ideal_subspace(make_spec("commutative"), space_factory(2, d))
    assert sub.dim_N == COMM_DIMS_N2[d] == commutative_dim(2, d)
    assert sub.dim_M == space_factory(2, d).dim - COMM_DIMS_N2[d]


@pytest.mark.parametrize("d", range(5))
def test_commutative_dims_n3_frozen(d, space_factory):
    sub = ideal_subspace(make_spec("commutative", n=3), space_factory(3, d))
    assert sub.dim_N == COMM_DIMS_N3[d] == commutative_dim(3, d)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 3)])
def test_dims_match_brute_force_span(n, d, space_factory):
    space = space_factory(n, d)
    for kind in ("commutative", "q_commutative"):
        spec = make_spec(kind, n=n)
        sub = ideal_subspace(spec, space)
        dim_m, dim_n = brute_force_constraint_dims(spec, space)
        assert (sub.dim_M, sub.dim_N) == (dim_m, dim_n)


@pytest.mark.parametrize("d", range(6))
def test_q_dims_equal_commutative_dims(d, space_factory):
    sub = ideal_subspace(make_spec("q_commutative"), space_factory(2, d))
    assert sub.dim_N == COMM_DIMS_N2[d]


def test_zero_family_is_no_constraint(space_factory):
    space = space_factory(2, 4)
    sub = ideal_subspace(make_spec("zero"), space)
    assert sub.dim_M == 0 and sub.is_whole_space
    assert sub.dim_N == space.dim
    assert np.array_equal(sub.N_basis, np.eye(space.dim))


@pytest.mark.parametrize(
    "poly",
    [{(1, 2, 1): 1.0}, {(1, 2, 1): 1.0, (2,): 1.0}],
    ids=["graded", "non-graded"],
)
def test_relations_longer_than_the_degree_leave_exactly_the_identity(space_factory, poly):
    # no two-sided multiple fits below degree 2, homogeneous or not
    space = space_factory(2, 2)
    spec = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly(poly)])
    sub = ideal_subspace(spec, space)
    assert sub.dim_M == 0 and sub.is_whole_space
    assert np.array_equal(sub.N_basis, np.eye(space.dim))
    assert np.array_equal(sub.N_degrees, space.degrees)
    assert sub.graded == spec.is_graded
    assert brute_force_constraint_dims(spec, space) == (0, space.dim)


def test_a_nontrivial_relation_span_is_not_the_whole_space(comm_sub):
    assert comm_sub.dim_M > 0 and not comm_sub.is_whole_space


# ---------------------------------------------------------------------------
# subspace geometry


@pytest.fixture(scope="module")
def comm_sub(subspace_factory):
    return subspace_factory("commutative", d=5)


@pytest.fixture(scope="module")
def q_sub(subspace_factory):
    return subspace_factory("q_commutative", d=5)


def test_bases_are_orthonormal_and_complementary(comm_sub):
    n_basis, m_basis = comm_sub.N_basis, comm_sub.M_basis
    assert opnorm(adj(n_basis) @ n_basis - np.eye(comm_sub.dim_N)) < 1e-12
    assert opnorm(adj(m_basis) @ m_basis - np.eye(comm_sub.dim_M)) < 1e-12
    assert opnorm(adj(n_basis) @ m_basis) < 1e-12
    p = comm_sub.projector_N()
    assert opnorm(p @ p - p) < 1e-12
    assert opnorm(p - adj(p)) < 1e-12
    assert opnorm(p - n_basis @ adj(n_basis)) < 1e-12


def test_vacuum_survives_the_constraint(comm_sub, q_sub):
    assert comm_sub.vacuum_in_N
    assert q_sub.vacuum_in_N


def test_degree_bookkeeping(comm_sub):
    # graded family: every basis column lives at one exact degree
    assert comm_sub.graded
    assert sorted(comm_sub.N_degrees) == list(comm_sub.N_degrees)
    for k in range(comm_sub.space.d + 1):
        want = commutative_dim(2, k)
        assert comm_sub.n_cols_up_to(k) == want
        col_set = comm_sub.N_basis[:, comm_sub.N_degrees == k]
        degs = comm_sub.space.degrees
        if col_set.size:
            assert opnorm(col_set[degs != k, :]) < 1e-12


def test_n_mismatch_rejected(space_factory):
    with pytest.raises(ValueError):
        ideal_subspace(make_spec("commutative", n=3), space_factory(2, 3))


def test_generator_beyond_n_rejected():
    with pytest.raises(ValueError):
        PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 3): 1.0})])
    with pytest.raises(ValueError):
        PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1,): 0.0})])  # zero poly


# ---------------------------------------------------------------------------
# compressed creation operators


def test_commutative_compressions_commute(comm_sub):
    b1, b2 = constrained_creation_tuple(comm_sub, "left")
    w1, w2 = constrained_creation_tuple(comm_sub, "right")
    assert opnorm(b1 @ b2 - b2 @ b1) < 1e-12
    assert opnorm(w1 @ w2 - w2 @ w1) < 1e-12


def test_q_compressions_satisfy_the_deformed_relation(q_sub):
    b1, b2 = constrained_creation_tuple(q_sub, "left")
    w1, w2 = constrained_creation_tuple(q_sub, "right")
    assert opnorm(b1 @ b2 - Q_TEST * b2 @ b1) < 1e-12
    # the right-sided compressions satisfy the relation with the roles of the
    # generators swapped -- appending reverses the order of composition
    assert opnorm(w2 @ w1 - Q_TEST * w1 @ w2) < 1e-12
    assert opnorm(w1 @ w2 - Q_TEST * w2 @ w1) > 0.5


def test_compression_of_word_is_word_of_compressions(comm_sub):
    # for a two-sided graded family the relation span is invariant, so
    # compressing a product equals the product of compressions
    space = comm_sub.space
    s = left_creation_tuple(space)
    n_basis = comm_sub.N_basis
    b = constrained_creation_tuple(comm_sub, "left")
    for word in [(1, 2), (2, 1, 1), (1, 1, 2, 2)]:
        direct = adj(n_basis) @ word_operator(space, word, s) @ n_basis
        composed = word_operator(space, word, b)
        assert opnorm(direct - composed) < 1e-12


def test_custom_commutators_reproduce_the_commutative_family(space_factory):
    space = space_factory(2, 4)
    via_kind = ideal_subspace(make_spec("commutative"), space)
    via_polys = ideal_subspace(
        PolyIdealSpec(n=2, kind="custom", polys=[NCPoly.commutator(1, 2)]), space
    )
    assert via_polys.dim_N == via_kind.dim_N
    assert opnorm(via_polys.projector_N() - via_kind.projector_N()) < 1e-10


def test_non_graded_family_still_splits_correctly(space_factory):
    space = space_factory(2, 3)
    spec = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (1,): -1.0})])
    sub = ideal_subspace(spec, space)
    assert not sub.graded
    dim_m, dim_n = brute_force_constraint_dims(spec, space)
    assert (sub.dim_M, sub.dim_N) == (dim_m, dim_n)
    p = sub.projector_N()
    assert opnorm(p @ p - p) < 1e-12
    assert opnorm(adj(sub.N_basis) @ sub.N_basis - np.eye(sub.dim_N)) < 1e-12


def test_constrained_creation_side_argument(comm_sub):
    assert opnorm(
        constrained_creation(comm_sub, 1, "left")
        - constrained_creation_tuple(comm_sub, "left")[0]
    ) == 0.0
    with pytest.raises(ValueError):
        constrained_creation(comm_sub, 1, "sideways")


def test_spanning_crosscheck_catches_a_corrupted_vector(space_factory):
    # the guard re-derives S_alpha p(S) e_beta through the creation index
    # maps, so a vector written into the wrong word slot (or with a wrong
    # coefficient) raises
    space = space_factory(2, 3)
    p = NCPoly.commutator(1, 2)
    meta, vectors = [], []
    for alpha, beta in [((), ()), ((1,), ()), ((), (2,)), ((2,), ())]:
        vec = np.zeros(space.dim, dtype=complex)
        for w, c in p.terms.items():
            vec[space.index(alpha + w + beta)] += c
        meta.append((alpha, p, beta))
        vectors.append(vec)
    _crosscheck_spanning(space, vectors, meta)
    vectors[1] = vectors[1].copy()
    vectors[1][space.index((1, 2, 1))] += 1e-10
    with pytest.raises(RuntimeError, match="indexing bug"):
        _crosscheck_spanning(space, vectors, meta)


def test_the_spanning_guard_checks_every_vector(space_factory, monkeypatch):
    # vector 55 of the 321 at (2, 7) is neither among the first 50 nor a
    # multiple of 6, so a guard that samples them would miss it
    import fockmodel.ideals as ideals

    guard, counts = ideals._crosscheck_spanning, []

    def corrupted(space, vectors, meta):
        counts.append(len(vectors))
        vectors[55] = vectors[55].copy()
        vectors[55][np.flatnonzero(vectors[55])[0]] += 1e-10
        guard(space, vectors, meta)

    monkeypatch.setattr(ideals, "_crosscheck_spanning", corrupted)
    with pytest.raises(RuntimeError, match="indexing bug"):
        ideal_subspace(make_spec("commutative"), space_factory(2, 7))
    assert counts == [321]
