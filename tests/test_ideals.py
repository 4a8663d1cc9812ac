"""Relation families, the constrained subspace, and compressed creations.

Dimension values are frozen from two independent computations: the
closed-form count of commutative monomials (binomials) and the brute-force
operator-span oracle in conftest.  The production code must match both.
"""

import itertools
import math
import re

import numpy as np
import pytest

from conftest import (
    ORACLE_FAMILIES,
    ORACLE_SIZES,
    Q_TEST,
    adj,
    brute_force_constraint_dims,
    degree_projectors,
    make_spec,
    opnorm,
    oracle_family,
    spanning_svd_subspace,
)
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_creation,
    constrained_creation_tuple,
    ideal_subspace,
)
from fockmodel.fock import creation_targets, left_creation_tuple, right_creation, word_operator
from fockmodel.ideals import _COSINE_CUT, _crosscheck_spanning
from fockmodel.linalg import NumericalRankWarning, kron_left

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


@pytest.mark.parametrize(
    "n, q, needle",
    [(3, {(1, 2): 0.5}, "missing pairs [(1, 3), (2, 3)]"),
     (2, {(1, 2): 0.5, (2, 3): 1.0}, "pair (2, 3) lies outside"),
     (2, {(2, 1): 0.5}, "pair (2, 1) lies outside")],
    ids=["missing", "out-of-range", "reversed"],
)
def test_a_q_mapping_needs_exactly_the_pairs_i_below_j(n, q, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        PolyIdealSpec(n=n, kind="q_commutative", q=q)


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
    import fockmodel.ideals as ideals

    n_basis = comm_sub.N_basis
    span, _ = ideals._spanning_vectors(comm_sub.spec.generators(), comm_sub.space)
    assert opnorm(adj(n_basis) @ n_basis - np.eye(comm_sub.dim_N)) < 1e-12
    assert opnorm(adj(n_basis) @ span) < 1e-12  # N is orthogonal to every spanning vector
    assert comm_sub.dim_M == np.linalg.matrix_rank(span) == comm_sub.space.dim - comm_sub.dim_N
    p = comm_sub.N_basis @ adj(comm_sub.N_basis)
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
    projector_polys = via_polys.N_basis @ adj(via_polys.N_basis)
    assert opnorm(projector_polys - via_kind.N_basis @ adj(via_kind.N_basis)) < 1e-10


def test_non_graded_family_still_splits_correctly(space_factory):
    space = space_factory(2, 3)
    spec = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (1,): -1.0})])
    sub = ideal_subspace(spec, space)
    assert not sub.graded
    dim_m, dim_n = brute_force_constraint_dims(spec, space)
    assert (sub.dim_M, sub.dim_N) == (dim_m, dim_n)
    p = sub.N_basis @ adj(sub.N_basis)
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
    _crosscheck_spanning(space, np.column_stack(vectors), meta)
    for word in [(1, 2, 1), (2, 2)]:  # a slot the vector has, and one it has not
        bad = [v.copy() for v in vectors]
        bad[1][space.index(word)] += 1e-10
        with pytest.raises(RuntimeError, match="indexing bug"):
            _crosscheck_spanning(space, np.column_stack(bad), meta)


def _walk_one_vector_at_a_time(space, meta):
    """The spanning vectors by walking each word through the index maps, one letter per lookup."""
    targets = {i: creation_targets(space, i, "left") for i in range(1, space.n + 1)}

    def walk(position, word):
        for a in reversed(word):
            position = int(targets[a][position])
        return position

    rows, cols, coefs = zip(*(
        (walk(walk(walk(0, beta), w), alpha), col, c)
        for col, (alpha, p, beta) in enumerate(meta)
        for w, c in p.terms.items()
    ))
    derived = np.zeros((space.dim, len(meta)), dtype=complex)
    np.add.at(derived, (rows, cols), coefs)
    return derived


@pytest.mark.parametrize(
    "kind, n, d", [("commutative", 2, 7), ("q_commutative", 3, 4), ("custom", 2, 5)]
)
def test_the_shape_batched_walk_is_the_one_vector_walk(kind, n, d, space_factory):
    import fockmodel.ideals as ideals

    if kind == "custom":
        polys = [NCPoly({(): 0.5, (1,): 1.0, (2, 1): 2j}), NCPoly({(1, 2, 2): 1.0, (2,): -0.5})]
        spec = PolyIdealSpec(n=n, kind="custom", polys=polys)
    else:
        spec = make_spec(kind, n=n)
    space = space_factory(n, d)
    span, meta = ideals._spanning_vectors(spec.generators(), space)
    want = _walk_one_vector_at_a_time(space, meta)
    rows, cols, coefs = ideals._walk_spanning(space, meta)
    assert len(set(zip(rows, cols))) == rows.size  # no two entries share a slot
    got = np.zeros_like(want)
    got[rows, cols] = coefs
    assert np.array_equal(got, want)
    assert np.array_equal(want, span)


def test_the_spanning_guard_checks_every_vector(space_factory, monkeypatch):
    # vector 55 of the 129 of a family that is not graded at (2, 6) is
    # neither among the first 50 nor a multiple of 6, so a guard that
    # samples them would miss it
    import fockmodel.ideals as ideals

    guard, counts = ideals._crosscheck_spanning, []

    def corrupted(space, span, meta):
        counts.append(span.shape[1])
        span = span.copy()
        span[np.flatnonzero(span[:, 55])[0], 55] += 1e-10
        guard(space, span, meta)

    monkeypatch.setattr(ideals, "_crosscheck_spanning", corrupted)
    with pytest.raises(RuntimeError, match="indexing bug"):
        ideal_subspace(oracle_family("custom-constant-term", 2, 6), space_factory(2, 6))
    assert counts == [129]


def test_graded_families_build_no_spanning_vectors(space_factory, monkeypatch):
    import fockmodel.ideals as ideals

    def refuse(*args):
        raise AssertionError("a graded family took the spanning route")

    monkeypatch.setattr(ideals, "_spanning_vectors", refuse)
    sub = ideal_subspace(make_spec("commutative"), space_factory(2, 7))
    assert sub.graded and sub.dim_N == 36


# ---------------------------------------------------------------------------
# the degree recurrence and the spanning route against the spanning-SVD oracle


def _assert_matches_the_oracle(sub, want, exact):
    """Exact bases off the recurrence; per-degree projectors to 1e-13 on it."""
    space = sub.space
    assert sub.graded is want.graded
    assert sub.N_basis.dtype == want.N_basis.dtype
    assert np.array_equal(sub.N_degrees, want.N_degrees)
    assert sub.dim_M == want.M_basis.shape[1]
    if exact:
        assert np.array_equal(sub.N_basis, want.N_basis)
        return
    for got, expected in zip(degree_projectors(sub.N_basis, sub.N_degrees, space),
                             degree_projectors(want.N_basis, want.N_degrees, space)):
        assert np.max(np.abs(got - expected), initial=0.0) < 1e-13
    # block diagonal: each column vanishes exactly off the rows of its degree
    assert not np.any(sub.N_basis[space.degrees[:, None] != sub.N_degrees[None, :]])
    assert sub.margin < 1.0 - _COSINE_CUT


@pytest.mark.parametrize("n, d", ORACLE_SIZES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_block_loop_reproduces_the_two_path_subspace_exactly(family, n, d, space_factory):
    # the spanning route (families that are not graded, and N = I) is
    # bit-identical to the oracle; the recurrence picks its own basis inside
    # each N_k, so graded families with relations compare projectors
    spec = oracle_family(family, n, d)
    sub = ideal_subspace(spec, space_factory(n, d))
    _assert_matches_the_oracle(sub, spanning_svd_subspace(spec, space_factory(n, d)),
                               exact=not spec.is_graded or sub.is_whole_space)


@pytest.mark.parametrize("n, d", ORACLE_SIZES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_products_by_n_and_by_the_compressed_shifts(family, n, d, space_factory):
    # lift and compress are the products by N (x) I and N* (x) I, and on the
    # whole space they hand back their argument itself; shift_adjoint is
    # (B_i* (x) I) x with the dense compression B_i = N* S_i N, bit for bit
    # on the whole space, where it is a row gather
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    rng = np.random.default_rng([n, d, 3])
    for width, cols in ((1, 4), (3, 2), (0, 3), (2, 0)):
        x, y = (rng.normal(size=(rows * width, cols, 2)) @ [1, 1j] for rows in (sub.dim_N, sub.space.dim))
        assert np.array_equal(sub.lift(x, width), kron_left(sub.N_basis, x, width))
        assert np.array_equal(sub.compress(y, width), kron_left(adj(sub.N_basis), y, width))
        if sub.is_whole_space:
            assert sub.lift(x, width) is x and sub.compress(y, width) is y
        for i in range(1, n + 1):
            got = sub.shift_adjoint(i, x, width)
            want = kron_left(adj(constrained_creation(sub, i)), x, width)
            assert got.shape == want.shape
            if sub.is_whole_space:  # the zero family, and families with no relation below d
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-14


@pytest.mark.parametrize("n, d", ORACLE_SIZES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_right_shifts_and_degree_rows_against_dense_oracles(family, n, d, space_factory):
    # degree_rows is N's rows at one degree on a column window off which
    # they vanish, the identity block on the whole space, where it builds no
    # N_basis; right_shifts gives constrained_creation's matrices and the
    # leak |(I - N N*) R_i* N| of the dense right creations
    sub = ideal_subspace(oracle_family(family, n, d), space_factory(n, d))
    space = sub.space
    windows = [sub.degree_rows(r) for r in range(d + 1)]
    if sub.is_whole_space:
        assert "N_basis" not in sub.__dict__
        assert all(np.array_equal(rows, np.eye(n**r)) for r, (_, rows) in enumerate(windows))
    nb = sub.N_basis
    for r, (cols, rows) in enumerate(windows):
        assert np.array_equal(rows, nb[space.degree_slice(r), cols])
        outside = np.ones(sub.dim_N, dtype=bool)
        outside[cols] = False
        assert not np.any(nb[space.degree_slice(r)][:, outside])
    raising, leak = sub.right_shifts()
    for got, want in zip(raising, constrained_creation_tuple(sub, "right"), strict=True):
        assert np.array_equal(got, want)
    off_n = np.eye(space.dim) - nb @ adj(nb)
    dense = max(opnorm(off_n @ adj(right_creation(space, i)) @ nb) for i in range(1, n + 1))
    assert abs(leak - dense) <= 1e-13
    assert (leak < 1e-12) == (sub.graded or sub.is_whole_space)  # co-invariant when graded


def test_same_subspace(space_factory):
    # the same object, or the same (n, d) with an equal N; equal dimensions
    # do not do: commutative and q-commutative N share dim N
    comm = ideal_subspace(make_spec("commutative"), space_factory(2, 4))
    again = ideal_subspace(make_spec("commutative"), TruncatedFockSpace(2, 4))
    q = ideal_subspace(make_spec("q_commutative", q=Q_TEST), space_factory(2, 4))
    zero = ideal_subspace(make_spec("zero"), space_factory(2, 4))
    assert comm.same_as(comm) and comm.same_as(again) and again.same_as(comm)
    assert comm.dim_N == q.dim_N and not comm.same_as(q)
    assert zero.same_as(ideal_subspace(make_spec("zero"), TruncatedFockSpace(2, 4)))
    assert not zero.same_as(comm) and not comm.same_as(zero)
    assert not zero.same_as(ideal_subspace(make_spec("zero"), TruncatedFockSpace(2, 5)))


def _symmetrizer(n, k):
    """The projector onto the symmetric tensors of degree k: 1 / #rearrangements of w on each class."""
    classes = {}
    for i, w in enumerate(itertools.product(range(n), repeat=k)):
        classes.setdefault(tuple(sorted(w)), []).append(i)
    out = np.zeros((n**k, n**k))
    for members in classes.values():
        out[np.ix_(members, members)] = 1.0 / len(members)
    return out


@pytest.mark.parametrize(
    "kind, n, d, q",
    [
        ("commutative", 2, 7, None),
        ("commutative", 3, 6, None),
        ("q_commutative", 2, 8, 0.5j),
        ("q_commutative", 3, 5, None),
        ("q_commutative", 2, 7, 0.99),
        ("q_commutative", 2, 7, 2.0),
        ("custom-mixed-degree", 2, 7, None),
        ("custom-mixed-degree", 3, 5, None),
    ],
)
def test_the_degree_recurrence_matches_the_spanning_svd(kind, n, d, q, space_factory):
    if kind == "custom-mixed-degree":
        spec = oracle_family(kind, n, d)
    else:
        spec = make_spec(kind, n=n, q=q)
    space = space_factory(n, d)
    _assert_matches_the_oracle(ideal_subspace(spec, space), spanning_svd_subspace(spec, space),
                               exact=False)


@pytest.mark.parametrize("n, d", [(2, 7), (3, 6), (2, 10)])
def test_the_commutative_recurrence_is_the_symmetric_fock_space(n, d, space_factory):
    # Arveson's symmetric Fock space: on degree k, N is the range of the
    # symmetrizer, whose entry at (w, v) is 1 / #rearrangements of w when v
    # rearranges w
    space = space_factory(n, d)
    sub = ideal_subspace(make_spec("commutative", n=n), space)
    assert sub.dim_N == commutative_dim(n, d)
    for k, got in enumerate(degree_projectors(sub.N_basis, sub.N_degrees, space)):
        assert np.max(np.abs(got - _symmetrizer(n, k))) < 1e-13
    assert 0.0 < sub.margin < 1.0 - _COSINE_CUT


@pytest.mark.parametrize(
    "polys",
    [
        [NCPoly({(): 1.0})],  # a constant: N_0 = 0, and every N_k after it
        [NCPoly({(1,): 1.0}), NCPoly({(2,): 1.0})],  # both letters: N is the vacuum
        [NCPoly({(1, 1): 1.0}), NCPoly({(2,): 1.0})],
    ],
    ids=["constant", "letters", "square-and-letter"],
)
def test_relations_that_empty_a_degree_empty_every_later_one(polys, space_factory):
    spec = PolyIdealSpec(n=2, kind="custom", polys=polys)
    sub = ideal_subspace(spec, space_factory(2, 3))
    assert sub.graded and sub.margin == 0.0
    assert (sub.dim_M, sub.dim_N) == brute_force_constraint_dims(spec, space_factory(2, 3))
    assert np.array_equal(sub.N_degrees, np.arange(sub.dim_N))


def test_a_rejected_cosine_near_one_warns(space_factory, monkeypatch):
    import fockmodel.ideals as ideals

    intersection = ideals._intersection
    monkeypatch.setattr(
        ideals, "_intersection", lambda *args: (intersection(*args)[0], 1.0 - 1e-9)
    )
    with pytest.warns(NumericalRankWarning, match="cosine"):
        sub = ideal_subspace(make_spec("commutative"), space_factory(2, 4))
    assert sub.margin == 1.0 - 1e-9 and sub.dim_N == commutative_dim(2, 4)
