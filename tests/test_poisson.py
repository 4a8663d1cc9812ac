"""Poisson-type kernels: gram identity, intertwining, constrained variants.

The scalar oracle is worked by hand: for T = [x] with |x| < 1 the kernel
columns carry weights x^k against the word basis, so K*K telescopes to
1 - |x|^(2(d+1)).  With x = 1/sqrt(2), d = 10 that is exactly 1 - 2^-11.
The free kernel is the kernel on the zero family, where N is the whole space.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ORACLE_FAMILIES,
    ORACLE_SIZES,
    Q_TEST,
    adj,
    make_spec,
    opnorm,
    oracle_family,
    oracle_tuple,
    psd_sqrt,
)
import fockmodel.linalg as linalg_module
from fockmodel import (
    ConstrainedSubspace,
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    classify,
    constrained_creation,
    constraint_residual,
    creation_targets,
    constrained_poisson_kernel,
    defects,
    ideal_subspace,
    left_creation,
    phi_power,
    right_creation,
    truncation_tail,
)
from fockmodel.fock import word_operator
from fockmodel.linalg import psd_spectrum
from fockmodel.poisson import kernel_blocks
from fockmodel.sampling import (
    commuting_diagonalizable_tuple,
    commuting_nilpotent_tuple,
    direct_sum,
    haar_unitary,
    nilpotent_pair_tuple,
    q_commuting_nilpotent_tuple,
    q_commuting_shift_tuple,
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
    res = dense_intertwining(k)
    assert set(res) == {1}
    assert max(res.values()) < 1e-12
    assert k.intertwining_check == ("eq-ker", 0.0, 1e-10)


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
    assert max(dense_intertwining(k).values()) < 1e-12
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
    assert k.gram_residual() < 1e-13
    assert k.tail_bound == pytest.approx(0.5**5)
    assert max(dense_intertwining(k).values()) < 1e-12


def test_a_kernel_leaking_off_n_is_refused(comm_sub_d4):
    # an N without the vacuum column: the kernel's vacuum block basis* Delta
    # then lies off N, and |((I - N N*) (x) I) K| measures it
    corrupted = dataclasses.replace(
        comm_sub_d4, basis=comm_sub_d4.N_basis[:, 1:], N_degrees=comm_sub_d4.N_degrees[1:]
    )
    with pytest.raises(RuntimeError, match="kernel leaks"):
        constrained_poisson_kernel(PAIR, corrupted)
    blocks = kernel_blocks(PAIR, corrupted.space, defects(PAIR))
    compressed = np.tensordot(adj(corrupted.N_basis), blocks, axes=(1, 0)).reshape(-1, 1)
    want = dense_leak(blocks, corrupted)
    assert want > 0.1
    assert abs(corrupted.leak(blocks, compressed) - want) <= 1e-13 * want


def dense_leak(blocks, sub):
    """|((I - N N*) (x) I) K| with the projector and the Kronecker product formed densely."""
    off_n = np.eye(sub.space.dim) - sub.N_basis @ adj(sub.N_basis)
    return opnorm(np.kron(off_n, np.eye(blocks.shape[1])) @ blocks.reshape(-1, blocks.shape[2]))


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_streamed_leak_is_the_dense_part_off_n(family, monkeypatch):
    # one word per chunk, so that every case is streamed over several chunks
    monkeypatch.setattr(linalg_module, "_CHUNK_ENTRIES", 1)
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        k = constrained_poisson_kernel(oracle_tuple(family, n, np.random.default_rng([n, d])), sub)
        assert abs(k.subspace_leak - dense_leak(k.blocks, sub)) < 1e-14


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_a_kernel_without_a_given_tail_has_classify_s_tail(family):
    # the kernel classifies its tuple at its own degree, so its tail is the
    # iterate classify keeps and its tail bound is truncation_tail's
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        mats = oracle_tuple(family, n, np.random.default_rng([n, d]))
        kernel = constrained_poisson_kernel(mats, sub)
        assert np.array_equal(kernel.tail, classify(mats, degree=d).tail)
        assert kernel.tail_bound == truncation_tail(mats, d)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_kernel_keeps_its_classification_and_reads_the_tail_off_it(family):
    # the kernel's classification is classify's at the space's degree, field
    # by field, and its tail is Phi^(d+1)(I) bit for bit as phi_power forms it
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        mats = oracle_tuple(family, n, np.random.default_rng([n, d]))
        kernel = constrained_poisson_kernel(mats, sub)
        cls, expected = kernel.classification, classify(mats, degree=d)
        assert (cls.pure, cls.cnc, cls.iterations, cls.rho) == (
            expected.pure, expected.cnc, expected.iterations, expected.rho
        )
        assert cls.q_limit.tobytes() == expected.q_limit.tobytes()
        assert kernel.tail is cls.tail
        assert cls.tail.tobytes() == expected.tail.tobytes() == phi_power(mats, d + 1).tobytes()


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
# two more families that are not graded, on which eq-ker checks some rows:
# x1 + 0.5 x2 x1 at (2, 6), where 1 column has degree <= d - 1, held by (0, T2);
# [x1, x2] + 0.1 x1 x1 x2 at (2, 4), where 3 do, held by commuting nilpotents
# whose products of three letters vanish
LINEAR_LEAD = PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1,): 1.0, (2, 1): 0.5})])
CUBIC_TAIL = PolyIdealSpec(
    n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (2, 1): -1.0, (1, 1, 2): 0.1})])


def _family(kind):
    """(tuple, subspace) of one relation family, at a degree with checked rows."""
    rng = np.random.default_rng(41)
    if kind == "jordan-pair":  # d_T = 1 < m = 3
        return _jordan_pair(), ideal_subspace(make_spec("zero"), TruncatedFockSpace(2, 5))
    if kind == "zero":
        return random_row_contraction(rng, 2, 3, 0.8), ideal_subspace(
            make_spec("zero"), TruncatedFockSpace(2, 4))
    if kind == "commutative":
        return commuting_nilpotent_tuple(rng, 2, 0.6), ideal_subspace(
            make_spec("commutative"), TruncatedFockSpace(2, 4))
    if kind == "q_commutative":
        return q_commuting_nilpotent_tuple(rng, Q_TEST, 0.6), ideal_subspace(
            make_spec("q_commutative"), TruncatedFockSpace(2, 4))
    if kind == "linear-lead":
        t2 = random_row_contraction(rng, 1, 3, 0.6)[0]
        return [np.zeros_like(t2), t2], ideal_subspace(LINEAR_LEAD, TruncatedFockSpace(2, 6))
    if kind == "cubic-tail":
        return commuting_nilpotent_tuple(rng, 2, 0.6), ideal_subspace(
            CUBIC_TAIL, TruncatedFockSpace(2, 4))
    return NON_GRADED_TUPLE, ideal_subspace(NON_GRADED, TruncatedFockSpace(2, 3))


FAMILIES = ["zero", "commutative", "q_commutative", "non-graded", "linear-lead", "cubic-tail"]


def dense_intertwining(kernel):
    """The residuals of K T_i* = (B_i* (x) I) K with B_i = N* S_i N formed densely."""
    sub, d_T = kernel.sub, kernel.d_T
    rows = sub.n_cols_up_to(sub.space.d - 1) * d_T
    resh = kernel.matrix.reshape(sub.dim_N, d_T, kernel.matrix.shape[1])
    out = {}
    for i in range(1, sub.space.n + 1):
        b = adj(sub.N_basis) @ left_creation(sub.space, i) @ sub.N_basis
        lhs = kernel.matrix @ adj(kernel.mats[i - 1])
        rhs = np.tensordot(adj(b), resh, axes=(1, 0)).reshape(kernel.matrix.shape)
        out[i] = opnorm((lhs - rhs)[:rows, :])
    return out


@pytest.mark.parametrize("kind", FAMILIES)
def test_constrained_creation_is_the_dense_compression(kind):
    # on the zero family N = I, and the compression is the creation operator
    # itself, entry for entry
    _, sub = _family(kind)
    for side, dense in (("left", left_creation), ("right", right_creation)):
        for i in (1, 2):
            got = constrained_creation(sub, i, side)
            if sub.is_whole_space:
                assert np.array_equal(got, dense(sub.space, i))
            want = adj(sub.N_basis) @ dense(sub.space, i) @ sub.N_basis
            assert opnorm(got - want) < 1e-14


def dense_top_spill(sub):
    """|N_c,top|: N's columns of degree <= d - 1 on the top-degree words, by numpy's SVD."""
    d = sub.space.d
    return opnorm(sub.N_basis[sub.space.degree_slice(d), : sub.n_cols_up_to(d - 1)])


def _forbidden(*args, **kwargs):
    raise AssertionError("eq-ker applied B_i*")


def assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch):
    """eq-ker is leak + |N_c,top|, read without applying B_i*, and the dense residual lies below it."""
    sub = kernel.sub
    with monkeypatch.context() as patch:
        patch.setattr(ConstrainedSubspace, "shift_adjoint", _forbidden)
        name, residual, tolerance = kernel.intertwining_check
    assert (name, tolerance) == ("eq-ker", 1e-10)
    assert residual == kernel.subspace_leak + sub.top_spill
    assert sub.top_spill == pytest.approx(dense_top_spill(sub), rel=1e-13, abs=0.0)
    assert max(dense_intertwining(kernel).values()) <= residual


def test_the_top_spill_is_the_norm_of_the_low_degree_columns_on_the_top_words():
    # relabelled one degree lower, the top-degree columns of a family that is
    # not graded spill all their top-degree mass
    _, sub = _family("linear-lead")
    assert sub.top_spill == 0.0
    relabelled = dataclasses.replace(sub, N_degrees=np.minimum(sub.N_degrees, sub.space.d - 1))
    want = dense_top_spill(relabelled)
    assert want > 0.1
    assert relabelled.top_spill == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("kind", FAMILIES + ["jordan-pair"])
def test_eq_ker_bounds_the_dense_residual_on_the_checked_rows(kind, monkeypatch):
    mats, sub = _family(kind)
    kernel = constrained_poisson_kernel(mats, sub)
    assert sub.n_cols_up_to(sub.space.d - 1) > 0  # some rows are checked
    assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch)
    assert kernel.intertwining_check[1] < 1e-13


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_eq_ker_bounds_the_dense_residual_on_the_oracle_families(family, monkeypatch):
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        for seed in range(3):
            kernel = constrained_poisson_kernel(oracle_tuple(family, n, np.random.default_rng(seed)), sub)
            assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch)


# (tuple of a seed, relation family, d): the relation-family samplers; all but the first have a tail
SAMPLERS = {
    "commuting-nilpotent": (lambda rng: commuting_nilpotent_tuple(rng, 3, 0.7), make_spec("commutative", n=3), 5),
    "commuting-diagonalizable": (lambda rng: commuting_diagonalizable_tuple(rng, 2, 4, 0.7),
                                 make_spec("commutative"), 6),
    "q-shift-8": (lambda rng: q_commuting_shift_tuple(rng, 8, -1, 0.7), make_spec("q_commutative", q=-1), 8),
    "q-shift-32": (lambda rng: q_commuting_shift_tuple(rng, 32, -1, 0.7), make_spec("q_commutative", q=-1), 8),
}


@pytest.mark.parametrize("case", SAMPLERS.values(), ids=SAMPLERS.keys())
def test_eq_ker_bounds_the_dense_residual_on_the_samplers(case, monkeypatch):
    make, spec, d = case
    sub = ideal_subspace(spec, TruncatedFockSpace(spec.n, d))
    for seed in (11, 12, 13):
        kernel = constrained_poisson_kernel(make(np.random.default_rng(seed)), sub)
        assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch)


def _pushed(mats, eps):
    """Every T_i moved by eps E_i, E_i a complex Gaussian matrix scaled to norm 1."""
    rng = np.random.default_rng(61)
    out = []
    for t in mats:
        e = rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape)
        out.append(t + eps * e / opnorm(e))
    return out


@pytest.mark.parametrize("case", ["commuting-diagonalizable", "q-shift-8"])
def test_eq_ker_passes_on_a_tuple_pushed_off_its_relations_within_the_gate(case, monkeypatch):
    # the builder refuses a leak only above 1e-6, but eq-ker's tolerance is
    # 1e-10: pushed off its relations by 6e-11, inside the relations gate
    # (1e-10), the tuple leaks about as much as its relation residual, and
    # the bound passes
    make, spec, d = SAMPLERS[case]
    sub = ideal_subspace(spec, TruncatedFockSpace(spec.n, d))
    mats = _pushed(make(np.random.default_rng(11)), 6e-11)
    relation_residual = constraint_residual(mats, spec)
    assert 1e-11 < relation_residual <= 1e-10
    kernel = constrained_poisson_kernel(mats, sub)
    assert 0.5 * relation_residual < kernel.subspace_leak < 2 * relation_residual
    assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch)
    _, residual, tolerance = kernel.intertwining_check
    assert residual <= tolerance


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
    row = np.hstack(mats)
    lead = adj(dft.basis) @ psd_sqrt(np.eye(3) - row @ adj(row))  # basis* Delta, formed here
    assert opnorm(blocks[0] - lead) <= 1e-14
    for w, block in zip(space.words, blocks):
        want = lead @ word_operator(space, tuple(reversed(w)), [adj(t) for t in mats])
        assert opnorm(block - want) < 1e-14


# ---------------------------------------------------------------------------
# the in-place recursion against the gathered one, and what it allocates


def gathered_kernel_blocks(mats, space, defect):
    """The blocks by fancy indexing: each product formed, then scattered to its target rows."""
    m = mats[0].shape[0]
    blocks = np.empty((space.dim, defect.d_T, m), dtype=complex)
    blocks[0] = np.sqrt(defect.eigvals)[:, None] * adj(defect.basis)
    for k in range(space.d):
        parents = space.degree_slice(k)
        for a, t in enumerate(mats, start=1):
            blocks[creation_targets(space, a, "left")[parents]] = blocks[parents] @ adj(t)
    return blocks


def _jordan_pair():
    # T1 = the nilpotent Jordan block, T2 = 0: I - T1 T1* = diag(0, 0, 1)
    return [np.eye(3, k=1, dtype=complex), np.zeros((3, 3), dtype=complex)]


def _coisometry(n, m):
    # the rows [T_1 ... T_n] of a Haar unitary: sum T_i T_i* = I
    rows = haar_unitary(n * m, np.random.default_rng(49))[:m]
    return [rows[:, i * m : (i + 1) * m] for i in range(n)]


ORACLE_CASES = {
    "d0": (lambda: random_row_contraction(np.random.default_rng(51), 2, 3, 0.8), 2, 0, 3),
    "n1": (lambda: random_row_contraction(np.random.default_rng(52), 1, 3, 0.8), 1, 6, 3),
    "dense-n3": (lambda: random_row_contraction(np.random.default_rng(53), 3, 4, 0.8), 3, 3, 4),
    "rank-deficient": (_jordan_pair, 2, 5, 1),
    "co-isometric": (lambda: _coisometry(2, 3), 2, 4, 0),
    "direct-sum": (lambda: direct_sum(random_row_contraction(np.random.default_rng(54), 2, 3, 0.6),
                                      random_row_contraction(np.random.default_rng(56), 2, 2, 0.6)), 2, 4, 5),
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_in_place_blocks_equal_the_gathered_recursion(case):
    make, n, d, d_T = case
    mats = make()
    space = TruncatedFockSpace(n, d)
    dft = defects(mats)
    assert dft.d_T == d_T
    got = kernel_blocks(mats, space, dft)
    assert got.shape == (space.dim, d_T, mats[0].shape[0])
    assert np.array_equal(got, gathered_kernel_blocks(mats, space, dft))


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_the_derived_star_spectrum_is_the_nm_eigh(case):
    # I - R*R has the spectrum of I - R R* padded with (n - 1) m ones; the
    # oracle decomposes the nm x nm matrix itself under the same cut
    make, n, _, _ = case
    mats = make()
    m = mats[0].shape[0]
    row = np.hstack(mats)
    w, v = np.linalg.eigh(np.eye(n * m) - adj(row) @ row)
    _, _, want = psd_spectrum(w, v)
    dft = defects(mats)
    assert dft.d_star == want.size
    assert np.max(np.abs(dft.eigvals_star - want), initial=0.0) <= 1e-13
    assert np.count_nonzero(dft.eigvals_star == 1.0) >= (n - 1) * m  # the padding, exactly
    assert dft.basis_star.shape == (n * m, dft.d_star)  # the lazy eigh keeps as many


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,d,m", [(2, 6, 24), (3, 4, 16)])
def test_kernel_blocks_allocate_no_gathered_copies(n, d, m, subspace_factory):
    mats = random_row_contraction(np.random.default_rng(55), n, m, 0.9)
    sub = subspace_factory("zero", n=n, d=d)
    dft = defects(mats)
    assert dft.d_T == m
    blocks, peak = _traced_peak(kernel_blocks, mats, sub.space, dft)
    # the blocks themselves, and nothing of their size besides
    assert peak <= 1.05 * blocks.nbytes


# ---------------------------------------------------------------------------
# eq-ker on the whole space is the kernel's recursion: the bound and the
# dense residual both read exactly 0.0

# (tuple, n, d): the oracle layouts and two wide draws, all on the zero family
WHOLE_SPACE_CASES = {name: (make, n, d) for name, (make, n, d, _) in ORACLE_CASES.items()} | {
    "wide-n2": (lambda: random_row_contraction(np.random.default_rng(57), 2, 24, 0.9), 2, 6),
    "wide-n3": (lambda: random_row_contraction(np.random.default_rng(58), 3, 16, 0.9), 3, 4),
}


@pytest.mark.parametrize("case", WHOLE_SPACE_CASES.values(), ids=WHOLE_SPACE_CASES.keys())
def test_whole_space_eq_ker_and_the_dense_residual_read_zero(case, subspace_factory, monkeypatch):
    # the target rows of (S_i* (x) I) K are the products K T_i* the recursion
    # wrote, so the dense residual is exactly zero, and so is the bound
    make, n, d = case
    kernel = constrained_poisson_kernel(make(), subspace_factory("zero", n=n, d=d))
    assert kernel.sub.is_whole_space
    assert kernel.intertwining_check == ("eq-ker", 0.0, 1e-10)
    assert_eq_ker_bounds_the_dense_residual(kernel, monkeypatch)
