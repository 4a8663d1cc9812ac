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
import fockmodel.poisson as poisson_module
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    classify,
    constrained_creation,
    creation_targets,
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
from fockmodel.linalg import psd_spectrum
from fockmodel.poisson import kernel_blocks
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    direct_sum,
    haar_unitary,
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
    assert k.gram_residual() < 1e-13
    assert k.tail_bound == pytest.approx(0.5**5)
    assert max(verify_intertwining(k).values()) < 1e-12


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
    # phi_power hermitizes every iterate as classify does, so the tail a
    # kernel computes for itself is bit for bit the one classify hands it
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        mats = oracle_tuple(family, n, np.random.default_rng([n, d]))
        own = constrained_poisson_kernel(mats, sub)
        given = constrained_poisson_kernel(mats, sub, classification=classify(mats, degree=d))
        assert np.array_equal(own.tail, given.tail)
        assert own.tail_bound == given.tail_bound == truncation_tail(mats, d)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_the_kernel_keeps_its_classification_and_reads_the_tail_off_it(family):
    # a classification made with the degree carries Phi^(d+1)(I), which the
    # kernel takes as its own tail; one made without it carries none, and the
    # kernel forms the tail by phi_power, bit for bit the same
    for n, d in ORACLE_SIZES:
        sub = ideal_subspace(oracle_family(family, n, d), TruncatedFockSpace(n, d))
        mats = oracle_tuple(family, n, np.random.default_rng([n, d]))
        cls, bare = classify(mats, degree=d), classify(mats)
        kernel = constrained_poisson_kernel(mats, sub, classification=cls)
        assert kernel.classification is cls and kernel.tail is cls.tail
        assert bare.tail is None
        unformed = constrained_poisson_kernel(mats, sub, classification=bare)
        assert unformed.classification is bare
        assert unformed.tail.tobytes() == phi_power(mats, d + 1).tobytes() == cls.tail.tobytes()
        assert constrained_poisson_kernel(mats, sub).classification is None


def test_the_kernel_refuses_a_classification_from_another_degree():
    # classify(mats, degree=3) carries Phi^4(I): at zero (2, 6) its norm reads
    # 0.0503 against the true tail 0.00306, a K*K tolerance 16x too loose;
    # the kernel names both degrees instead, and takes the matching one
    mats = random_row_contraction(np.random.default_rng(0), 2, 3, 0.9)
    sub = ideal_subspace(PolyIdealSpec(n=2), TruncatedFockSpace(2, 6))
    wrong = classify(mats, degree=3)
    assert wrong.degree == 3 and classify(mats).degree is None
    assert truncation_tail(mats, 3) > 16 * truncation_tail(mats, 6)
    with pytest.raises(ValueError, match="made at degree 3, kernel at degree 6"):
        constrained_poisson_kernel(mats, sub, classification=wrong)
    kernel = constrained_poisson_kernel(mats, sub, classification=classify(mats, degree=6))
    assert kernel.tail_bound == truncation_tail(mats, 6)


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


# (family, words per chunk, None for the default chunks): the families, two
# of them in chunks whose boundaries fall inside degree blocks, and d_T < m
INTERTWINING_CASES = {kind: (kind, None) for kind in FAMILIES} | {
    "zero-chunked": ("zero", 5),
    "commutative-chunked": ("commutative", 2),
    "jordan-pair": ("jordan-pair", None),
}


@pytest.mark.parametrize("case", INTERTWINING_CASES.values(), ids=INTERTWINING_CASES.keys())
def test_intertwining_matches_the_dense_route(case, monkeypatch):
    kind, words_per_chunk = case
    mats, sub = _family(kind)
    kernel = constrained_poisson_kernel(mats, sub)
    checked = sub.n_cols_up_to(sub.space.d - 1)
    assert checked > 0  # some rows are checked
    if words_per_chunk is not None:
        # chunks of a few words, whose boundaries fall inside degree blocks
        word_entries = kernel.d_T * kernel.matrix.shape[1]
        monkeypatch.setattr(linalg_module, "_CHUNK_ENTRIES", words_per_chunk * word_entries)
        starts = range(words_per_chunk, checked, words_per_chunk)
        assert any(w not in sub.N_degrees.searchsorted(range(sub.space.d + 1)) for w in starts)
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
def test_kernel_and_intertwining_allocate_no_gathered_copies(n, d, m, subspace_factory, monkeypatch):
    mats = random_row_contraction(np.random.default_rng(55), n, m, 0.9)
    sub = subspace_factory("zero", n=n, d=d)
    dft = defects(mats)
    assert dft.d_T == m
    blocks, peak = _traced_peak(kernel_blocks, mats, sub.space, dft)
    # the blocks themselves, and nothing of their size besides
    assert peak <= 1.05 * blocks.nbytes
    kernel = constrained_poisson_kernel(mats, sub)
    # chunks of three words, far fewer than the checked rows
    monkeypatch.setattr(linalg_module, "_CHUNK_ENTRIES", 3 * m * m)
    residuals, peak = _traced_peak(verify_intertwining, kernel)
    assert set(residuals) == set(range(1, n + 1))
    # one chunk buffer, which every chunk and generator reuses, and the m x m
    # work of the Gram route: at most five m x m complex arrays at once (T_i*,
    # the running sum, a chunk's Gram and the 2m x 2m real product it comes
    # from), of which the bound allows six
    chunk, work = 3 * dft.d_T * m * 16, 6 * m * m * 16
    assert peak <= 1.1 * chunk + work
    assert chunk + work < sub.n_cols_up_to(d - 1) * dft.d_T * m * 16 / 2  # not the checked rows


# ---------------------------------------------------------------------------
# eq-ker on the whole space is the kernel's recursion, read off as 0.0

# (tuple, n, d): the oracle layouts and two wide draws, all on the zero family
WHOLE_SPACE_CASES = {name: (make, n, d) for name, (make, n, d, _) in ORACLE_CASES.items()} | {
    "wide-n2": (lambda: random_row_contraction(np.random.default_rng(57), 2, 24, 0.9), 2, 6),
    "wide-n3": (lambda: random_row_contraction(np.random.default_rng(58), 3, 16, 0.9), 3, 4),
}


def _unmeasured(*args, **kwargs):
    raise AssertionError("eq-ker measured on the whole space")


@pytest.mark.parametrize("case", WHOLE_SPACE_CASES.values(), ids=WHOLE_SPACE_CASES.keys())
def test_whole_space_eq_ker_is_the_recursion_and_reads_zero(case, subspace_factory, monkeypatch):
    # the premise of the shortcut: the measured residual is exactly zero,
    # because the target rows of (S_i* (x) I) K are the products K T_i* the
    # recursion wrote; the check then reads it off without measuring
    make, n, d = case
    kernel = constrained_poisson_kernel(make(), subspace_factory("zero", n=n, d=d))
    assert kernel.sub.is_whole_space
    residuals = verify_intertwining(kernel)
    assert set(residuals) == set(range(1, n + 1))
    assert all(r == 0.0 for r in residuals.values()), residuals
    monkeypatch.setattr(poisson_module, "verify_intertwining", _unmeasured)
    assert kernel.intertwining_check == ("eq-ker", 0.0, 1e-10)


@pytest.mark.parametrize("kind", ["commutative", "q_commutative", "non-graded"])
def test_relation_family_eq_ker_is_measured(kind, monkeypatch):
    mats, sub = _family(kind)
    kernel = constrained_poisson_kernel(mats, sub)
    assert not sub.is_whole_space
    calls = []

    def counted(k):
        calls.append(k)
        return verify_intertwining(k)

    monkeypatch.setattr(poisson_module, "verify_intertwining", counted)
    name, residual, tolerance = kernel.intertwining_check
    assert kernel.intertwining_check is kernel.intertwining_check  # measured once and kept
    assert len(calls) == 1 and calls[0] is kernel
    assert (name, tolerance) == ("eq-ker", 1e-10)
    want = max(verify_intertwining(kernel).values())
    assert np.float64(residual).tobytes() == np.float64(want).tobytes()
