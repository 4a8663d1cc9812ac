"""Row contractions: validation, defects, purity/cnc classification, tails."""

import numpy as np
import pytest

from conftest import adj, make_spec, opnorm, psd_sqrt
from fockmodel import (
    PolyIdealSpec,
    TriState,
    classify,
    constrained_creation_tuple,
    constraint_residual,
    defects,
    ideal_subspace,
    phi_power,
    phi_step,
    row_matrix,
    spectral_radius_of_phi,
    truncation_tail,
    validate,
)
import fockmodel.contractions as contractions
from fockmodel.linalg import NumericalRankWarning
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    haar_unitary,
    nilpotent_pair_tuple,
    random_row_contraction,
)

SCALAR_PAIR = [np.array([[0.5]]), np.array([[0.5]])]


def test_validate_accepts_contraction():
    v = validate(SCALAR_PAIR)
    assert v.is_row_contraction
    assert v.row_norm == pytest.approx(np.sqrt(0.5))
    assert v.messages == []


def test_validate_rejects_row_norm_above_one():
    bad = [np.array([[np.sqrt(0.6)]]), np.array([[np.sqrt(0.6)]])]
    v = validate(bad)
    assert not v.is_row_contraction
    assert v.row_norm**2 == pytest.approx(1.2)
    assert any("exceeds" in msg for msg in v.messages)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        validate([np.zeros((2, 2)), np.zeros((3, 3))])


def test_compressed_shifts_are_a_row_contraction(subspace_factory):
    sub = subspace_factory("commutative", d=4)
    b = constrained_creation_tuple(sub, "left")
    assert validate(b).is_row_contraction


def test_row_matrix_layout():
    r = row_matrix(SCALAR_PAIR)
    assert np.allclose(r, [[0.5, 0.5]])


# ---------------------------------------------------------------------------
# defect operators


def _assert_eigen_data(mats, d):
    """The defects' eigen-data against the dense squared defects, each to 1e-14.

    basis diag(eigvals) basis* is I - sum T_i T_i* on the kept range, and
    basis_star * sqrt(eigvals_star) is (I - R*R)^(1/2) basis_star with the
    root formed here.
    """
    r = row_matrix(mats)
    g, g_star = np.eye(r.shape[0]) - r @ adj(r), np.eye(r.shape[1]) - adj(r) @ r
    kept = d.basis @ adj(d.basis)
    assert opnorm((d.basis * d.eigvals) @ adj(d.basis) - kept @ g @ kept) <= 1e-14
    root_star = psd_sqrt(g_star) @ d.basis_star
    assert opnorm(d.basis_star * np.sqrt(d.eigvals_star) - root_star) <= 1e-14


def test_defects_of_the_scalar_pair():
    d = defects(SCALAR_PAIR)
    _assert_eigen_data(SCALAR_PAIR, d)
    # squared-defect spectra, descending
    assert np.allclose(d.eigvals, [0.5])
    assert np.allclose(d.eigvals_star, [1.0, 0.5])
    assert (d.d_T, d.d_star) == (1, 2)
    assert d.basis.shape == (1, 1)
    assert d.basis_star.shape == (2, 2)
    # bases are isometries onto the defect ranges
    assert opnorm(adj(d.basis) @ d.basis - np.eye(1)) < 1e-12
    assert opnorm(adj(d.basis_star) @ d.basis_star - np.eye(2)) < 1e-12


def test_defects_of_zero_and_coisometric_tuples():
    zero = [np.zeros((1, 1)), np.zeros((1, 1))]
    dz = defects(zero)
    assert np.array_equal(dz.eigvals, [1.0]) and np.array_equal(dz.eigvals_star, [1.0, 1.0])
    assert opnorm((dz.basis_star * dz.eigvals_star) @ adj(dz.basis_star) - np.eye(2)) < 1e-14
    assert (dz.d_T, dz.d_star) == (1, 2)
    _assert_eigen_data(zero, dz)
    dc = defects([np.array([[1.0]])])
    assert (dc.d_T, dc.d_star) == (0, 0)
    assert dc.eigvals.size == dc.eigvals_star.size == 0
    _assert_eigen_data([np.array([[1.0]])], dc)


def test_defects_conjugation_covariance():
    rng = np.random.default_rng(11)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    from fockmodel.sampling import conjugated_tuple, haar_unitary

    u = haar_unitary(3, rng)
    d = defects(mats)
    du = defects(conjugated_tuple(mats, u))
    square = (d.basis * d.eigvals) @ adj(d.basis)
    assert opnorm((du.basis * du.eigvals) @ adj(du.basis) - u @ square @ adj(u)) <= 1e-14
    ubig = np.kron(np.eye(2), u)
    square_star = (d.basis_star * d.eigvals_star) @ adj(d.basis_star)
    moved = (du.basis_star * du.eigvals_star) @ adj(du.basis_star)
    assert opnorm(moved - ubig @ square_star @ adj(ubig)) <= 1e-14
    _assert_eigen_data(conjugated_tuple(mats, u), du)


@pytest.mark.parametrize("gap, rank", [(1e-9, 1), (5e-11, 0)])
def test_defect_rank_warns_in_the_ambiguous_band(gap, rank):
    with pytest.warns(NumericalRankWarning):
        d = defects([np.array([[np.sqrt(1.0 - gap)]])])
    assert d.d_T == d.d_star == rank  # the cutoff 1e-10 still decides
    assert np.allclose(d.eigvals, [gap] * rank, rtol=1e-5, atol=0.0)


def test_the_lazy_star_basis_must_keep_the_derived_rank(monkeypatch):
    rng = np.random.default_rng(13)
    d = defects(random_row_contraction(rng, 2, 3, 0.8))
    assert d.d_star == 6
    cut = contractions.psd_spectrum

    def one_short(w, v):  # a rank cut that drops the smallest kept eigenvalue
        w, basis, kept = cut(w, v)
        return w, basis[:, :-1], kept[:-1]

    monkeypatch.setattr(contractions, "psd_spectrum", one_short)
    with pytest.raises(RuntimeError, match=r"keeps 5 eigenvectors .* d_star = 6"):
        d.basis_star
    with pytest.raises(RuntimeError, match="keeps 5"):  # a failed build is not kept
        d.basis_star


def test_defects_refuse_a_non_contraction():
    with pytest.raises(ValueError, match="not PSD"):
        defects([np.array([[1.01]])])


# ---------------------------------------------------------------------------
# the completely positive map and its iterates


def test_phi_step_and_power():
    q1 = phi_step(SCALAR_PAIR, np.eye(1))
    assert q1[0, 0] == pytest.approx(0.5)
    assert phi_power(SCALAR_PAIR, 3)[0, 0] == pytest.approx(0.5**3)
    assert phi_power(SCALAR_PAIR, 0)[0, 0] == 1.0


def test_iterates_decrease_monotonically():
    rng = np.random.default_rng(7)
    mats = random_row_contraction(rng, 2, 4, 0.9)
    prev = np.eye(4)
    for _ in range(6):
        cur = phi_step(mats, prev)
        gap = np.linalg.eigvalsh(prev - cur)
        assert gap.min() > -1e-12
        prev = cur


def test_iterate_norm_bounded_by_rho_powers():
    rng = np.random.default_rng(8)
    mats = random_row_contraction(rng, 2, 3, 0.7)
    rho = opnorm(phi_step(mats, np.eye(3)))
    for k in (2, 5, 9):
        assert opnorm(phi_power(mats, k)) <= rho**k + 1e-12


def test_spectral_radius_scalar():
    assert spectral_radius_of_phi(SCALAR_PAIR) == pytest.approx(0.5)


def test_truncation_tail_values():
    assert truncation_tail([np.array([[np.sqrt(0.5)]])], 10) == pytest.approx(0.5**11)
    rng = np.random.default_rng(9)
    nil = nilpotent_pair_tuple(rng, 2, 0.8)
    assert truncation_tail(nil, 6) == 0.0  # strictly nilpotent: exact


# ---------------------------------------------------------------------------
# classification


def test_classify_pure_scalar_pair():
    c = classify(SCALAR_PAIR)
    assert c.pure is TriState.YES
    assert c.cnc is TriState.YES
    assert c.rho == pytest.approx(0.5)
    assert opnorm(c.q_limit) < 1e-8


def test_classify_coisometry_is_neither():
    c = classify([np.array([[1.0]])])
    assert c.pure is TriState.NO
    assert c.cnc is TriState.NO


def test_classify_stationary_identity():
    mats = [np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]
    c = classify(mats)
    assert c.pure is TriState.NO
    assert c.cnc is TriState.NO
    assert opnorm(c.q_limit - np.eye(2)) < 1e-12
    # the limit is a fixed point of the map
    assert opnorm(phi_step(mats, c.q_limit) - c.q_limit) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_classify_never_pairs_cnc_yes_with_pure_no(seed):
    rng = np.random.default_rng(seed)
    mats = random_row_contraction(rng, 2, 3, float(rng.uniform(0.3, 0.99)))
    c = classify(mats)
    assert not (c.cnc is TriState.YES and c.pure is TriState.NO)
    if c.pure is TriState.YES:
        assert c.cnc is TriState.YES


def test_classify_iteration_budget():
    # a slow-converging contraction stays undetermined instead of guessing
    c = classify([np.array([[0.9999]])], k_max=10)
    assert c.pure is TriState.UNDETERMINED
    assert c.iterations <= 10


def _classify_oracle(mats, k_max=500, tol=1e-9):
    """The classification loop that decomposes at every iteration: an SVD
    norm of the step Q_k - Q_(k-1) and an eigvalsh of Q_k."""
    m = mats[0].shape[0]
    q = np.eye(m, dtype=complex)
    rho = opnorm(phi_step(mats, q))
    pure = cnc = TriState.UNDETERMINED
    iterations = 0
    for k in range(1, k_max + 1):
        q_next = phi_step(mats, q)
        q_next = 0.5 * (q_next + adj(q_next))
        step = opnorm(q_next - q)
        q = q_next
        iterations = k
        lam_max = float(np.linalg.eigvalsh(q)[-1]) if m else 0.0
        if lam_max < tol:
            pure = TriState.YES
        if lam_max < 1.0 - tol:
            cnc = TriState.YES
        if step < 1e-14 * max(1.0, rho):
            if pure is TriState.UNDETERMINED:
                pure = TriState.NO if lam_max >= tol else TriState.YES
            if cnc is TriState.UNDETERMINED:
                cnc = TriState.NO if lam_max >= 1.0 - tol else TriState.YES
            break
        if pure is TriState.YES and cnc is TriState.YES:
            break
    return pure, cnc, iterations, q


def _row_coisometry(rng, n, m):
    """sum T_i T_i* = I: the rows of a Haar unitary, cut into n blocks."""
    r = haar_unitary(n * m, rng)[:m]
    return [r[:, i * m : (i + 1) * m] for i in range(n)]


def _with_unitary_part(mats, u):
    """T_i (+) U / sqrt(n): a pure part next to a norm-preserved one."""
    n = len(mats)
    m, k = mats[0].shape[0], u.shape[0]
    out = []
    for t in mats:
        big = np.zeros((m + k, m + k), dtype=complex)
        big[:m, :m] = t
        big[m:, m:] = u / np.sqrt(n)
        out.append(big)
    return out


def _classify_corpus():
    rng = np.random.default_rng(61)
    cases = {}
    for rho in (0.5, 0.95, 0.99):
        cases[f"nilpotent-{rho}"] = (commuting_nilpotent_tuple(rng, 2, rho), {})
        cases[f"dense-{rho}"] = (random_row_contraction(rng, 2, 12, rho), {})
    cases["row-coisometry"] = (_row_coisometry(rng, 2, 5), {})
    cases["with-unitary-part"] = (
        _with_unitary_part(random_row_contraction(rng, 2, 4, 0.5), haar_unitary(2, rng)), {}
    )
    cases["zero"] = ([np.zeros((3, 3)), np.zeros((3, 3))], {})
    cases["m1"] = (SCALAR_PAIR, {})
    cases["budget"] = ([np.array([[0.9999]])], {"k_max": 10})
    for tol in (1e-12, 1e-6, 0.3):
        cases[f"tol-{tol}"] = (random_row_contraction(rng, 2, 6, 0.9), {"tol": tol})
    return cases


CLASSIFY_CORPUS = _classify_corpus()


@pytest.mark.parametrize("case", CLASSIFY_CORPUS)
def test_classify_matches_the_decompose_every_step_oracle(case):
    mats, kwargs = CLASSIFY_CORPUS[case]
    pure, cnc, iterations, q = _classify_oracle(mats, **kwargs)
    c = classify(mats, **kwargs)
    assert (c.pure, c.cnc, c.iterations) == (pure, cnc, iterations)
    assert np.abs(c.q_limit - q).max() <= 1e-15


@pytest.mark.parametrize("degree", [0, 3, 12])
@pytest.mark.parametrize("case", CLASSIFY_CORPUS)
def test_classify_keeps_the_truncation_tail(case, degree):
    # Q_(d+1) is kept whether the verdicts settle before step d + 1 (the
    # iteration then continues to it) or after; the verdicts, the iteration
    # count and q_limit are those of a call without the degree
    mats, kwargs = CLASSIFY_CORPUS[case]
    plain, c = classify(mats, **kwargs), classify(mats, degree=degree, **kwargs)
    assert plain.tail is None
    assert (c.pure, c.cnc, c.iterations, c.rho) == (plain.pure, plain.cnc, plain.iterations, plain.rho)
    assert np.array_equal(c.q_limit, plain.q_limit)
    assert np.array_equal(c.tail, phi_power(mats, degree + 1))
    assert np.array_equal(c.tail, adj(c.tail))


def test_the_corpus_reaches_every_verdict():
    verdicts = {_classify_oracle(mats, **kw)[:2] for mats, kw in CLASSIFY_CORPUS.values()}
    assert (TriState.YES, TriState.YES) in verdicts
    assert (TriState.NO, TriState.NO) in verdicts
    assert (TriState.UNDETERMINED, TriState.YES) in verdicts


@pytest.mark.parametrize("seed, rho", [(0, 0.5), (1, 0.9), (2, 0.99)])
def test_classify_decides_a_dense_pure_tuple_from_the_diagonal(seed, rho, monkeypatch):
    mats = random_row_contraction(np.random.default_rng(seed), 2, 64, rho)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("classify took an SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(np.linalg, "svd", refused)
    c = classify(mats)
    assert (c.pure, c.cnc) == (TriState.YES, TriState.YES)
    assert c.iterations > 10
    # rho and lambda_max(Q_1) share one eigvalsh of Phi(I): 3 or 4 calls, not 4 or 5
    q_1 = sum(t @ adj(t) for t in mats)
    assert sum(np.abs(a - q_1).max() < 1e-12 for a in calls) == 1
    assert len(calls) <= 4


# ---------------------------------------------------------------------------
# relation residuals


def test_constraint_residual_zero_for_commuting():
    assert constraint_residual(SCALAR_PAIR, make_spec("commutative")) == 0.0


def test_constraint_residual_positive_for_generic():
    rng = np.random.default_rng(5)
    mats = [m / 4 for m in (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]
    assert constraint_residual(mats, make_spec("commutative")) > 1e-2


def test_constraint_residual_q_pair():
    q = np.exp(1j * np.pi / 3)
    t1 = np.array([[0, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    t2 = np.diag([1, q]) / np.sqrt(2)
    spec = PolyIdealSpec(n=2, kind="q_commutative", q=q)
    assert constraint_residual([t1, t2], spec) < 1e-12
    assert constraint_residual([t1, t2], make_spec("commutative")) > 1e-2


def test_constraint_residual_zero_family_is_trivially_zero():
    rng = np.random.default_rng(12)
    mats = random_row_contraction(rng, 2, 3, 0.9)
    assert constraint_residual(mats, make_spec("zero")) == 0.0
