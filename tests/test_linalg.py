"""The operator norms against numpy's SVD norm, the basis fixed by a projector,
the principal angles against scipy's ``subspace_angles``, the Kronecker
helpers against ``np.kron`` and the column phases against their loop.

scipy is imported here and nowhere in the package: it is the independent
oracle of ``principal_angles``.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from fockmodel.linalg import (
    canonical_phase,
    gap_frobenius,
    gram,
    hermitian_norm,
    kron_inner,
    kron_left,
    kron_right,
    opnorm,
    principal_angles,
    projector_basis,
    row_gram,
    stacked_opnorm,
)

SHAPES = {"tall": (37, 5), "wide": (4, 29), "square": (16, 16),
          "wide-2": (19, 38), "wide-3": (13, 39)}
SCALES = [1.0, 1e-200, 1e200, 1e-150, 1e150]


def _sample(shape, complex_entries, scale):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    if complex_entries:
        a = a + 1j * rng.normal(size=shape)
    return a * scale


@pytest.mark.parametrize("scale", SCALES, ids=["unit", "1e-200", "1e200", "1e-150", "1e150"])
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_opnorm_matches_the_svd_norm(shape, complex_entries, scale):
    a = _sample(shape, complex_entries, scale)
    # every layout: contiguous, transposed, adjoint, Fortran-ordered and strided
    for view in (a, a.T, a.conj().T, np.asfortranarray(a), a[::2], a[:, ::2]):
        want = np.linalg.norm(view, 2)
        assert abs(opnorm(view) - want) <= 1e-14 * want


@pytest.mark.parametrize("dtype", [float, complex, int], ids=["float", "complex", "int"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_opnorm_takes_no_svd_on_any_layout(shape, dtype, monkeypatch):
    from fockmodel import linalg

    rng = np.random.default_rng(sum(shape))
    a = rng.integers(-9, 10, size=shape) if dtype is int else _sample(shape, dtype is complex, 1.0)
    views = (a, np.asfortranarray(a), a.T, a.conj().T, a[::2], a[:, ::2], a[::2, ::3].T)
    wants = [np.linalg.norm(view, 2) for view in views]

    def refuse(*args, **kwargs):
        raise AssertionError("opnorm reached an SVD")

    monkeypatch.setattr(linalg.np.linalg, "svd", refuse)
    monkeypatch.setattr(linalg.np.linalg, "norm", refuse)
    for view, want in zip(views, wants):
        assert abs(opnorm(view) - want) <= 1e-14 * want


@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_of_zero_and_empty_matrices(dtype):
    assert opnorm(np.zeros((6, 3), dtype=dtype)) == 0.0
    assert opnorm(np.zeros((0, 3), dtype=dtype)) == 0.0


def test_opnorm_of_a_vector_is_its_length():
    assert opnorm(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("shape", [(3, 5), (30, 3)], ids=["row-gram-route", "gram-route"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_opnorm_refuses_non_finite_entries(bad, shape):
    a = np.ones(shape, dtype=complex)
    a[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(a)
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(a.T)


CHUNK_SCALES = {
    "unit": (1.0, 1.0, 1.0),
    "1e-200": (1e-200, 1e-200, 1e-200),
    "1e200": (1e200, 1e200, 1e200),
    "tiny-then-unit": (1e-200, 1.0, 1e-150),
    "growing-tiny": (1e-200, 1e-190, 1e-180),
    "zero-tiny-huge": (0.0, 1e-150, 1e200),
}


@pytest.mark.parametrize("scales", CHUNK_SCALES.values(), ids=CHUNK_SCALES.keys())
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_stacked_opnorm_is_the_svd_norm_of_the_stacked_chunks(scales, complex_entries):
    rng = np.random.default_rng(61)
    chunks = []
    for rows, scale in zip((7, 1, 12), scales):
        a = rng.normal(size=(rows, 5))
        if complex_entries:
            a = a + 1j * rng.normal(size=(rows, 5))
        chunks.append(a * scale)
    want = np.linalg.norm(np.vstack(chunks), 2)
    assert abs(stacked_opnorm(iter(chunks), 5) - want) <= 1e-14 * want

    def one_buffer():  # every chunk written into the same array
        buffer = np.empty((12, 5), dtype=chunks[0].dtype)
        for chunk in chunks:
            view = buffer[: chunk.shape[0]]
            view[...] = chunk
            yield view

    assert abs(stacked_opnorm(one_buffer(), 5) - want) <= 1e-14 * want


def test_stacked_opnorm_of_zero_and_no_chunks():
    assert stacked_opnorm(iter([np.zeros((4, 3), complex), np.zeros((0, 3), complex)]), 3) == 0.0
    assert stacked_opnorm(iter([]), 3) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_stacked_opnorm_refuses_non_finite_entries(bad):
    a = np.ones((6, 3), dtype=complex)
    a[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        stacked_opnorm(iter([np.ones((4, 3), dtype=complex), a]), 3)


@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_opnorm_does_not_copy_a_tall_operand(complex_entries):
    import tracemalloc

    a = _sample((4000, 8), complex_entries, 1.0)  # 256 or 512 kB
    tracemalloc.start()
    try:
        opnorm(a)
        opnorm(a.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize(
    "shape", [(40, 80), (40, 79), (30, 90), (40, 41), (40, 40)],
    ids=["aspect-2", "below-2", "aspect-3", "one-wider", "square"],
)
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_opnorm_takes_the_row_gram_of_a_wide_complex_operand(complex_entries, shape, layout, monkeypatch):
    from fockmodel import linalg

    seen = []
    real_row_gram = linalg.row_gram
    monkeypatch.setattr(linalg, "row_gram", lambda a, **kw: seen.append(a.shape) or real_row_gram(a, **kw))
    a = np.asarray(_sample(shape, complex_entries, 1.0), order=layout)
    got = opnorm(a)
    assert abs(got - np.linalg.norm(a, 2)) <= 1e-14 * got
    # exactly when the row-contiguous orientation is wider than tall
    wide = layout == "C" and shape[1] > shape[0]
    assert seen == ([shape] if wide else [])


def test_opnorm_of_a_wide_operand_conjugates_one_row_block_at_a_time():
    import tracemalloc

    a = _sample((600, 1200), True, 1.0)  # 11.5 MB; its 600 x 600 Gram is 5.8 MB
    tracemalloc.start()
    try:
        opnorm(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram matrix, one conjugated block of 128 rows and one block product
    assert peak <= 16 * (600 * 600 + 128 * (1200 + 600)) * 1.01
    assert peak < a.nbytes  # less than the copy an SVD makes


@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_gram_is_the_adjoint_product(complex_entries):
    a = _sample((23, 6), complex_entries, 1.0)
    want = a.conj().T @ a
    assert np.abs(gram(a) - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(gram(np.asfortranarray(a)) - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the Hermitian norm: the largest |eigenvalue|


def _hermitian(m, kind, scale):
    rng = np.random.default_rng(m)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = {
        "hermitian": g + g.conj().T,
        "psd": g @ g.conj().T,
        "negative-dominant": np.eye(m) - 3.0 * g @ g.conj().T,
    }[kind]
    return a * scale


@pytest.mark.parametrize("scale", SCALES, ids=["unit", "1e-200", "1e200", "1e-150", "1e150"])
@pytest.mark.parametrize("kind", ["hermitian", "psd", "negative-dominant"])
@pytest.mark.parametrize("m", [1, 7, 40])
def test_hermitian_norm_matches_the_svd_norm(m, kind, scale):
    a = _hermitian(m, kind, scale)
    if kind == "negative-dominant":
        w = np.linalg.eigvalsh(a)
        assert -w[0] > w[-1]
    want = np.linalg.norm(a, 2)
    assert abs(hermitian_norm(a) - want) <= 1e-14 * want


def test_hermitian_norm_of_empty_and_zero_matrices():
    assert hermitian_norm(np.zeros((0, 0), dtype=complex)) == 0.0
    assert hermitian_norm(np.zeros((4, 4))) == 0.0


def test_hermitian_norm_of_a_zero_matrix_is_positive_zero():
    # max(-w[0], w[-1]) alone is -0.0 here, and json would print the sign
    assert math.copysign(1, hermitian_norm(np.zeros((3, 3)))) == 1
    assert math.copysign(1, hermitian_norm(np.zeros((3, 3), dtype=complex))) == 1


@pytest.mark.parametrize("rows", [0, 1, 127, 128, 300])
def test_row_gram_is_a_a_star(rows):
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, 50)) + 1j * rng.normal(size=(rows, 50))
    want = a @ a.conj().T
    assert np.max(np.abs(row_gram(a) - want), initial=0.0) < 1e-12
    lower = row_gram(a, lower=True)
    assert np.max(np.abs(np.tril(lower) - np.tril(want)), initial=0.0) < 1e-12
    # what eigvalsh reads of the lower triangle is the whole matrix
    if rows:
        assert np.max(np.abs(np.linalg.eigvalsh(lower) - np.linalg.eigvalsh(want))) < 1e-10


@pytest.mark.parametrize("rows", [0, 1, 127, 128, 300])
def test_gap_frobenius_is_the_norm_of_i_minus_a_minus_k_k_star(rows):
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, 50)) + 1j * rng.normal(size=(rows, 50))
    k = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
    gram_a = row_gram(a)
    kept = gram_a.copy()
    want = np.linalg.norm(np.eye(rows) - a @ a.conj().T - k @ k.conj().T)
    assert abs(gap_frobenius(gram_a, k) - want) <= 1e-12 * max(want, 1.0)
    assert np.array_equal(gram_a, kept)
    # A = I - K K* leaves a gap at rounding level
    assert gap_frobenius(np.eye(rows) - k @ k.conj().T, k) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_hermitian_norm_refuses_non_finite_entries(bad):
    a = np.eye(5, dtype=complex)
    a[3, 1] = bad  # strictly lower, where eigvalsh reads
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_norm(a)
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_norm(a.T)


# ---------------------------------------------------------------------------
# the basis fixed by a projector


def _isometry(rows, cols, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(g)[0]


@pytest.mark.parametrize("rows", [None, 6])
def test_projector_basis_depends_only_on_the_projector(rows):
    b = _isometry(20, 4, 0)
    c = projector_basis(b, rows)
    assert np.abs(c.conj().T @ c - np.eye(4)).max() < 1e-14
    assert np.abs(c @ c.conj().T - b @ b.conj().T).max() < 1e-14
    for seed in range(3):
        turned = projector_basis(b @ _isometry(4, 4, seed + 1), rows)
        assert np.abs(turned - c).max() < 1e-13


def test_projector_basis_leading_rows_ignore_the_trailing_ones():
    # rotating the trailing rows by a unitary leaves the leading rows fixed
    b = _isometry(20, 3, 4)
    w = np.eye(20, dtype=complex)
    w[8:, 8:] = _isometry(12, 12, 5)
    c, turned = projector_basis(b, 8), projector_basis(w @ b @ _isometry(3, 3, 6), 8)
    assert np.abs(turned[:8] - c[:8]).max() < 1e-13
    assert np.abs(turned[8:] - w[8:, 8:] @ c[8:]).max() < 1e-13


def test_projector_basis_breaks_exact_ties_by_the_first_row():
    # rows 0 and 1 tie exactly and differ in phase; picking row 1 would give
    # c[0, 0] = -i / sqrt(2), so a rounding-level tilt must not flip the pick
    b = np.zeros((5, 1), dtype=complex)
    b[:2, 0] = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    for tilt in (1e-15, -1e-15):
        bent = b.copy()
        bent[0, 0] += tilt
        bent /= np.linalg.norm(bent)
        c = projector_basis(bent * np.exp(0.7j))
        assert abs(c[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-14


def test_projector_basis_of_an_empty_span():
    assert projector_basis(np.zeros((5, 0), dtype=complex)).shape == (5, 0)


# ---------------------------------------------------------------------------
# principal angles, against scipy's subspace_angles


def _mixed(b, seed):
    """The same span as b, through an invertible complex change of basis."""
    rng = np.random.default_rng(seed)
    k = b.shape[1]
    return b @ (np.eye(k) + 0.3 * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))))


def _rotated_pair(angles, m=12, seed=0):
    """Spans at the given principal angles: A = Q1, B = Q1 cos + Q2 sin, both mixed."""
    t = np.asarray(angles)
    q = _isometry(m, 2 * t.size, seed)
    a, w = q[:, : t.size], q[:, t.size :]
    return _mixed(a, seed + 1), _mixed(a * np.cos(t) + w * np.sin(t), seed + 2)


def _agrees_with_scipy(a, b):
    got, want = principal_angles(a, b), subspace_angles(a, b)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-14
    return got


@pytest.mark.parametrize("p, q", [(2, 5), (5, 2), (3, 3), (1, 7), (7, 1)])
def test_principal_angles_of_random_complex_spans(p, q):
    rng = np.random.default_rng(10 * p + q)
    a = rng.normal(size=(9, p)) + 1j * rng.normal(size=(9, p))
    b = rng.normal(size=(9, q)) + 1j * rng.normal(size=(9, q))
    got = _agrees_with_scipy(a, b)
    assert got.shape == (min(p, q),)
    assert np.all(np.diff(got) <= 0.0)


def test_principal_angles_resolve_tiny_rotations():
    # cos(t) rounds to 1 for all of these, so arccos alone reports 0 or about
    # 1e-8: only the arcsine of the residual's singular values resolves them
    t = np.array([1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    a, b = _rotated_pair(t)
    got = _agrees_with_scipy(a, b)
    assert np.abs(got - t).max() <= 1e-15


def test_principal_angles_of_orthogonal_spans():
    q = _isometry(8, 6, 3)
    got = _agrees_with_scipy(_mixed(q[:, :3], 4), _mixed(q[:, 3:], 5))
    assert np.abs(got - np.pi / 2).max() <= 1e-15


def test_principal_angles_cut_the_rank():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    a[:, 2] = a[:, 0] + 2.0 * a[:, 1]  # exactly dependent
    a[:, 3] = 0.0
    b = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    assert principal_angles(a, b).shape == (2,)
    _agrees_with_scipy(a, b)
    _agrees_with_scipy(b, a)
    assert principal_angles(np.zeros((8, 2)), b).shape == (0,)


def test_principal_angles_of_a_span_with_itself():
    a = _mixed(_isometry(10, 4, 7), 8)
    for b in (a, _mixed(a, 9)):
        got = _agrees_with_scipy(a, b)
        assert got.max() < 1e-14


def test_principal_angles_pick_each_branch_by_its_own_cosine():
    # one tiny and one wide angle in one pair: the tiny one must come from the
    # arcsine (scipy's subspace_angles tests the cosines in reverse order here
    # and reports 0 for it), the wide one from arccos
    t = np.array([1.5, 1e-10])
    a, b = _rotated_pair(t, seed=11)
    got = principal_angles(a, b)
    assert np.abs(got - t).max() <= 1e-15


# (rows, cols) of the operator A or B, the identity size and the free side of X
KRON_CASES = {
    "d-1": (3, 3, 1, 4),
    "rectangular": (2, 5, 3, 4),
    "empty-identity": (3, 4, 0, 5),
    "empty-operator": (0, 0, 3, 4),
    "no-rows": (0, 4, 2, 3),
    "no-cols": (4, 0, 2, 3),
    "empty-x": (3, 2, 2, 0),
}


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("rows, cols, d, free", KRON_CASES.values(), ids=KRON_CASES.keys())
def test_kron_helpers_match_the_explicit_kronecker_products(rows, cols, d, free):
    rng = np.random.default_rng([rows, cols, d, free])
    a = _complex(rng, rows, cols)
    eye = np.eye(d)
    cases = [
        (kron_left(a, x := _complex(rng, cols * d, free), d), np.kron(a, eye) @ x),
        (kron_right(x := _complex(rng, free, rows * d), a, d), x @ np.kron(a, eye)),
        (kron_inner(a, x := _complex(rng, d * cols, free), d), np.kron(eye, a) @ x),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def _canonical_phase_by_columns(v):
    """The column-by-column rotation canonical_phase replaced."""
    out = np.array(v, dtype=complex, copy=True)
    squeeze = out.ndim == 1
    if squeeze:
        out = out[:, None]
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 1e-300:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out[:, 0] if squeeze else out


def test_canonical_phase_matches_the_column_loop():
    rng = np.random.default_rng(12)
    v = _complex(rng, 255, 255)
    v[:, 3] = 0.0  # a zero column
    v[:, 4] = 1e-301 * v[:, 4]  # a column below the cutoff
    v[:, 5] = np.exp(2j * np.pi * rng.random(255))  # every entry ties
    v[[7, 2], 6] = [3.0 + 4.0j, 5.0j]  # two pivots of equal magnitude
    for x in (v, v[:, 0], v[:, 5], np.zeros(4), v[:, :0], v.real):
        got = canonical_phase(x)
        assert got.shape == x.shape
        assert np.array_equal(got, _canonical_phase_by_columns(x))
