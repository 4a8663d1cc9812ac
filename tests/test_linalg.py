"""The Gram-route operator norm against numpy's SVD norm."""

import numpy as np
import pytest

from fockmodel.linalg import gram, opnorm

SHAPES = {"tall": (37, 5), "wide": (4, 29), "square": (16, 16)}
SCALES = [1.0, 1e-200, 1e200]


def _sample(shape, complex_entries, scale):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    if complex_entries:
        a = a + 1j * rng.normal(size=shape)
    return a * scale


@pytest.mark.parametrize("scale", SCALES, ids=["unit", "1e-200", "1e200"])
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_opnorm_matches_the_svd_norm(shape, complex_entries, scale):
    a = _sample(shape, complex_entries, scale)
    # every layout: contiguous, transposed, adjoint, Fortran-ordered and strided
    for view in (a, a.T, a.conj().T, np.asfortranarray(a), a[::2], a[:, ::2]):
        want = np.linalg.norm(view, 2)
        assert abs(opnorm(view) - want) <= 1e-14 * want


@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_of_zero_and_empty_matrices(dtype):
    assert opnorm(np.zeros((6, 3), dtype=dtype)) == 0.0
    assert opnorm(np.zeros((0, 3), dtype=dtype)) == 0.0


def test_opnorm_of_a_vector_is_its_length():
    assert opnorm(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("shape", [(5, 3), (30, 3)], ids=["svd-route", "gram-route"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_opnorm_refuses_non_finite_entries(bad, shape):
    a = np.ones(shape, dtype=complex)
    a[2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(a)
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(a.T)


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


@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_gram_is_the_adjoint_product(complex_entries):
    a = _sample((23, 6), complex_entries, 1.0)
    want = a.conj().T @ a
    assert np.abs(gram(a) - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(gram(np.asfortranarray(a)) - want).max() <= 1e-13 * np.abs(want).max()
