"""Small dense linear-algebra helpers shared across the package.

Everything here works on plain complex numpy arrays and calls only numpy's
LAPACK, :func:`principal_angles` included.  Rank decisions are made
with explicit tolerances passed by the caller; functions that pick an
orthonormal basis fix the phase of each column (largest-magnitude entry made
real and positive, or a positive pivot in :func:`projector_basis`) so
repeated runs serialize identically.
"""

from __future__ import annotations

import warnings

import numpy as np


class NumericalRankWarning(UserWarning):
    """Raised when an eigenvalue sits in the ambiguous band around a rank cutoff."""


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


_GRAM_SAFE = (1e-140, 1e140)  # entry scales whose squares neither overflow nor underflow
_GRAM_ASPECT = 3  # rows per column from which G needs less memory than an SVD's copy


def gram(a: np.ndarray) -> np.ndarray:
    """a* a, from one symmetric rank-k product; a real or row-contiguous ``a`` is not copied.

    For a = X + iY the product runs on the real view of ``a``, whose columns
    come in (re, im) pairs, and a* a = X'X + Y'Y + i (X'Y - Y'X) is read off
    its 2 x 2 blocks.
    """
    if not np.iscomplexobj(a):
        return a.T @ a
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        return adj(a) @ a
    c = a.shape[1]
    parts = a.view(np.float64)
    pairs = (parts.T @ parts).reshape(c, 2, c, 2)
    out = np.empty((c, c), dtype=complex)
    out.real = pairs[:, 0, :, 0] + pairs[:, 1, :, 1]
    out.imag = pairs[:, 0, :, 1] - pairs[:, 1, :, 0]
    return out


_ROW_BLOCK = 128  # rows conjugated at once by row_gram: 1.6 MB of a 762-column matrix


def row_gram(a: np.ndarray, *, lower: bool = False) -> np.ndarray:
    """a a*, conjugating a block of 128 rows of ``a`` at a time, never ``a`` whole.

    With ``lower`` only the blocks on and below the diagonal are formed: the
    lower triangle, all that ``eigh`` / ``eigvalsh`` read, is complete, and
    the upper triangle is zero outside the diagonal blocks.
    """
    rows_total = a.shape[0]
    out = np.zeros((rows_total, rows_total), dtype=complex)
    for i in range(0, rows_total, _ROW_BLOCK):
        rows = slice(i, min(i + _ROW_BLOCK, rows_total))
        if lower:
            out[rows, : rows.stop] = adj(a[: rows.stop] @ adj(a[rows]))
        else:
            np.matmul(a, adj(a[rows]), out=out[:, rows])
    return out


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix (a vector counts as one column).

    A matrix whose tall orientation b (``a`` or its transpose) is
    row-contiguous and at least three times as tall as wide takes the Gram
    route: sqrt(lambda_max(b* b)), the Gram matrix of the smaller side, read
    in place by :func:`gram` and accurate to relative eps for the largest
    singular value.  Its entries are rescaled, on a copy, only when the
    largest lies outside [1e-140, 1e140], so that G can neither overflow nor
    underflow.  Any other matrix takes numpy's values-only SVD, which copies
    it once; for a square-ish matrix that is less memory than G and the copy
    its eigensolver makes.  Non-finite entries raise LinAlgError either way.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        return 0.0
    b = a if a.flags.c_contiguous else a.T  # |b| = |a|
    rows, cols = b.shape
    if not (
        b.flags.c_contiguous
        and b.dtype in (np.float64, np.complex128)
        and rows >= _GRAM_ASPECT * cols
    ):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
        return float(np.linalg.norm(a, 2))
    parts = b.view(np.float64)
    scale = max(float(parts.max()), -float(parts.min()))
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
    if scale == 0.0:
        return 0.0
    lo, hi = _GRAM_SAFE
    if not lo <= scale <= hi:
        return scale * opnorm(b / scale)
    return float(np.sqrt(max(np.linalg.eigvalsh(gram(b))[-1], 0.0)))


def hermitian_norm(a: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: max(-w[0], w[-1]) from ``eigvalsh``.

    Only the lower triangle is read, so ``a`` must be Hermitian by
    construction; its norm is then the largest |eigenvalue|, at about half
    the cost of a values-only SVD.  Non-finite entries raise LinAlgError, as
    in :func:`opnorm`; an empty matrix has norm 0, and a zero matrix +0.0
    (never -0.0, which a report would print).
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
    w = np.linalg.eigvalsh(a)
    return float(max(-w[0], w[-1])) + 0.0  # + 0.0 turns the -0.0 of a zero matrix into 0.0


_PIVOT_TIE = 1e-8  # residuals within this relative distance of the largest are tied


def projector_basis(b: np.ndarray, rows: int | None = None) -> np.ndarray:
    """The orthonormal basis of span(b) fixed by the projector P = b b* alone.

    ``b`` has orthonormal columns.  Pivot rows J are picked greedily among
    the first ``rows`` rows (all rows by default): each step takes the row
    whose part orthogonal to the rows already taken is largest, a choice that
    depends only on P restricted to those rows.  Squared residuals within a
    relative 1e-8 of the largest count as tied and the first such row wins,
    so rounding cannot flip a choice between rows that tie exactly or nearly;
    the basis jumps only where a residual crosses the edge of that band.
    With Q R the QR factorization of b[J]* and R's diagonal made positive,
    the result is b Q: its rows J form R*, lower triangular with a positive
    diagonal, which fixes the basis and the phase of every column.  Its
    first ``rows`` rows depend only on P restricted to them.
    """
    h = b.shape[1]
    lead = np.array(b[:rows], dtype=complex)
    picked: list[int] = []
    for _ in range(min(h, lead.shape[0])):
        residual = np.einsum("ij,ij->i", lead.real, lead.real)
        residual += np.einsum("ij,ij->i", lead.imag, lead.imag)
        residual[picked] = -1.0
        top = residual.max()
        if top <= 0.0:
            break
        j = int(np.flatnonzero(residual >= (1.0 - _PIVOT_TIE) * top)[0])
        picked.append(j)
        v = lead[j] / np.sqrt(residual[j])
        lead -= np.outer(lead @ v.conj(), v)
    q, r = np.linalg.qr(adj(b[picked]), mode="complete")
    diag = np.diagonal(r)
    q[:, : diag.size] *= np.exp(1j * np.angle(diag))
    return b @ q


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2."""
    return 0.5 * (a + adj(a))


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and positive.

    Leaves (near-)zero columns untouched.  This removes the U(1) gauge freedom
    of eigenvector / singular-vector columns and makes serialized bases
    deterministic across runs and BLAS builds.
    """
    out = np.array(v, dtype=complex, copy=True)
    if out.ndim == 1:
        out = out[:, None]
        squeeze = True
    else:
        squeeze = False
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 1e-300:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out[:, 0] if squeeze else out


PSD_RANK_TOL = 1e-10  # eigenvalues of a PSD matrix at or below this are zero
_PSD_NEG_TOL = 1e-10  # relative rounding allowed below zero
_PSD_WARN_BAND = (1e-12, 1e-8)  # eigenvalues here make the computed rank suspect


def psd_spectrum(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vet the eigen-decomposition v diag(w) v* of a positive semidefinite matrix.

    ``w`` is ascending, as ``eigh`` returns it, and ``v`` holds orthonormal
    eigenvector columns.  Eigenvalues in [-1e-10, 0) (relative to the top
    one when it exceeds 1) are clipped to zero; anything more negative
    raises, since the input was expected to be PSD up to rounding.

    The range is spanned by the eigenvectors whose eigenvalue exceeds
    ``PSD_RANK_TOL`` = 1e-10.  Eigenvalues falling inside [1e-12, 1e-8] are
    close enough to the cutoff that the computed rank is suspect; a
    NumericalRankWarning is emitted (the decision itself is still made by
    the cutoff).

    Returns (clipped w, range basis, kept eigenvalues), the basis and the
    kept eigenvalues in descending order.
    """
    w = np.asarray(w, dtype=float)
    scale = max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < -_PSD_NEG_TOL * scale:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} (tol {_PSD_NEG_TOL:.1e})"
        )
    lo, hi = _PSD_WARN_BAND
    risky = [float(x) for x in w[::-1] if lo <= x <= hi]
    if risky:
        warnings.warn(
            f"{len(risky)} eigenvalue(s) in the ambiguous band [{lo:.0e}, {hi:.0e}] "
            f"near the rank cutoff {PSD_RANK_TOL:.0e}: {risky[:4]}",
            NumericalRankWarning,
            stacklevel=2,
        )
    w = np.clip(w, 0.0, None)
    keep = (w > PSD_RANK_TOL)[::-1]
    return w, canonical_phase(v[:, ::-1][:, keep]), w[::-1][keep]


def psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian square root v diag(w)^(1/2) v* of a vetted PSD decomposition."""
    return hermitize((v * np.sqrt(w)) @ adj(v))


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(a): the left singular vectors above max(shape) eps s_max."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = max(a.shape) * np.finfo(float).eps * s.max(initial=0.0)
    return u[:, : int(np.count_nonzero(s > cut))]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, descending) between the column spans of a and b.

    Bjorck & Golub (1973) with the sine/cosine split of Knyazev & Argentati
    (2002): each span is orthonormalized by a thin SVD with the rank cut
    max(shape) eps s_max, the cosines are the singular values of Qa* Qb, and
    an angle whose cosine has sigma^2 >= 1/2 is taken instead from the
    arcsine of the singular values of the smaller basis's residual against
    the larger span, which resolves angles far below the 1e-8 that arccos
    can tell from 0.  Each angle picks its branch by its own cosine.
    """
    qa = _orth(np.asarray(a, dtype=complex))
    qb = _orth(np.asarray(b, dtype=complex))
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    overlap = adj(qa) @ qb
    cosines = np.clip(np.linalg.svd(overlap, compute_uv=False)[::-1], -1.0, 1.0)
    small = cosines**2 >= 0.5
    angles = np.arccos(cosines)
    if small.any():
        sines = np.linalg.svd(qb - qa @ overlap, compute_uv=False)
        angles[small] = np.arcsin(np.clip(sines, -1.0, 1.0))[small]
    return angles


def unitary_polar_factor(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition A = U|A| (via SVD)."""
    u, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return u @ vh
