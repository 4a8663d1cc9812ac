"""Small dense linear-algebra helpers shared across the package.

Everything here works on plain complex numpy arrays and calls only numpy's
LAPACK, :func:`principal_angles` included.  Rank decisions are made
with explicit tolerances passed by the caller; functions that pick an
orthonormal basis fix the phase of each column (largest-magnitude entry made
real and positive, or a positive pivot in :func:`projector_basis`) so
repeated runs serialize identically.

Every spectral norm of a matrix that is not Hermitian is sqrt(lambda_max)
of the Gram matrix of its narrower side (:func:`opnorm`,
:func:`stacked_opnorm`); none is taken by an SVD.

The package's operators act on (words) (x) (defect space), word-major; the
three ``kron_*`` helpers take their block products by one matmul on a reshape,
never forming a Kronecker matrix, and give empty operands empty results.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np


class NumericalRankWarning(UserWarning):
    """Raised when an eigenvalue sits in the ambiguous band around a rank cutoff."""


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def kron_left(a: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """(A (x) I_d) X: the rows of X come in blocks of d, one block per column of A."""
    return (a @ x.reshape(a.shape[1], d * x.shape[1])).reshape(a.shape[0] * d, x.shape[1])


def kron_right(x: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """X (A (x) I_d): the columns of X come in blocks of d, one block per row of A."""
    return (a.T @ x.reshape(x.shape[0], a.shape[0], d)).reshape(x.shape[0], a.shape[1] * d)


def kron_inner(b: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """(I_k (x) B) X: the rows of X come in k blocks, each mapped by B."""
    return (b @ x.reshape(k, b.shape[1], x.shape[1])).reshape(k * b.shape[0], x.shape[1])


_GRAM_SAFE = (1e-140, 1e140)  # entry scales whose squares neither overflow nor underflow


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
    the upper triangle is zero outside the diagonal blocks.  A real ``a``
    has a real a a*.
    """
    rows_total = a.shape[0]
    out = np.zeros((rows_total, rows_total), dtype=np.result_type(a, float))
    for i in range(0, rows_total, _ROW_BLOCK):
        rows = slice(i, min(i + _ROW_BLOCK, rows_total))
        if lower:
            np.conjugate((a[: rows.stop] @ adj(a[rows])).T, out=out[rows, : rows.stop])
        else:
            np.matmul(a, adj(a[rows]), out=out[:, rows])
    return out


def gap_frobenius(a: np.ndarray, k: np.ndarray) -> float:
    """|I - A - K K*|_F for the square A, which is not changed.

    The difference is formed 128 whole rows at a time, and K K* is never
    formed whole.
    """
    total, k_adj = 0.0, adj(k)
    for i in range(0, a.shape[0], _ROW_BLOCK):
        rows = slice(i, min(i + _ROW_BLOCK, a.shape[0]))
        block = k[rows] @ k_adj  # A + K K* - I has the same norm
        block += a[rows]
        diagonal = np.arange(block.shape[0])
        block[diagonal, diagonal + i] -= 1.0
        total += np.vdot(block, block).real
    return float(np.sqrt(total))


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix (a vector counts as one column).

    The norm is sqrt(lambda_max) of the Gram matrix of the narrower side,
    which is accurate to relative eps for the largest singular value.  Let
    b be the row-contiguous orientation of ``a`` (``a`` or its transpose),
    as float64 or complex128; ``a`` is copied only when neither orientation
    is row-contiguous or its dtype is another.  If b is at least as tall as
    wide the Gram is b* b, read in place as one chunk of
    :func:`stacked_opnorm`; otherwise it is b b*, whose lower triangle
    :func:`row_gram` forms conjugating one block of rows of b at a time.
    The entries are rescaled, on a copy, only when the largest lies outside
    [1e-140, 1e140], so that the Gram matrix can neither overflow nor
    underflow.  Non-finite entries raise LinAlgError.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        return 0.0
    b = a if a.flags.c_contiguous else a.T  # |b| = |a|
    b = np.ascontiguousarray(b, dtype=complex if np.iscomplexobj(b) else float)
    rows, cols = b.shape
    if rows >= cols:
        return stacked_opnorm((b,), cols)
    scale = _entry_scale(b)
    if scale == 0.0:
        return 0.0
    lo, hi = _GRAM_SAFE
    if not lo <= scale <= hi:
        return scale * opnorm(b / scale)
    return float(np.sqrt(max(np.linalg.eigvalsh(row_gram(b, lower=True))[-1], 0.0)))


# complex entries of one row chunk of a streamed residual (4 MB): the subspace
# leak is formed one chunk of words at a time
_CHUNK_ENTRIES = 1 << 18


def _word_chunks(words: int, width: int) -> list[tuple[int, int]]:
    """Consecutive word ranges [w0, w1) that cover range(words), one chunk each.

    ``width`` is the number of entries in the rows of one word; a chunk has
    at most _CHUNK_ENTRIES // width words, and at least one.
    """
    step = max(1, _CHUNK_ENTRIES // max(width, 1))
    return [(w0, min(w0 + step, words)) for w0 in range(0, words, step)]


def stacked_opnorm(chunks: Iterable[np.ndarray], cols: int) -> float:
    """Operator norm of the tall matrix whose row blocks ``chunks`` yields in turn.

    Each chunk, a row-contiguous float64 or complex128 array with ``cols``
    columns, is read once, before the next is asked for, so a producer may
    reuse one buffer for all of them.  The norm is sqrt(lambda_max) of the
    sum of the chunks' Gram matrices (:func:`gram`), the route
    :func:`opnorm` takes on a matrix at least as tall as wide; an
    exactly-zero chunk adds exactly nothing and is skipped.  While the
    largest entry seen so far lies outside [1e-140, 1e140], the chunks are
    divided by it, on a copy, and the sum is rescaled whenever it grows, so
    the Gram matrices can neither overflow nor underflow.  Non-finite
    entries raise LinAlgError, as in :func:`opnorm`.
    """
    lo, hi = _GRAM_SAFE
    total = np.zeros((cols, cols), dtype=complex)
    top, divisor = 0.0, 1.0  # total is the Gram of the chunks seen so far, each divided by divisor
    for chunk in chunks:
        scale = _entry_scale(chunk) if chunk.size else 0.0
        if scale == 0.0:
            continue
        top = max(top, scale)
        rescaled = 1.0 if lo <= top <= hi else top
        if rescaled > divisor:  # a smaller divisor is only ever taken while total is 0
            total *= (divisor / rescaled) ** 2
        divisor = rescaled
        total += gram(chunk if divisor == 1.0 else chunk / divisor)
    if top == 0.0:
        return 0.0
    return divisor * float(np.sqrt(max(np.linalg.eigvalsh(total)[-1], 0.0)))


def _entry_scale(b: np.ndarray) -> float:
    """The largest |real or imaginary part| of a row-contiguous float64 / complex128 ``b``."""
    parts = b.view(np.float64)
    scale = max(float(parts.max()), -float(parts.min()))
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
    return scale


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
    size = np.abs(diag)  # the phase diag / |diag| is exactly -1 at a negative real pivot
    q[:, : diag.size] *= np.divide(diag, size, out=np.ones_like(diag), where=size > 0)
    return b @ q


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*)/2."""
    return 0.5 * (a + adj(a))


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and positive.

    Leaves (near-)zero columns untouched.  This removes the U(1) gauge freedom
    of eigenvector / singular-vector columns and makes serialized bases
    deterministic across runs and BLAS builds.  A pivot's magnitude is
    ``np.hypot`` of its parts, bit for bit the scalar ``abs`` (not ``np.abs``).
    """
    out = np.array(v, dtype=complex, copy=True)
    cols = out if out.ndim == 2 else out[:, None]  # a view: a vector is one column
    if cols.size == 0:
        return out
    pivot = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    size = np.hypot(pivot.real, pivot.imag)
    big = size > 1e-300
    np.multiply(cols, pivot.conjugate() / np.where(big, size, 1.0), out=cols, where=big)
    return out


PSD_RANK_TOL = 1e-10  # eigenvalues of a PSD matrix at or below this are zero
_PSD_NEG_TOL = 1e-10  # relative rounding allowed below zero
_PSD_WARN_BAND = (1e-12, 1e-8)  # eigenvalues here make the computed rank suspect


def psd_spectrum(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vet the eigen-decomposition v diag(w) v* of a positive semidefinite matrix.

    ``w`` is ascending, as ``eigh`` returns it, and ``v`` holds orthonormal
    eigenvector columns of its last ``v.shape[1]`` values, at least of all
    above ``PSD_RANK_TOL``.  Eigenvalues in [-1e-10, 0) (relative to the top
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
    kept = w[::-1][: int(np.count_nonzero(w > PSD_RANK_TOL))]
    return w, canonical_phase(v[:, ::-1][:, : kept.size]), kept


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
