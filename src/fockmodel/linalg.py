"""Small dense linear-algebra helpers shared across the package.

Everything here works on plain complex numpy arrays.  Rank decisions are made
with explicit tolerances passed by the caller; functions that pick an
orthonormal basis fix the phase of each column (largest-magnitude entry made
real and positive) so repeated runs serialize identically.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg


class NumericalRankWarning(UserWarning):
    """Raised when an eigenvalue sits in the ambiguous band around a rank cutoff."""


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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


def psd_spectrum(
    w: np.ndarray,
    v: np.ndarray,
    *,
    neg_tol: float = 1e-10,
    rank_tol: float = 1e-10,
    warn_band: tuple[float, float] = (1e-12, 1e-8),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vet the eigen-decomposition v diag(w) v* of a positive semidefinite matrix.

    ``w`` is ascending, as ``eigh`` returns it, and ``v`` holds orthonormal
    eigenvector columns.  Eigenvalues in [-neg_tol, 0) (relative to the top
    one when it exceeds 1) are clipped to zero; anything more negative
    raises, since the input was expected to be PSD up to rounding.

    The range is spanned by the eigenvectors whose eigenvalue exceeds
    ``rank_tol``.  Eigenvalues falling inside ``warn_band`` are close enough
    to the cutoff that the computed rank is suspect; a NumericalRankWarning
    is emitted (the decision itself is still made by ``rank_tol``).

    Returns (clipped w, range basis, kept eigenvalues), the basis and the
    kept eigenvalues in descending order.
    """
    w = np.asarray(w, dtype=float)
    scale = max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < -neg_tol * scale:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} (tol {neg_tol:.1e})"
        )
    lo, hi = warn_band
    risky = [float(x) for x in w[::-1] if lo <= x <= hi]
    if risky:
        warnings.warn(
            f"{len(risky)} eigenvalue(s) in the ambiguous band [{lo:.0e}, {hi:.0e}] "
            f"near the rank cutoff {rank_tol:.0e}: {risky[:4]}",
            NumericalRankWarning,
            stacklevel=2,
        )
    w = np.clip(w, 0.0, None)
    keep = (w > rank_tol)[::-1]
    return w, canonical_phase(v[:, ::-1][:, keep]), w[::-1][keep]


def psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian square root v diag(w)^(1/2) v* of a vetted PSD decomposition."""
    return hermitize((v * np.sqrt(w)) @ adj(v))


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of a and b."""
    return scipy.linalg.subspace_angles(np.asarray(a, complex), np.asarray(b, complex))


def unitary_polar_factor(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition A = U|A| (via SVD)."""
    u, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return u @ vh
