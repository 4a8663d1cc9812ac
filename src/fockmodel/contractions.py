"""Row contractions on a finite-dimensional space and their basic invariants.

A tuple T = (T_1, ..., T_n) of m x m matrices is a row contraction when the
row operator [T_1 ... T_n] : C^n (x) C^m -> C^m has norm at most 1, i.e.
sum_i T_i T_i* <= I.  Stacking convention for C^n (x) C^m: the C^n factor is
major, so block i of a length-n*m vector occupies entries [(i-1)*m, i*m).

Two defect operators control the dilation theory:

    Delta   = (I - sum_i T_i T_i*)^(1/2)     on C^m,
    Delta_* = (I - R* R)^(1/2),  R = [T_1 ... T_n],  on C^n (x) C^m,

together with orthonormal bases of their ranges (the defect spaces).

The completely positive map Phi(X) = sum_i T_i X T_i* drives everything
asymptotic: its iterates Q_k = Phi^k(I) decrease monotonically, T is *pure*
when Q_k -> 0 and *completely noncoisometric* (c.n.c.) when no vector is left
fixed in norm, i.e. the limit has no eigenvalue 1.  In finite dimension the
two notions coincide (the limit Q satisfies Q <= |Q| Q_k for every k, hence
|Q| <= |Q|^2, forcing |Q| in {0, 1}, and |Q| = 1 produces an eigenvalue 1);
the classifier still reports both answers as independent tri-state facts,
each only when certified by the monotone iteration.

Phi also measures what a degree-d truncation forgets: |Phi^(d+1)(I)| bounds
every truncation error appearing downstream, and is computed exactly here.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

import numpy as np

from .ideals import PolyIdealSpec
from .linalg import adj, hermitian_norm, hermitize, opnorm, psd_root, psd_spectrum


def as_matrices(tuple_like: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [np.asarray(t, dtype=complex) for t in tuple_like]


def row_matrix(ts: Sequence[np.ndarray]) -> np.ndarray:
    """The row operator [T_1 ... T_n], shape m x (n*m)."""
    return np.hstack(as_matrices(ts))


def phi_step(ts: Sequence[np.ndarray], x: np.ndarray | None = None) -> np.ndarray:
    """One application of Phi(X) = sum_i T_i X T_i*; X = None stands for I, Phi(I) = sum T_i T_i*."""
    mats = as_matrices(ts)
    out = np.zeros_like(mats[0])
    for t in mats:
        out += (t if x is None else t @ x) @ adj(t)
    return out


def phi_power(ts: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Phi^k(I)."""
    mats = as_matrices(ts)
    out = None
    for _ in range(k):
        out = phi_step(mats, out)
    return hermitize(np.eye(mats[0].shape[0], dtype=complex) if out is None else out)


def spectral_radius_of_phi(ts: Sequence[np.ndarray]) -> float:
    """rho(T) = |sum_i T_i T_i*| (the squared row norm)."""
    return hermitian_norm(phi_step(ts))


def row_norm(ts: Sequence[np.ndarray]) -> float:
    """|[T_1 ... T_n]| = sqrt(rho(T)).

    A tuple with an entry above 1, which no row contraction has, is scaled by
    its largest entry first, so huge entries cannot overflow sum T_i T_i*.
    """
    mats = as_matrices(ts)
    scale = max(1.0, max(float(np.max(np.abs(t))) for t in mats))
    return scale * float(np.sqrt(max(spectral_radius_of_phi([t / scale for t in mats]), 0.0)))


@dataclasses.dataclass
class ValidationReport:
    n: int
    m: int
    row_norm: float
    is_row_contraction: bool
    messages: list[str]


_ROW_NORM_TOL = 1e-10  # how far above 1 a row contraction's row norm may round


def validate(ts: Sequence[np.ndarray]) -> ValidationReport:
    """Check shapes and the row-contraction inequality sum T_i T_i* <= I."""
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    messages: list[str] = []
    for k, t in enumerate(mats):
        if t.ndim != 2 or t.shape != (m, m):
            raise ValueError(f"entry {k} has shape {t.shape}, expected ({m}, {m})")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"entry {k} contains non-finite values")
    rn = row_norm(mats)
    ok = rn <= 1.0 + _ROW_NORM_TOL
    if not ok:
        messages.append(f"row norm {rn:.6g} exceeds 1 (tolerance {_ROW_NORM_TOL:.0e})")
    return ValidationReport(n=len(mats), m=m, row_norm=rn, is_row_contraction=ok, messages=messages)


@dataclasses.dataclass
class DefectData:
    """Both defect operators with orthonormal range bases.

    delta / delta_star are the PSD square roots; basis / basis_star hold the
    kept eigenvectors of the *squared* defects (eigenvalue > rank cutoff,
    descending), so d_T = basis.shape[1] and d_star = basis_star.shape[1] are
    the defect ranks.
    """

    delta: np.ndarray
    delta_star: np.ndarray
    basis: np.ndarray
    basis_star: np.ndarray
    eigvals: np.ndarray
    eigvals_star: np.ndarray

    @property
    def d_T(self) -> int:
        return self.basis.shape[1]

    @property
    def d_star(self) -> int:
        return self.basis_star.shape[1]


def defects(ts: Sequence[np.ndarray]) -> DefectData:
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    row = row_matrix(mats)
    delta, basis, eigvals = _defect(np.eye(m, dtype=complex) - row @ adj(row))  # I - sum T_i T_i*
    delta_star, basis_star, eigvals_star = _defect(
        np.eye(row.shape[1], dtype=complex) - adj(row) @ row  # I - R*R
    )
    return DefectData(
        delta=delta,
        delta_star=delta_star,
        basis=basis,
        basis_star=basis_star,
        eigvals=eigvals,
        eigvals_star=eigvals_star,
    )


def _defect(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square root, range basis and kept eigenvalues of a squared defect, from one eigh."""
    w, v = np.linalg.eigh(hermitize(g))
    w, basis, kept = psd_spectrum(w, v)
    return psd_root(w, v), basis, kept


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"

    @property
    def certain(self) -> bool:
        return self is not TriState.UNDETERMINED


@dataclasses.dataclass
class Classification:
    pure: TriState
    cnc: TriState
    q_limit: np.ndarray
    iterations: int
    rho: float

    def __str__(self) -> str:
        return (
            f"pure={self.pure.value} cnc={self.cnc.value} "
            f"rho={self.rho:.6g} after {self.iterations} iterations"
        )


# A diagonal bound settles a comparison only when it clears the threshold by
# this relative margin, far beyond eigvalsh's backward error (m eps |Q_k|).
_DIAGONAL_MARGIN = 1e-6


def classify(ts: Sequence[np.ndarray], *, k_max: int = 500, tol: float = 1e-9) -> Classification:
    """Iterate Q_k = Phi^k(I) and certify purity / c.n.c. where possible.

    Q_k decreases monotonically, so |Q_k| < tol certifies pure = YES and
    lambda_max(Q_k) < 1 - tol certifies cnc = YES even before convergence.
    The negative answers need the limit, so they are only issued once the
    iteration is numerically stationary, |Q_(k-1) - Q_k| < 1e-14 max(1, rho);
    otherwise UNDETERMINED.

    No matrix has a norm below its largest diagonal entry, so the diagonals
    settle two comparisons with no decomposition: a diagonal entry of the
    step Q_(k-1) - Q_k at or above the stationarity threshold rules out
    stationarity, and one of Q_k at or above tol rules out pure = YES.  A
    diagonal bound counts only when it clears its threshold by a relative
    1e-6, so verdicts and iteration counts are those of decomposing at every
    step.  ``eigvalsh(Q_k)`` is therefore taken only while cnc is
    undetermined, once the diagonal of Q_k is below tol, and at the
    stationary step; the step's norm only once its diagonal is below the
    threshold.  Both matrices are Hermitian, so each norm is an ``eigvalsh``.
    rho and lambda_max(Q_1), which the first iteration always needs since cnc
    is still undetermined there, come from one ``eigvalsh`` of Q_1.
    """
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    q = np.eye(m, dtype=complex)
    q_1 = hermitize(phi_step(mats))
    w_1 = np.linalg.eigvalsh(q_1) if m else np.zeros(1)
    rho = float(max(-w_1[0], w_1[-1])) + 0.0  # + 0.0: a zero tuple has rho 0.0, not -0.0
    still = 1e-14 * max(1.0, rho)
    pure = cnc = TriState.UNDETERMINED
    iterations = 0
    for k in range(1, k_max + 1):
        q_next = q_1 if k == 1 else hermitize(phi_step(mats, q))
        step = q - q_next
        q = q_next
        iterations = k
        stationary = not _diagonal_reaches(step, still) and hermitian_norm(step) < still
        if stationary or cnc is TriState.UNDETERMINED or not _diagonal_reaches(q, tol):
            lam_max = float((w_1 if k == 1 else np.linalg.eigvalsh(q))[-1]) if m else 0.0
            if lam_max < tol:
                pure = TriState.YES
            if lam_max < 1.0 - tol:
                cnc = TriState.YES
            if stationary:
                if pure is TriState.UNDETERMINED:
                    pure = TriState.NO if lam_max >= tol else TriState.YES
                if cnc is TriState.UNDETERMINED:
                    cnc = TriState.NO if lam_max >= 1.0 - tol else TriState.YES
                break
        if pure is TriState.YES and cnc is TriState.YES:
            break
    return Classification(pure=pure, cnc=cnc, q_limit=q, iterations=iterations, rho=rho)


def _diagonal_reaches(a: np.ndarray, threshold: float) -> bool:
    """Whether some |a_ii| clears ``threshold`` by the margin, which puts |a| above it."""
    return bool(np.abs(np.diagonal(a)).max(initial=0.0) >= threshold * (1.0 + _DIAGONAL_MARGIN))


def truncation_tail(ts: Sequence[np.ndarray], d: int) -> float:
    """|Phi^(d+1)(I)|: the exact size of what a degree-d truncation forgets."""
    return hermitian_norm(phi_power(ts, d + 1))


# A tuple whose constraint_residual exceeds this does not satisfy its relations.
_RELATION_TOL = 1e-8


def constraint_residual(ts: Sequence[np.ndarray], spec: PolyIdealSpec) -> float:
    """max_p |p(T)| over the generating relations (0 when the family is empty)."""
    mats = as_matrices(ts)
    if spec.n != len(mats):
        raise ValueError(f"relation family has n={spec.n} but the tuple has n={len(mats)}")
    worst = 0.0
    for p in spec.generators():
        worst = max(worst, opnorm(p.apply_to(mats)))
    return worst


def require_relations(
    ts: Sequence[np.ndarray],
    spec: PolyIdealSpec,
    what: str = "tuple",
    *,
    residual: float | None = None,
) -> float:
    """constraint_residual, refused with ValueError above 1e-8.

    ``residual`` reuses the tuple's constraint_residual under ``spec`` when
    the caller already has it.
    """
    if residual is None:
        residual = constraint_residual(ts, spec)
    if residual > _RELATION_TOL:
        raise ValueError(
            f"{what} violates the polynomial relations: residual {residual:.3e} "
            f"exceeds {_RELATION_TOL:.0e}"
        )
    return residual
