"""Row contractions on a finite-dimensional space and their basic invariants.

A tuple T = (T_1, ..., T_n) of m x m matrices is a row contraction when the
row operator [T_1 ... T_n] : C^n (x) C^m -> C^m has norm at most 1, i.e.
sum_i T_i T_i* <= I.  Stacking convention for C^n (x) C^m: the C^n factor is
major, so block i of a length-n*m vector occupies entries [(i-1)*m, i*m).

Two defect operators control the dilation theory:

    Delta   = (I - sum_i T_i T_i*)^(1/2)     on C^m,
    Delta_* = (I - R* R)^(1/2),  R = [T_1 ... T_n],  on C^n (x) C^m.

Both are held as eigen-data, never as matrices: orthonormal bases of their
ranges (the defect spaces) and the kept eigenvalues of the squared defects,
so Delta basis = basis diag(sqrt(eigvals)) and likewise for Delta_*.

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
import functools
from typing import Sequence

import numpy as np

from .ideals import PolyIdealSpec
from .linalg import adj, hermitian_norm, hermitize, opnorm, psd_spectrum


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
    """Phi^k(I), each iterate hermitized, as :func:`classify` iterates it."""
    mats = as_matrices(ts)
    out = None
    for _ in range(k):
        out = hermitize(phi_step(mats, out))
    return np.eye(mats[0].shape[0], dtype=complex) if out is None else out


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


# How far above 1 a row contraction's squared row norm |sum T_i T_i*| may
# round: psd_spectrum allows I - sum T_i T_i* the same distance below 0.
_ROW_NORM_TOL = 1e-10


def validate(ts: Sequence[np.ndarray]) -> ValidationReport:
    """Check shapes and the row-contraction inequality sum T_i T_i* <= I.

    The tuple is a row contraction when |sum T_i T_i*| - 1 = rn^2 - 1 is at
    most ``_ROW_NORM_TOL``, the residual and tolerance of the report's
    ``row-contraction`` check.
    """
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    messages: list[str] = []
    for k, t in enumerate(mats):
        if t.ndim != 2 or t.shape != (m, m):
            raise ValueError(f"entry {k} has shape {t.shape}, expected ({m}, {m})")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"entry {k} contains non-finite values")
    rn = row_norm(mats)
    ok = rn * rn - 1.0 <= _ROW_NORM_TOL
    if not ok:
        messages.append(f"squared row norm {rn * rn:.6g} exceeds 1 + {_ROW_NORM_TOL:.0e}")
    return ValidationReport(n=len(mats), m=m, row_norm=rn, is_row_contraction=ok, messages=messages)


@dataclasses.dataclass
class DefectData:
    """Both defects as eigen-data: orthonormal range bases and kept eigenvalues.

    ``basis`` holds the kept eigenvectors of I - sum T_i T_i* (eigenvalue
    above the rank cutoff, descending) and ``eigvals`` their eigenvalues, so
    d_T = basis.shape[1] is the rank of Delta and
    basis* Delta = sqrt(eigvals)[:, None] * basis*.

    I - R*R has the spectrum of the m x m matrix I - R R* padded with
    (n - 1) m exact ones, so eigvals_star and d_star = eigvals_star.size are
    read off the one m x m ``eigh`` that gives basis.  basis_star, which
    only Theta and the model read, comes from the nm x nm ``eigh`` of
    I - R*R, taken the first time it is read; it must keep d_star
    eigenvectors, else RuntimeError.  Delta_* basis_* is
    basis_star * sqrt(eigvals_star).
    """

    basis: np.ndarray
    eigvals: np.ndarray
    eigvals_star: np.ndarray
    row: np.ndarray  # R = [T_1 ... T_n]

    @property
    def d_T(self) -> int:
        return self.basis.shape[1]

    @property
    def d_star(self) -> int:
        return self.eigvals_star.size

    @functools.cached_property
    def basis_star(self) -> np.ndarray:
        row = self.row
        basis_star, _ = _defect(np.eye(row.shape[1], dtype=complex) - adj(row) @ row)
        if basis_star.shape[1] != self.d_star:
            raise RuntimeError(
                f"the defect-star decomposition keeps {basis_star.shape[1]} eigenvectors "
                f"but the spectrum of I - R R* gives d_star = {self.d_star}"
            )
        return basis_star


def defects(ts: Sequence[np.ndarray]) -> DefectData:
    mats = as_matrices(ts)
    m = mats[0].shape[0]
    row = row_matrix(mats)
    basis, eigvals = _defect(np.eye(m, dtype=complex) - row @ adj(row))  # I - sum T_i T_i*
    # the kept spectrum of I - R*R: that of I - R R* and (n - 1) m ones, all above the cut
    eigvals_star = np.sort(np.concatenate([eigvals, np.ones(row.shape[1] - m)]))[::-1]
    return DefectData(basis=basis, eigvals=eigvals, eigvals_star=eigvals_star, row=row)


def _defect(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range basis and kept eigenvalues of a squared defect, from one eigh."""
    _, basis, kept = psd_spectrum(*np.linalg.eigh(hermitize(g)))
    return basis, kept


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


@dataclasses.dataclass
class Classification:
    pure: TriState
    cnc: TriState
    q_limit: np.ndarray
    iterations: int
    rho: float
    tail: np.ndarray | None = None  # Phi^(d+1)(I), when classify was given the degree d

    def __str__(self) -> str:
        return (
            f"pure={self.pure.value} cnc={self.cnc.value} "
            f"rho={self.rho:.6g} after {self.iterations} iterations"
        )


# A diagonal bound settles a comparison only when it clears the threshold by
# this relative margin, far beyond eigvalsh's backward error (m eps |Q_k|).
_DIAGONAL_MARGIN = 1e-6


def classify(
    ts: Sequence[np.ndarray], *, k_max: int = 500, tol: float = 1e-9, degree: int | None = None
) -> Classification:
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

    With a truncation ``degree`` d the iterate Q_(d+1) = Phi^(d+1)(I), the
    truncation tail, is kept as ``tail`` for the Poisson kernel; when the
    verdicts settle before step d + 1 the iteration continues to it, and
    those steps count in neither ``iterations`` nor ``q_limit``.  Every
    iterate is hermitized, as in :func:`phi_power`, so ``tail`` is bit for
    bit phi_power(ts, d + 1).
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
    tail = None
    for k in range(1, k_max + 1):
        q_next = q_1 if k == 1 else hermitize(phi_step(mats, q))
        step = q - q_next
        q = q_next
        iterations = k
        if degree is not None and k == degree + 1:
            tail = q
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
    if degree is not None and tail is None:  # the verdicts settled before step d + 1
        tail = q
        for _ in range(iterations, degree + 1):
            tail = hermitize(phi_step(mats, tail))
    return Classification(
        pure=pure, cnc=cnc, q_limit=q, iterations=iterations, rho=rho, tail=tail
    )


def _diagonal_reaches(a: np.ndarray, threshold: float) -> bool:
    """Whether some |a_ii| clears ``threshold`` by the margin, which puts |a| above it."""
    return bool(np.abs(np.diagonal(a)).max(initial=0.0) >= threshold * (1.0 + _DIAGONAL_MARGIN))


def truncation_tail(ts: Sequence[np.ndarray], d: int) -> float:
    """|Phi^(d+1)(I)|: the exact size of what a degree-d truncation forgets."""
    return hermitian_norm(phi_power(ts, d + 1))


# A tuple whose constraint_residual exceeds this does not satisfy its relations.
_RELATION_TOL = 1e-10


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
) -> None:
    """Refuse with ValueError a tuple whose constraint_residual exceeds 1e-10.

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
