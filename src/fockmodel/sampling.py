"""Random row contractions in the structured families used by tests and demos.

All constructors take a ``numpy.random.Generator`` and a target value for
rho = |sum_i T_i T_i*|, and return a list of matrices scaled exactly to that
rho.  The nilpotent families are exactly what their names say: every product
of length >= m of the tuple's entries vanishes, so a degree-d truncation with
d >= m forgets *nothing* (the truncation tail is exactly zero).  That makes
them the natural test family for identities that hold exactly at truncation.
:func:`q_commuting_shift_tuple` is the q-commuting family that is not
nilpotent, with a truncation tail that is not zero at any degree, and
:func:`commuting_diagonalizable_tuple` the commuting one.
:func:`direct_sum` builds reducible tuples from these, whose invariants are
known from the parts'.
"""

from __future__ import annotations

import numpy as np

from .contractions import spectral_radius_of_phi
from .linalg import adj


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(rng, m))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def scale_to_rho(mats: list[np.ndarray], rho: float) -> list[np.ndarray]:
    """Rescale a tuple so |sum T_i T_i*| hits the target exactly."""
    current = spectral_radius_of_phi(mats)
    if current <= 0:
        raise ValueError("cannot rescale the zero tuple to a positive rho")
    c = np.sqrt(rho / current)
    return [c * t for t in mats]


def _ginibre(rng: np.random.Generator, m: int) -> np.ndarray:
    return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)


def random_row_contraction(rng: np.random.Generator, n: int, m: int, rho: float) -> list[np.ndarray]:
    """Dense generic tuple (no structure) scaled to the given rho."""
    return scale_to_rho([_ginibre(rng, m) for _ in range(n)], rho)


def random_scalar_tuple(
    rng: np.random.Generator, n: int, rho: float, *, single_nonzero: bool = False
) -> list[np.ndarray]:
    """1x1 tuple with sum |x_i|^2 = rho.

    With ``single_nonzero`` only one coordinate is nonzero -- the only way
    scalars can satisfy a q-commutation with q != 1 (x_i x_j = q x_j x_i
    forces x_i x_j = 0).
    """
    if single_nonzero:
        x = np.zeros(n, dtype=complex)
        k = int(rng.integers(n))
        x[k] = np.exp(2j * np.pi * rng.random())
    else:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = x * np.sqrt(rho) / np.linalg.norm(x)
    return [np.array([[xi]], dtype=complex) for xi in x]


def nilpotent_pair_tuple(rng: np.random.Generator, n: int, rho: float) -> list[np.ndarray]:
    """m = 2 tuple T_i = c_i E_{12}: all products of two entries vanish.

    Commutes, and q-commutes for every q, which makes it usable under any of
    the built-in relation families.
    """
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    return scale_to_rho([ci * e12 for ci in c], rho)


def commuting_nilpotent_tuple(rng: np.random.Generator, n: int, rho: float) -> list[np.ndarray]:
    """m = 3 commuting nilpotents: T_i = a_i N + b_i N^2 with N the 3x3 Jordan block."""
    nmat = np.zeros((3, 3), dtype=complex)
    nmat[0, 1] = nmat[1, 2] = 1.0
    mats = []
    for _ in range(n):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        mats.append(a * nmat + b * (nmat @ nmat))
    return scale_to_rho(mats, rho)


def commuting_diagonalizable_tuple(
    rng: np.random.Generator, n: int, m: int, rho: float
) -> list[np.ndarray]:
    """m x m commuting tuple T_i = S D_i S^(-1), D_i random complex diagonal (any n).

    S = I + 0.3 G / sqrt(m) with G complex Gaussian is well conditioned
    (cond(S) about 2 for m <= 8), so the commutators vanish to rounding.
    No T_i is nilpotent, so the truncation tail is not zero at any degree.
    """
    s = np.eye(m) + 0.3 * _ginibre(rng, m) / np.sqrt(m)
    s_inv = np.linalg.inv(s)
    diagonals = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return scale_to_rho([(s * diagonal) @ s_inv for diagonal in diagonals], rho)


def q_commuting_nilpotent_tuple(rng: np.random.Generator, q: complex, rho: float) -> list[np.ndarray]:
    """m = 3 strictly upper-triangular pair with T_1 T_2 = q T_2 T_1 (n = 2 only).

    T_i = [[0, a_i, b_i], [0, 0, c_i], [0, 0, 0]]; the products have a single
    nonzero entry a_i c_j in the corner, so the relation reduces to
    a_1 c_2 = q a_2 c_1, which is solved for c_2.
    """
    a1, c1, a2, b1, b2 = (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    if abs(a1) < 1e-3:
        a1 = a1 + 1.0  # avoid ill-conditioning in c2 = q a2 c1 / a1
    c2 = complex(q) * a2 * c1 / a1

    def up(a, b, c):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 1], t[0, 2], t[1, 2] = a, b, c
        return t

    return scale_to_rho([up(a1, b1, c1), up(a2, b2, c2)], rho)


def q_commuting_shift_tuple(
    rng: np.random.Generator, m: int, q: complex, rho: float
) -> list[np.ndarray]:
    """m x m pair T_1 = c diag(q^j), T_2 a weighted shift, with T_1 T_2 = q T_2 T_1 (n = 2 only).

    T_2 e_j = w_j e_(j+1), so T_2 is nilpotent, but T_1 is not: its powers
    never vanish, and neither does the truncation tail Phi^(d+1)(I).  |c| is
    the largest |w_j|, so after scaling |c|^2 >= rho / 2 when |q| <= 1, and
    the tail, at least T_1^(d+1) T_1^(d+1)* with e_0 entry |c|^(2(d+1)), has
    norm at least (rho / 2)^(d+1).  The diagonal is the running product of
    q, so q^(j+1) is exactly q q^j.
    """
    w = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
    c = np.exp(2j * np.pi * rng.random()) * np.max(np.abs(w))
    powers = np.cumprod(np.r_[1.0, np.full(m - 1, complex(q))])
    return scale_to_rho([c * np.diag(powers), np.diag(w, k=-1)], rho)


def direct_sum(*tuples: list[np.ndarray]) -> list[np.ndarray]:
    """T (+) T' (+) ...: generator i is the block diagonal of the tuples' i-th generators.

    The tuples must have the same number n of generators.  The sum of row
    contractions is one, with the larger rho; its defects, and the model
    space dimensions, add up.
    """
    sizes = [mats[0].shape[0] for mats in tuples]
    out = [np.zeros((sum(sizes), sum(sizes)), dtype=complex) for _ in tuples[0]]
    for start, size, mats in zip(np.cumsum([0, *sizes]), sizes, tuples):
        for block, t in zip(out, mats, strict=True):
            block[start : start + size, start : start + size] = t
    return out


def conjugated_tuple(mats: list[np.ndarray], u: np.ndarray) -> list[np.ndarray]:
    """(U T_1 U*, ..., U T_n U*)."""
    return [u @ t @ adj(u) for t in mats]
