"""Shared fixtures and slow cross-check oracles.

The constraint-dimension oracle here deliberately avoids the production
route: it spans the relation subspace by *acting with explicit operator
products on basis vectors* and takes a single numpy matrix_rank, whereas
ideal_subspace runs a degree recurrence (graded families) or assembles
coefficient vectors by index arithmetic (the others).  The two share nothing
beyond the generator polynomials.  :func:`spanning_svd_subspace` keeps the
spanning-vector SVD, by degree block for graded families, as the oracle of
both routes, with the relation span M that production no longer builds.
"""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from fockmodel import (
    CharFn,
    NCPoly,
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    ideal_subspace,
)
from fockmodel.fock import left_creation_tuple, word_operator
from fockmodel.linalg import canonical_phase
from fockmodel.sampling import (
    commuting_diagonalizable_tuple,
    commuting_nilpotent_tuple,
    direct_sum,
    nilpotent_pair_tuple,
    random_row_contraction,
)

Q_TEST = np.exp(1j * np.pi / 3)


def opnorm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def adj(a):
    return np.conj(a.T)


def psd_sqrt(g):
    """The Hermitian square root of a PSD matrix, formed densely: the oracle of the defect roots."""
    w, v = np.linalg.eigh(g)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ adj(v)


def record_decompositions(monkeypatch, names=("svd", "eigh", "eigvalsh", "qr")) -> list:
    """Record (name, input shape) of every call of the numpy.linalg functions ``names``.

    By default those are svd, eigh, eigvalsh and qr; pass ``names`` to watch
    others, such as solve.  numpy's own calls are seen too, such as the SVD
    inside ``norm(a, 2)``.
    """
    seen = []
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    for name in names:
        original = getattr(inner, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            seen.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
        monkeypatch.setattr(inner, name, recorded)
    return seen


def brute_force_constraint_dims(spec: PolyIdealSpec, space: TruncatedFockSpace):
    """(dim relation span, dim complement) the slow way; see module docstring."""
    gens = spec.generators()
    if not gens:
        return 0, space.dim
    s = left_creation_tuple(space)
    cols = []
    for p in gens:
        t = p.degree
        pmat = p.apply_to(s)
        for ka in range(space.d - t + 1):
            for alpha in itertools.product(range(1, space.n + 1), repeat=ka):
                left = word_operator(space, alpha) @ pmat
                for kb in range(space.d - t - ka + 1):
                    for beta in itertools.product(range(1, space.n + 1), repeat=kb):
                        cols.append(left @ space.basis_vector(beta))
    if not cols:  # every generator is too long to fit below the truncation
        return 0, space.dim
    rank = int(np.linalg.matrix_rank(np.column_stack(cols)))
    return rank, space.dim - rank


@dataclasses.dataclass
class SpanningOracle:
    """Bases of N and of the relation span M from an SVD of the spanning vectors."""

    graded: bool
    N_basis: np.ndarray
    M_basis: np.ndarray
    N_degrees: np.ndarray
    M_degrees: np.ndarray


def spanning_svd_subspace(spec: PolyIdealSpec, space: TruncatedFockSpace) -> SpanningOracle:
    """N and M by a graded path (an SVD per degree) and a global one.

    Graded families split each degree block by an SVD of the spanning
    vectors alpha p beta of that degree, written on the block alone; other
    families take one SVD of every spanning vector and a column-by-column
    support degree, as ``ideal_subspace`` does.  The rank cut is 1e-10
    relative to the largest singular value.
    """
    n, d, dim = space.n, space.d, space.dim
    vectors, top_degrees = [], []
    for p in spec.generators():
        t = p.degree
        for ka in range(0, d - t + 1):
            for alpha in itertools.product(range(1, n + 1), repeat=ka):
                for kb in range(0, d - t - ka + 1):
                    for beta in itertools.product(range(1, n + 1), repeat=kb):
                        vectors.append([(space.index(alpha + w + beta), c) for w, c in p.terms.items()])
                        top_degrees.append(ka + t + kb)
    if not vectors:
        return SpanningOracle(spec.is_graded, np.eye(dim, dtype=complex),
                              np.zeros((dim, 0), dtype=complex), space.degrees.copy(),
                              np.zeros(0, dtype=int))

    def rank_of(s):
        return int(np.count_nonzero(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0

    if spec.is_graded:
        n_cols, m_cols, n_degs, m_degs = [], [], [], []
        for k in range(d + 1):
            block = space.degree_slice(k)
            vecs = [v for v, t in zip(vectors, top_degrees) if t == k]
            span = np.zeros((block.stop - block.start, len(vecs)), dtype=complex)
            for col, entries in enumerate(vecs):
                for row, c in entries:
                    span[row - block.start, col] += c
            # the left singular vectors, all of them: thin when there are more vectors than rows
            u, s, _ = np.linalg.svd(span, full_matrices=span.shape[0] > span.shape[1])
            rank = rank_of(s)
            for j in range(u.shape[1]):
                col = np.zeros(dim, dtype=complex)
                col[block] = u[:, j]
                (m_cols if j < rank else n_cols).append(col)
                (m_degs if j < rank else n_degs).append(k)

        def stack(cols):
            return np.column_stack(cols) if cols else np.zeros((dim, 0), complex)

        return SpanningOracle(True, canonical_phase(stack(n_cols)), canonical_phase(stack(m_cols)),
                              np.array(n_degs, dtype=int), np.array(m_degs, dtype=int))

    span = np.zeros((dim, len(vectors)), dtype=complex)
    for col, entries in enumerate(vectors):
        for row, c in entries:
            span[row, col] += c
    u, s, _ = np.linalg.svd(span, full_matrices=True)
    rank = rank_of(s)

    def support_degree(col):
        deg = 0
        for k in range(d + 1):
            if np.linalg.norm(col[space.degree_slice(k)]) > 1e-10:
                deg = k
        return deg

    m, n_ = u[:, :rank], u[:, rank:]
    n_degs = np.array([support_degree(n_[:, j]) for j in range(n_.shape[1])], dtype=int)
    order = np.argsort(n_degs, kind="stable")
    m_degs = np.array([support_degree(m[:, j]) for j in range(m.shape[1])], dtype=int)
    return SpanningOracle(False, canonical_phase(n_[:, order]), canonical_phase(m),
                          n_degs[order], m_degs)


def degree_projectors(basis: np.ndarray, degrees: np.ndarray, space: TruncatedFockSpace):
    """The projector onto the span of the degree-k columns, on the degree-k rows, per k."""
    out = []
    for k in range(space.d + 1):
        block = basis[space.degree_slice(k)][:, degrees == k]
        out.append(block @ adj(block))
    return out


@pytest.fixture(scope="session")
def space_factory():
    cache = {}

    def make(n, d):
        if (n, d) not in cache:
            cache[(n, d)] = TruncatedFockSpace(n, d)
        return cache[(n, d)]

    return make


def make_spec(kind, n=2, q=None):
    if kind == "q_commutative":
        return PolyIdealSpec(n=n, kind=kind, q=Q_TEST if q is None else q)
    return PolyIdealSpec(n=n, kind=kind)


@pytest.fixture(scope="session")
def subspace_factory(space_factory):
    cache = {}

    def make(kind, n=2, d=6, q=None):
        qq = None if kind != "q_commutative" else (Q_TEST if q is None else complex(q))
        key = (kind, n, d, qq)
        if key not in cache:
            cache[key] = ideal_subspace(make_spec(kind, n=n, q=qq), space_factory(n, d))
        return cache[key]

    return make


def theta_of(mats, sub):
    """Theta of a tuple on ``sub``, built from its constrained kernel, which classifies the tuple."""
    return constrained_characteristic_function(constrained_poisson_kernel(mats, sub))


def synthetic_theta(matrix, tail=0.0):
    """The degree-0 CharFn whose one Fourier block is an arbitrary contraction matrix.

    It lives on the one-word space (n, d) = (1, 0), so Theta is the matrix
    and its Gram is M M* by the Stein route.  Its kernel is a zero p x 1
    matrix with the given tail, so I - Theta Theta* - K K* is
    I - Theta Theta* itself: every matrix but a co-isometry is decomposed by
    the dense route of ``defect_star_spectrum``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    vacuum = ideal_subspace(PolyIdealSpec(n=1), TruncatedFockSpace(1, 0))
    kernel = constrained_poisson_kernel([np.array([[0.5]])], vacuum)
    zero_kernel = np.zeros((matrix.shape[0], 1), dtype=complex)
    kernel = dataclasses.replace(kernel, matrix=zero_kernel, tail_bound=tail)
    return CharFn(blocks=matrix[None], kernel=kernel)


SPECTRAL_CASES = ["nilpotent", "dense", "tall", "unitary"]


def spectral_theta(case, subspace_factory):
    """Theta of a nilpotent tuple (tail 0), a dense one (tail > 0), a tall
    p > q matrix, and a unitary (p = q = 0)."""
    rng = np.random.default_rng(29)
    if case == "nilpotent":
        mats, sub = commuting_nilpotent_tuple(rng, 2, 0.6), subspace_factory("commutative", d=5)
    elif case == "dense":
        mats, sub = random_row_contraction(rng, 2, 2, 0.5), subspace_factory("zero", d=4)
    elif case == "tall":
        g = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        return synthetic_theta(0.9 * g / opnorm(g), tail=0.01)
    else:
        mats, sub = [np.array([[1.0]])], subspace_factory("zero", n=1, d=4)
    return theta_of(mats, sub)



# Relation families and sizes on which the production routes are compared
# with the oracles kept in the tests (the two-path relation subspace, the
# comprehension-built Theta).
ORACLE_FAMILIES = [
    "zero",
    "commutative",
    "q-uniform",
    "q-per-pair",
    "custom-homogeneous",
    "custom-mixed-degree",
    "custom-constant-term",
    "longer-than-d",
    "commutative-dense",
    "zero-sum",
    "commutative-sum",
]
ORACLE_SIZES = [(1, 3), (2, 0), (2, 5), (3, 3)]


def oracle_family(name: str, n: int, d: int) -> PolyIdealSpec:
    """The relation family ``name`` on n generators; "longer-than-d" adds one of degree d + 2."""
    if name in ("zero", "zero-sum"):
        return PolyIdealSpec(n=n)
    if name in ("commutative", "commutative-dense", "commutative-sum"):
        return PolyIdealSpec(n=n, kind="commutative")
    if name == "q-uniform":
        return PolyIdealSpec(n=n, kind="q_commutative", q=Q_TEST)
    if name == "q-per-pair":
        pairs = itertools.combinations(range(1, n + 1), 2)
        q = {(i, j): np.exp(1j * (i + 2 * j)) for i, j in pairs}
        return PolyIdealSpec(n=n, kind="q_commutative", q=q)
    if name == "custom-homogeneous":
        polys = [NCPoly({(1, n): 1.0, (n, 1): -0.3 + 0.2j})]
    elif name == "custom-mixed-degree":  # homogeneous of degrees 2 and 3: R_k enters twice
        polys = [NCPoly({(1, n): 1.0, (n, 1): -0.5j}),
                 NCPoly({(1, 1, n): 1.0, (n, 1, 1): 0.4 - 0.3j, (1, n, 1): -0.7})]
    elif name == "custom-constant-term":
        polys = [NCPoly({(): 0.5, (1,): 1.0, (n, 1): 2j})]
    else:
        polys = [NCPoly({(n,) + (1,) * (d + 1): 1.0}), NCPoly({(1, n): 1.0, (n, 1): -0.5})]
    return PolyIdealSpec(n=n, kind="custom", polys=polys)


def oracle_tuple(name: str, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A row contraction satisfying the relations of ``oracle_family(name, n, d)``."""
    if name == "zero":
        return random_row_contraction(rng, n, 3, 0.6)
    if name == "commutative":
        return commuting_nilpotent_tuple(rng, n, 0.6)
    if name == "commutative-dense":  # not nilpotent: the tail is never zero
        return commuting_diagonalizable_tuple(rng, n, 4, 0.6)
    if name == "zero-sum":
        return direct_sum(random_row_contraction(rng, n, 3, 0.6), random_row_contraction(rng, n, 2, 0.6))
    if name == "commutative-sum":
        return direct_sum(commuting_nilpotent_tuple(rng, n, 0.6), commuting_nilpotent_tuple(rng, n, 0.6))
    if name == "custom-constant-term":
        # 0.5 + x1 + 2i x_n x1 = 0: a root t of 2i t^2 + t + 0.5 for n = 1,
        # else x1 = -0.5 with every other generator 0
        if n == 1:
            t = min(np.roots([2j, 1.0, 0.5]), key=abs)
            return [t * np.eye(2, dtype=complex)]
        return [-0.5 * np.eye(2, dtype=complex)] + [np.zeros((2, 2), dtype=complex)] * (n - 1)
    return nilpotent_pair_tuple(rng, n, 0.6)  # every product of two letters vanishes
