"""Polynomial relations, the subspaces they cut out, and compressed shifts.

A relation is a noncommutative polynomial in the generators (an
:class:`NCPoly`), e.g. the commutator x1*x2 - x2*x1.  A family of relations
spans, inside the truncated Fock space, the subspace

    M = span { e_alpha (terms of p) e_beta  :  |alpha| + deg p + |beta| <= d },

i.e. all two-sided word multiples of the relations that fit under the degree
cap.  Its orthogonal complement N carries the constrained theory: the
compressions of the left/right creation operators to N are the constrained
shift operators.

When every relation is homogeneous ("graded"), M and N split cleanly into
per-degree blocks and each N-basis column has an exact degree; the degree-k
slice of N then agrees with the degree-<= k theory exactly.  Non-homogeneous
relations lose that alignment near the top degree: N-basis columns only get a
support-based degree, and downstream identities that rely on degree windows
hold on one fewer degree.  Both paths are implemented; the graded one is
exact.

The spanning vectors are assembled combinatorially (by word concatenation)
and, as a guard against index bugs, every one is re-derived by walking the
creation operators' index maps from the vacuum and compared at 1e-12.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

import numpy as np

from .fock import TruncatedFockSpace, Word, creation_targets
from .linalg import adj, canonical_phase

_CROSSCHECK_TOL = 1e-12
_RANK_TOL = 1e-10  # relative singular-value cutoff for the rank of the relation span


class NCPoly:
    """Noncommutative polynomial: finitely many words with complex coefficients.

    Words are tuples of 1-based generator indices; the empty word is the
    constant term.  Zero coefficients are dropped on construction and terms
    are kept in graded-lex order, so equal polynomials compare equal.
    """

    def __init__(self, terms: Mapping[Sequence[int], complex]):
        merged: dict[Word, complex] = {}
        for w, c in terms.items():
            key = tuple(int(a) for a in w)
            if any(a < 1 for a in key):
                raise ValueError(f"word {key} has a letter < 1")
            c = complex(c)
            if c != 0:
                merged[key] = merged.get(key, 0.0) + c
        self.terms: dict[Word, complex] = {
            w: c
            for w, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0
        }

    @classmethod
    def commutator(cls, i: int, j: int) -> "NCPoly":
        """x_i x_j - x_j x_i."""
        return cls({(i, j): 1.0, (j, i): -1.0})

    @classmethod
    def q_commutator(cls, i: int, j: int, q: complex) -> "NCPoly":
        """x_i x_j - q * x_j x_i."""
        if q == 0:
            raise ValueError("deformation parameter must be nonzero")
        return cls({(i, j): 1.0, (j, i): -complex(q)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    @property
    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self.terms}) <= 1

    @property
    def max_letter(self) -> int:
        return max((max(w) for w in self.terms if w), default=0)

    def apply_to(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on a tuple of square matrices (empty word -> identity)."""
        if not mats:
            raise ValueError("need at least one matrix")
        dim = mats[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for w, c in self.terms.items():
            prod = np.eye(dim, dtype=complex)
            for a in w:
                prod = prod @ mats[a - 1]
            out += c * prod
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "NCPoly(0)"
        bits = []
        for w, c in self.terms.items():
            mono = "*".join(f"x{a}" for a in w) if w else "1"
            bits.append(f"({c:g})*{mono}")
        return "NCPoly(" + " + ".join(bits) + ")"


@dataclasses.dataclass
class PolyIdealSpec:
    """Which family of relations to impose.

    kind:
      "zero"          -- no relations (unconstrained theory),
      "commutative"   -- x_i x_j - x_j x_i for all i < j,
      "q_commutative" -- x_i x_j - q_ij * x_j x_i for all i < j, where q is a
                         single nonzero scalar (used for every pair) or a
                         mapping {(i, j): q_ij} with i < j,
      "custom"        -- an explicit list of polynomials.
    """

    n: int
    kind: str = "zero"
    q: complex | Mapping[tuple[int, int], complex] | None = None
    polys: Sequence[NCPoly] | None = None

    _KINDS = ("zero", "commutative", "q_commutative", "custom")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 generators, got {self.n}")
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "q_commutative":
            if self.q is None:
                raise ValueError("q_commutative relations need the parameter q")
            for i, j in itertools.combinations(range(1, self.n + 1), 2):
                if self.q_value(i, j) == 0:
                    raise ValueError(f"q[{i},{j}] must be nonzero")
        if self.kind == "custom":
            if not self.polys:
                raise ValueError("custom relations need a nonempty list of polynomials")
            for k, p in enumerate(self.polys):
                if p.is_zero:
                    raise ValueError(f"custom polynomial #{k} is zero")
                if p.max_letter > self.n:
                    raise ValueError(
                        f"custom polynomial #{k} uses generator x{p.max_letter} but n={self.n}"
                    )

    def q_value(self, i: int, j: int) -> complex:
        """Deformation parameter for the pair i < j."""
        if not 1 <= i < j <= self.n:
            raise ValueError(f"need 1 <= i < j <= {self.n}, got ({i}, {j})")
        if isinstance(self.q, Mapping):
            try:
                return complex(self.q[(i, j)])
            except KeyError:
                raise KeyError(f"no deformation parameter stored for the pair ({i}, {j})") from None
        return complex(self.q)  # uniform scalar

    def generators(self) -> list[NCPoly]:
        if self.kind == "zero":
            return []
        if self.kind == "commutative":
            return [
                NCPoly.commutator(i, j)
                for i, j in itertools.combinations(range(1, self.n + 1), 2)
            ]
        if self.kind == "q_commutative":
            return [
                NCPoly.q_commutator(i, j, self.q_value(i, j))
                for i, j in itertools.combinations(range(1, self.n + 1), 2)
            ]
        return [p for p in self.polys if not p.is_zero]

    @property
    def is_graded(self) -> bool:
        """True when every generating relation is homogeneous."""
        return all(p.is_homogeneous for p in self.generators())


@dataclasses.dataclass
class ConstrainedSubspace:
    """Orthonormal bases of the relation span M and its complement N.

    N_degrees / M_degrees give one integer per basis column: the exact degree
    for graded relation families, otherwise the top degree carrying more than
    1e-10 of the column's mass.  N columns are sorted by degree either way, so
    the first ``n_cols_up_to(k)`` columns span the degree-window part of N.

    When M is trivial (no relation fits below the degree cap, the zero family
    among them) N_basis is exactly the identity; ``is_whole_space`` reports
    it, and the builders then skip their products by N.
    """

    space: TruncatedFockSpace
    spec: PolyIdealSpec
    N_basis: np.ndarray
    M_basis: np.ndarray
    graded: bool
    N_degrees: np.ndarray
    M_degrees: np.ndarray

    @property
    def dim_N(self) -> int:
        return self.N_basis.shape[1]

    @property
    def dim_M(self) -> int:
        return self.M_basis.shape[1]

    @property
    def is_whole_space(self) -> bool:
        """N is the whole truncated space: dim M = 0 and N_basis is exactly I."""
        return self.dim_M == 0

    @property
    def vacuum_in_N(self) -> bool:
        v = self.N_basis[0, :]  # vacuum row: index 0 in graded-lex order
        return abs(float(np.linalg.norm(v)) - 1.0) < 1e-10

    def projector_N(self) -> np.ndarray:
        return self.N_basis @ adj(self.N_basis)

    def n_cols_up_to(self, k: int) -> int:
        """How many N-basis columns have degree <= k (a prefix, by sorting)."""
        return int(np.searchsorted(self.N_degrees, k, side="right"))


def ideal_subspace(spec: PolyIdealSpec, space: TruncatedFockSpace) -> ConstrainedSubspace:
    """Compute the relation span M and constrained subspace N at truncation.

    Graded relation families are processed one degree block at a time (an SVD
    per degree), which keeps every basis column at an exact degree.  Mixed
    families fall back to a single global SVD with support-based degrees.
    """
    if spec.n != space.n:
        raise ValueError(f"relation family has n={spec.n} but the space has n={space.n}")
    gens = spec.generators()
    n, d, dim = space.n, space.d, space.dim

    for p in gens:
        if p.max_letter > n:
            raise ValueError(f"relation {p!r} uses a generator beyond n={n}")

    # Spanning vectors e_{alpha w beta} summed with the relation coefficients.
    vectors: list[np.ndarray] = []
    top_degrees: list[int] = []  # |alpha| + deg p + |beta|
    meta: list[tuple[Word, NCPoly, Word]] = []
    for p in gens:
        t = p.degree
        for ka in range(0, d - t + 1):
            for alpha in itertools.product(range(1, n + 1), repeat=ka):
                for kb in range(0, d - t - ka + 1):
                    for beta in itertools.product(range(1, n + 1), repeat=kb):
                        vec = np.zeros(dim, dtype=complex)
                        for w, c in p.terms.items():
                            vec[space.index(alpha + w + beta)] += c
                        vectors.append(vec)
                        top_degrees.append(ka + t + kb)
                        meta.append((alpha, p, beta))

    if not vectors:  # no relations, or none fits below the degree cap
        return ConstrainedSubspace(
            space=space,
            spec=spec,
            N_basis=np.eye(dim, dtype=complex),
            M_basis=np.zeros((dim, 0), dtype=complex),
            graded=spec.is_graded,
            N_degrees=space.degrees.copy(),
            M_degrees=np.zeros(0, dtype=int),
        )
    _crosscheck_spanning(space, vectors, meta)

    graded = spec.is_graded
    if graded:
        n_cols, m_cols, n_degs, m_degs = [], [], [], []
        span_by_degree: dict[int, list[np.ndarray]] = {}
        for vec, k in zip(vectors, top_degrees):
            span_by_degree.setdefault(k, []).append(vec)
        for k in range(d + 1):
            block = space.degree_slice(k)
            block_dim = block.stop - block.start
            vecs = span_by_degree.get(k)
            if not vecs:
                comp = np.eye(block_dim, dtype=complex)
                rank = 0
                u = comp
            else:
                a = np.column_stack([v[block] for v in vecs])
                u, s, _ = np.linalg.svd(a, full_matrices=True)
                rank = int(np.count_nonzero(s > _RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
            for j in range(rank):
                col = np.zeros(dim, dtype=complex)
                col[block] = u[:, j]
                m_cols.append(col)
                m_degs.append(k)
            for j in range(rank, block_dim):
                col = np.zeros(dim, dtype=complex)
                col[block] = u[:, j]
                n_cols.append(col)
                n_degs.append(k)
        N = canonical_phase(np.column_stack(n_cols)) if n_cols else np.zeros((dim, 0), complex)
        M = canonical_phase(np.column_stack(m_cols)) if m_cols else np.zeros((dim, 0), complex)
        return ConstrainedSubspace(
            space=space,
            spec=spec,
            N_basis=N,
            M_basis=M,
            graded=True,
            N_degrees=np.array(n_degs, dtype=int),
            M_degrees=np.array(m_degs, dtype=int),
        )

    a = np.column_stack(vectors)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    M = u[:, :rank]
    N = u[:, rank:]

    def support_degree(col: np.ndarray) -> int:
        deg = 0
        for k in range(d + 1):
            if np.linalg.norm(col[space.degree_slice(k)]) > 1e-10:
                deg = k
        return deg

    n_degs = np.array([support_degree(N[:, j]) for j in range(N.shape[1])], dtype=int)
    order = np.argsort(n_degs, kind="stable")
    N = canonical_phase(N[:, order])
    n_degs = n_degs[order]
    m_degs = np.array([support_degree(M[:, j]) for j in range(M.shape[1])], dtype=int)
    return ConstrainedSubspace(
        space=space,
        spec=spec,
        N_basis=N,
        M_basis=canonical_phase(M),
        graded=False,
        N_degrees=n_degs,
        M_degrees=m_degs,
    )


def constrained_creation(sub: ConstrainedSubspace, i: int, side: str = "left") -> np.ndarray:
    """Compression N* S N of a creation operator to the constrained subspace N.

    S sends the c-th word of degree < d to its target word, so S N has the
    rows of N's prefix at the targets and N* S N = N[targets]* N[prefix].
    """
    targets = creation_targets(sub.space, i, side)
    return adj(sub.N_basis[targets]) @ sub.N_basis[: targets.size]


def constrained_creation_tuple(sub: ConstrainedSubspace, side: str = "left") -> list[np.ndarray]:
    return [constrained_creation(sub, i, side) for i in range(1, sub.space.n + 1)]


def _crosscheck_spanning(
    space: TruncatedFockSpace,
    vectors: list[np.ndarray],
    meta: list[tuple[Word, NCPoly, Word]],
) -> None:
    """Re-derive every spanning vector by walking the creation index maps.

    The main construction writes coefficients into the slots that
    ``space.index`` gives the concatenated words; this guard instead walks
    S_alpha p(S) e_beta from the vacuum through the left creation targets of
    :func:`fock.creation_targets` -- the letters of beta, then those of each
    term of p, then those of alpha, each word right to left -- and insists
    the two routes agree to 1e-12.  Disagreement means an indexing bug, so it
    raises rather than warns.
    """
    targets = {i: creation_targets(space, i, "left") for i in range(1, space.n + 1)}

    def walk(position: int, word: Word) -> int:
        for a in reversed(word):
            position = int(targets[a][position])
        return position

    worst = 0.0
    for vec, (alpha, p, beta) in zip(vectors, meta):
        derived = np.zeros(space.dim, dtype=complex)
        at_beta = walk(0, beta)  # the vacuum is basis vector 0
        for w, c in p.terms.items():
            derived[walk(walk(at_beta, w), alpha)] += c
        worst = max(worst, float(np.max(np.abs(derived - vec))))
    if worst > _CROSSCHECK_TOL:
        raise RuntimeError(
            f"spanning-vector routes disagree by {worst:.3e} (> {_CROSSCHECK_TOL:.0e}); "
            "this indicates an internal indexing bug"
        )
