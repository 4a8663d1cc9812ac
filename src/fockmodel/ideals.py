"""Polynomial relations, the subspaces they cut out, and compressed shifts.

A relation is a noncommutative polynomial in the generators (an
:class:`NCPoly`), e.g. the commutator x1*x2 - x2*x1.  A family of relations
spans, inside the truncated Fock space, the subspace

    M = span { e_alpha (terms of p) e_beta  :  |alpha| + deg p + |beta| <= d },

i.e. all two-sided word multiples of the relations that fit under the degree
cap.  Its orthogonal complement N carries the constrained theory: the
compressions of the left/right creation operators to N are the constrained
shift operators.  Only N is built; M enters as I - N N*, and dim M is
dim - dim N.

When every relation is homogeneous ("graded"), M and N split into degree
blocks, and N is fixed degree by degree by the recurrence of a graded
algebra's ideal (Polishchuk and Positselski, *Quadratic Algebras*, ch. 1):

    N_0 = C (or 0 under a constant relation),
    N_k = (N_(k-1) (x) C^n)  ∩  (C^n (x) N_(k-1))  ∩  R_k-perp,

with R_k the span of the relations of degree k.  It holds because every
spanning vector alpha p beta with |alpha| + |beta| >= 1 lies in
M_(k-1) (x) C^n or in C^n (x) M_(k-1).  The intersection comes from the SVD
of the a x a cosine matrix (N_(k-1) (x) I)* (I (x) N_(k-1)), a = n dim
N_(k-1): its cosines equal to 1 (up to 1e-10) span it, and the largest
cosine rejected is recorded as the subspace's ``margin``, with a
NumericalRankWarning when it comes within 1e-8 of 1.  For the commutative
family this N is the symmetric Fock space (Arveson, "Subalgebras of
C*-algebras III", 1998).  Every N_k has its own basis, so N is block
diagonal and each column has an exact degree; nothing indexed by the whole
word space on both sides is formed.

Relations that are not homogeneous have no such recurrence: their spanning
vectors, assembled combinatorially (by word concatenation), are split by one
SVD on the whole space, and each N column gets the top degree of its support.
Downstream identities that rely on degree windows then hold on one fewer
degree.  As a guard against index bugs, every spanning vector is re-derived
by walking the creation operators' index maps from the vacuum and compared
at 1e-12.

Every product by N is a method of :class:`ConstrainedSubspace`, and no
other module reads N's basis, so how N is held is decided here alone:

- ``lift`` and ``compress``: N (x) I and N* (x) I;
- ``shift_adjoint``: the adjoints of the compressed left shifts
  B_i = N* S_i N, which the model applies by a row gather through the
  index maps of :func:`fock.creation_targets`, never as matrices;
- ``right_shifts``: the compressed right shifts N* R_i N as matrices, for
  the closed form of Theta at them, and N's coinvariance leak under R_i;
- ``degree_rows``: N's rows at one degree, on the columns that can be
  nonzero there, from which Theta_N is contracted;
- ``leak``: the part of a kernel off N, streamed a chunk of words at a time;
- ``top_spill``: the norm of N's columns of degree <= d - 1 on the
  top-degree words, which with the leak bounds the kernel's eq-ker;
- ``same_as``: whether two subspaces are one N.

On the whole space, held without a basis, the products by N are no-ops,
B_i* is the gather alone, the leak and the spill are 0 and the degree rows
are identity blocks.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .fock import TruncatedFockSpace, Word, creation_targets
from .linalg import (NumericalRankWarning, _word_chunks, adj, canonical_phase, kron_left, opnorm,
                     stacked_opnorm)

_CROSSCHECK_TOL = 1e-12
_RANK_TOL = 1e-10  # singular-value cutoff for the rank of the relation span (relative on the spanning route)
_COSINE_CUT = 1e-10  # a cosine within this of 1 spans the intersection of the recurrence
_COSINE_WARN = 1e-8  # a rejected cosine within this of 1 makes that cut suspect


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
                         mapping {(i, j): q_ij} with a key for every pair
                         1 <= i < j <= n and no other key,
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
            pairs = list(itertools.combinations(range(1, self.n + 1), 2))
            if isinstance(self.q, Mapping):
                for pair in self.q:
                    if pair not in pairs:
                        raise ValueError(f"pair {pair!r} lies outside 1 <= i < j <= {self.n}")
                missing = [pair for pair in pairs if pair not in self.q]
                if missing:
                    raise ValueError(f"missing pairs {missing}")
            for i, j in pairs:
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
            return complex(self.q[(i, j)])
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
    """An orthonormal basis of the constrained subspace N, the complement of the relation span M.

    N_degrees gives one integer per basis column: the exact degree for graded
    relation families, otherwise the top degree carrying more than 1e-10 of
    the column's mass.  N columns are sorted by degree either way, so the
    first ``n_cols_up_to(k)`` columns span the degree-window part of N; for
    a graded family N_basis is block diagonal, the columns of degree k
    vanishing off the degree-k rows.

    ``margin`` is the largest cosine the degree recurrence rejected (0.0 when
    it rejected none, the recurrence's cut lying at 1 - 1e-10); it is None
    for families that are not graded, which take the spanning route.

    The products every reader of N needs are methods: :meth:`lift` and
    :meth:`compress` apply N (x) I_d and N* (x) I_d, :meth:`shift_adjoint`
    applies B_i* (x) I_d, B_i = N* S_i N the compressed left creation, by
    the index map of S_i; :meth:`right_shifts` gives the compressed right
    shifts and the coinvariance leak, :meth:`degree_rows` N's rows at one
    degree, :meth:`leak` the part of an array off N, :attr:`top_spill` the
    low-degree columns' part on the top degree, and :meth:`same_as` matches
    two subspaces.  How N is held is decided here alone.

    When M is trivial (no relation fits below the degree cap, the zero family
    among them) N is the whole space: ``basis`` is None, ``is_whole_space``
    reports it, ``dim_N`` and ``vacuum_in_N`` read the space, and ``lift``
    and ``compress`` return their argument itself.  ``N_basis`` is then the
    exact identity, built on first read (67 MB at (2, 10)); only tests read
    it there.
    """

    space: TruncatedFockSpace
    spec: PolyIdealSpec
    basis: np.ndarray | None
    graded: bool
    N_degrees: np.ndarray
    margin: float | None

    @cached_property
    def N_basis(self) -> np.ndarray:
        """The dim x dim_N orthonormal basis of N: ``basis``, or I on the whole space."""
        return np.eye(self.space.dim, dtype=complex) if self.basis is None else self.basis

    @property
    def dim_N(self) -> int:
        return self.space.dim if self.basis is None else self.basis.shape[1]

    @property
    def dim_M(self) -> int:
        return self.space.dim - self.dim_N

    @property
    def is_whole_space(self) -> bool:
        """N is the whole truncated space (dim M = 0), held as no basis at all."""
        return self.basis is None

    @property
    def vacuum_in_N(self) -> bool:
        if self.basis is None:
            return True
        v = self.basis[0, :]  # vacuum row: index 0 in graded-lex order
        return abs(float(np.linalg.norm(v)) - 1.0) < 1e-10

    def n_cols_up_to(self, k: int) -> int:
        """How many N-basis columns have degree <= k (a prefix, by sorting)."""
        return int(np.searchsorted(self.N_degrees, k, side="right"))

    def lift(self, x: np.ndarray, d: int) -> np.ndarray:
        """(N (x) I_d) x, from (dim_N d) rows to (dim d); ``x`` itself on the whole space."""
        return x if self.basis is None else kron_left(self.basis, x, d)

    def compress(self, x: np.ndarray, d: int) -> np.ndarray:
        """(N* (x) I_d) x, from (dim d) rows to (dim_N d); ``x`` itself on the whole space.

        Taken as conj((N^T (x) I_d) conj(x)), which conjugates ``x`` and the
        result; N* would be a conjugated copy of the whole basis per call.
        """
        return x if self.basis is None else kron_left(self.basis.T, x.conj(), d).conj()

    def shift_adjoint(self, i: int, x: np.ndarray, d: int) -> np.ndarray:
        """(B_i* (x) I_d) x with B_i = N* S_i N, S_i the left creation by letter i.

        S_i* reads the row of the word (i,) + w into the row of w, so
        B_i* = N* S_i* N is the compression of a row gather of the lifted
        ``x`` at the targets of :func:`fock.creation_targets`; the rows of
        the top-degree words, which have no target, are zero.  No dense
        shift is formed.
        """
        targets, dim, cols = creation_targets(self.space, i, "left"), self.space.dim, x.shape[1]
        lifted = self.lift(x, d).reshape(dim, d * cols)
        gathered = np.zeros_like(lifted)
        gathered[: targets.size] = lifted[targets]
        return self.compress(gathered.reshape(dim * d, cols), d)

    def right_shifts(self) -> tuple[list[np.ndarray], float]:
        """The compressed right shifts B_i = N* R_i N and the leak max_i |R_i* N - N B_i*|.

        The B_i are the matrices of :func:`constrained_creation`.  R_i* reads
        the row of the word w + (i,) into the row of w, so R_i* N is N's rows
        at the right creation targets on the words of degree < d, and zero
        on the top degree; the leak is max_i |(I - N N*) R_i* N|, the
        coinvariance of N under the right shifts.
        """
        nb, raising, leak = self.N_basis, constrained_creation_tuple(self, "right"), 0.0
        for i, b in enumerate(raising, start=1):
            targets = creation_targets(self.space, i, "right")
            residual = nb @ adj(b)
            residual[: targets.size] -= nb[targets]
            leak = max(leak, opnorm(residual))
        return raising, leak

    def degree_rows(self, r: int) -> tuple[slice, np.ndarray]:
        """The columns of N that can be nonzero at the degree-r words, and N's rows there on them.

        A graded N, and the whole space, is block diagonal, so those are the
        columns of degree r; otherwise they are all columns.  On the whole
        space the rows are the n^r identity block, and no ``N_basis`` is built.
        """
        words = self.space.degree_slice(r)
        if self.basis is None:  # the columns of degree r are the words of degree r
            return words, np.eye(words.stop - words.start, dtype=complex)
        cols = slice(self.n_cols_up_to(r - 1), self.n_cols_up_to(r)) if self.graded else slice(None)
        return cols, self.basis[words, cols]

    def leak(self, x: np.ndarray, compressed: np.ndarray) -> float:
        """|((I - N N*) (x) I_d) x| for ``x`` of shape (dim, d, cols), the part of ``x`` off N.

        ``compressed`` is (N* (x) I_d) x, from :meth:`compress`.  The
        difference x - (N (x) I_d) compressed is formed a chunk of words at a
        time (:func:`linalg._word_chunks`), never whole, and its spectral
        norm taken from the stacked chunks (:func:`linalg.stacked_opnorm`).
        On the whole space nothing is off N and the leak is 0.0.
        """
        if self.basis is None:
            return 0.0
        d, cols = x.shape[1:]
        flat = x.reshape(-1, cols)

        def residual_chunks():
            for w0, w1 in _word_chunks(self.space.dim, d * cols):
                chunk = kron_left(self.basis[w0:w1], compressed, d)
                chunk -= flat[w0 * d : w1 * d]
                yield chunk

        return stacked_opnorm(residual_chunks(), cols)

    @cached_property
    def top_spill(self) -> float:
        """|N_c,top|: the columns of degree <= d - 1 on the top-degree words, spectral norm.

        A graded N, and the whole space, is block diagonal by degree, so the
        spill is exactly 0.0 there and nothing is formed.  On the spanning
        route a column's degree ignores up to 1e-10 of its mass per degree,
        and this is the norm of what the top degree holds of it.
        """
        if self.graded or self.basis is None:
            return 0.0
        d = self.space.d
        return opnorm(self.basis[self.space.degree_slice(d), : self.n_cols_up_to(d - 1)])

    def same_as(self, other: ConstrainedSubspace) -> bool:
        """Whether ``other`` is this N: the same (n, d), and both whole spaces or equal bases.

        Equal dimensions do not do, since the commutative and q-commutative
        families share dim N.
        """
        if (self.space.n, self.space.d) != (other.space.n, other.space.d):
            return False
        if self.basis is None or other.basis is None:
            return self.basis is other.basis
        return self is other or np.array_equal(self.basis, other.basis)


def ideal_subspace(spec: PolyIdealSpec, space: TruncatedFockSpace) -> ConstrainedSubspace:
    """Compute the constrained subspace N at truncation.

    A graded family takes the degree recurrence of the module docstring
    (:func:`_degree_recurrence`); any other family splits its spanning
    vectors by one SVD at the relative rank cut 1e-10 and sorts N by the top
    degree of each column's support (:func:`_spanning_complement`).  When no
    relation fits below the degree cap N is the whole space, held without a
    basis.
    """
    if spec.n != space.n:
        raise ValueError(f"relation family has n={spec.n} but the space has n={space.n}")
    gens = spec.generators()
    for p in gens:
        if p.max_letter > space.n:
            raise ValueError(f"relation {p!r} uses a generator beyond n={space.n}")

    graded = spec.is_graded
    if all(p.degree > space.d for p in gens):  # no relations, or none fits below the cap
        return ConstrainedSubspace(
            space=space,
            spec=spec,
            basis=None,
            graded=graded,
            N_degrees=space.degrees.copy(),
            margin=0.0 if graded else None,
        )
    if not graded:
        n_basis, n_degrees = _spanning_complement(gens, space)
        return ConstrainedSubspace(space, spec, n_basis, False, n_degrees, None)

    blocks, margin = _degree_recurrence(gens, space)
    n_degrees = np.repeat(np.arange(space.d + 1), [b.shape[1] for b in blocks])
    n_basis = np.zeros((space.dim, n_degrees.size), dtype=complex)
    col = 0
    for k, block in enumerate(blocks):
        n_basis[space.degree_slice(k), col : col + block.shape[1]] = block
        col += block.shape[1]
    return ConstrainedSubspace(space, spec, n_basis, True, n_degrees, margin)


def _degree_recurrence(
    gens: list[NCPoly], space: TruncatedFockSpace
) -> tuple[list[np.ndarray], float]:
    """The blocks N_k, k = 0..d, of a graded family (n^k x dim N_k each) and the margin.

    Each step intersects (:func:`_intersection`), then drops the relations
    of degree k (:func:`_drop_relations`).  While N_(k-1) is the whole
    degree block it is kept as None, the identity, and no SVD is taken.
    The margin is the largest cosine any intersection rejected.
    """
    n, d = space.n, space.d
    relations: dict[int, list[np.ndarray]] = {}
    for p in gens:
        if p.degree <= d:
            vec = np.zeros(n**p.degree, dtype=complex)
            start = space.degree_slice(p.degree).start
            for w, c in p.terms.items():
                vec[space.index(w) - start] = c
            relations.setdefault(p.degree, []).append(vec / np.linalg.norm(vec))

    blocks: list[np.ndarray] = []
    margin = 0.0
    basis = None  # N_(k-1); None while it is the whole degree block
    for k in range(d + 1):
        if basis is not None:
            basis, rejected = _intersection(basis, n)
            margin = max(margin, rejected)
        if k in relations:
            basis = _drop_relations(basis, np.column_stack(relations[k]))
        blocks.append(np.eye(n**k, dtype=complex) if basis is None else basis)
    if margin > 1.0 - _COSINE_WARN:
        warnings.warn(
            f"a cosine of {margin:.12f} was rejected from a degree intersection, "
            f"within {_COSINE_WARN:.0e} of the cut at 1 - {_COSINE_CUT:.0e}",
            NumericalRankWarning,
            stacklevel=3,
        )
    return blocks, margin


def _intersection(basis: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """(N (x) C^n) ∩ (C^n (x) N) for the orthonormal columns N of ``basis``, and the largest rejected cosine.

    P = N (x) I and Q = I (x) N have orthonormal columns, so the singular
    values of the a x a matrix P* Q = U S V* are the cosines of the
    principal angles between their spans, and the columns of P U whose
    cosine is 1 up to 1e-10 are an orthonormal basis of the intersection.
    P is applied by :func:`linalg.kron_left`, never formed.
    """
    rows, a0 = basis.shape
    q = np.zeros((n, rows, n, a0), dtype=complex)  # I (x) N: n diagonal copies of N
    q[np.arange(n), :, np.arange(n), :] = basis
    cosine = kron_left(adj(basis), q.reshape(n * rows, n * a0), n)  # (N (x) I)* (I (x) N)
    u, s, _ = np.linalg.svd(cosine)
    kept = int(np.count_nonzero(s >= 1.0 - _COSINE_CUT))
    rejected = float(s[kept]) if kept < s.size else 0.0
    return canonical_phase(kron_left(basis, u[:, :kept], n)), rejected


def _drop_relations(basis: np.ndarray | None, relations: np.ndarray) -> np.ndarray:
    """The part of span(``basis``) orthogonal to the unit relation vectors (None: the whole block).

    With X = ``basis``, the left singular vectors of X* R beyond its rank
    (singular values above 1e-10) are the coordinates of that part; R's
    columns have norm 1, so the cut does not depend on how a relation is
    scaled.
    """
    overlap = relations if basis is None else adj(basis) @ relations
    u, s, _ = np.linalg.svd(overlap, full_matrices=True)
    rank = int(np.count_nonzero(s > _RANK_TOL))
    kept = u[:, rank:]
    return canonical_phase(kept if basis is None else basis @ kept)


def _spanning_complement(
    gens: list[NCPoly], space: TruncatedFockSpace
) -> tuple[np.ndarray, np.ndarray]:
    """N and its column degrees from one SVD of every spanning vector, for any family.

    The spanning vectors are checked by :func:`_crosscheck_spanning` first.
    The relative rank cut is 1e-10; each N column's degree is the top degree
    carrying more than 1e-10 of its mass, and N is sorted by it.
    """
    span, meta = _spanning_vectors(gens, space)
    _crosscheck_spanning(space, span, meta)
    u, s, _ = np.linalg.svd(span, full_matrices=True)
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    n_part = u[:, rank:]
    degrees = np.zeros(n_part.shape[1], dtype=int)
    for k in range(1, space.d + 1):
        degrees[np.linalg.norm(n_part[space.degree_slice(k)], axis=0) > 1e-10] = k
    order = np.argsort(degrees, kind="stable")
    return canonical_phase(n_part[:, order]), degrees[order]


def _spanning_vectors(
    gens: list[NCPoly], space: TruncatedFockSpace
) -> tuple[np.ndarray, list[tuple[Word, NCPoly, Word]]]:
    """The spanning vectors e_(alpha w beta) summed with the relation coefficients, one column each.

    Returns the dim x count array and the (alpha, p, beta) of every column.
    """
    n, d = space.n, space.d
    entries: list[tuple[int, int, complex]] = []  # (row, column, coefficient) per term
    meta: list[tuple[Word, NCPoly, Word]] = []
    for p in gens:
        t = p.degree
        for ka in range(0, d - t + 1):
            for alpha in itertools.product(range(1, n + 1), repeat=ka):
                for kb in range(0, d - t - ka + 1):
                    for beta in itertools.product(range(1, n + 1), repeat=kb):
                        for w, c in p.terms.items():
                            entries.append((space.index(alpha + w + beta), len(meta), c))
                        meta.append((alpha, p, beta))
    rows, cols, coefs = zip(*entries)
    span = np.zeros((space.dim, len(meta)), dtype=complex)
    np.add.at(span, (rows, cols), coefs)
    return span, meta


def constrained_creation(sub: ConstrainedSubspace, i: int, side: str = "left") -> np.ndarray:
    """Compression N* S N of a creation operator to the constrained subspace N, as a matrix.

    S sends the c-th word of degree < d to its target word, so S N has the
    rows of N's prefix at the targets and N* S N = N[targets]* N[prefix];
    when N is the whole space, N_basis is I and this is S itself.  The
    package applies B_i* by :meth:`ConstrainedSubspace.shift_adjoint`
    instead; the matrices of the right shifts serve
    :meth:`ConstrainedSubspace.right_shifts`.
    """
    targets = creation_targets(sub.space, i, side)
    return adj(sub.N_basis[targets]) @ sub.N_basis[: targets.size]


def constrained_creation_tuple(sub: ConstrainedSubspace, side: str = "left") -> list[np.ndarray]:
    return [constrained_creation(sub, i, side) for i in range(1, sub.space.n + 1)]


def _crosscheck_spanning(
    space: TruncatedFockSpace,
    span: np.ndarray,
    meta: list[tuple[Word, NCPoly, Word]],
) -> None:
    """Re-derive every spanning vector, a column of ``span``, by walking the index maps.

    The main construction writes coefficients into the slots that
    ``space.index`` gives the concatenated words; this guard instead walks
    S_alpha p(S) e_beta from the vacuum through the left creation targets of
    :func:`fock.creation_targets` -- the letters of beta, then those of each
    term of p, then those of alpha, each word right to left -- to the
    entries of every vector (:func:`_walk_spanning`), and insists the two
    routes agree to 1e-12 on every entry of ``span``.  Disagreement means an
    indexing bug, so it raises rather than warns.
    """
    rows, cols, coefs = _walk_spanning(space, meta)
    derived = np.zeros_like(span)
    derived[rows, cols] = coefs
    worst = float(np.max(np.abs(derived - span), initial=0.0))
    if worst > _CROSSCHECK_TOL:
        raise RuntimeError(
            f"spanning-vector routes disagree by {worst:.3e} (> {_CROSSCHECK_TOL:.0e}); "
            "this indicates an internal indexing bug"
        )


def _walk_spanning(
    space: TruncatedFockSpace, meta: list[tuple[Word, NCPoly, Word]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, coefficient) of every entry of the spanning vectors S_alpha p(S) e_beta.

    Column j is the vector of ``meta[j]``, one entry per term of p, and no
    two entries share a slot.  Each vector is walked on its own, one lookup
    in the targets of its letter per letter.
    """
    targets = [creation_targets(space, i, "left") for i in range(1, space.n + 1)]

    def walk(position: int, word: Word) -> int:
        for a in reversed(word):
            position = targets[a - 1][position]
        return position

    rows, cols, coefs = zip(*(
        (walk(walk(walk(0, beta), w), alpha), col, c)  # the vacuum is basis vector 0
        for col, (alpha, p, beta) in enumerate(meta)
        for w, c in p.terms.items()
    ))
    return np.array(rows), np.array(cols), np.array(coefs)
