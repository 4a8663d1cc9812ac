"""Truncated full Fock space over n noncommuting generators.

Words over the alphabet {1, ..., n} of length at most d label an orthonormal
basis; the empty word () is the vacuum.  Basis order is *graded
lexicographic*: all words of length k precede those of length k+1, and words
of equal length are ordered lexicographically.  The flat index of a word
w = (a_1, ..., a_k) is therefore

    index(w) = (1 + n + ... + n^(k-1)) + sum_j (a_j - 1) * n^(k-1-j),

so each degree occupies one contiguous block and the vacuum sits at index 0.

Operators are dense complex matrices in this basis.  The left creation
operator for letter i prepends the letter; the right creation operator
appends it; both send top-degree basis vectors to zero (the truncation
convention used throughout the package).  Because they raise degree, any
product of more than d of them vanishes identically.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

Word = tuple[int, ...]


def word_count(n: int, d: int) -> int:
    """Number of words of length <= d over an n-letter alphabet."""
    return sum(n**k for k in range(d + 1))


def enumerate_words(n: int, d: int) -> list[Word]:
    """All words of length <= d in graded lexicographic order."""
    words: list[Word] = []
    for k in range(d + 1):
        words.extend(itertools.product(range(1, n + 1), repeat=k))
    return words


def word_label(w: Word) -> str:
    """Compact human-readable label, e.g. () -> 'vac', (1, 2, 1) -> '1.2.1'."""
    return ".".join(str(a) for a in w) if w else "vac"


def parse_word(text: str, n: int) -> Word:
    """Inverse of :func:`word_label` (also accepts '' for the vacuum)."""
    text = text.strip()
    if text in ("", "vac"):
        return ()
    try:
        letters = tuple(int(p) for p in text.split("."))
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    if any(a < 1 or a > n for a in letters):
        raise ValueError(f"word {text!r} has letters outside 1..{n}")
    return letters


class TruncatedFockSpace:
    """Orthonormal word basis of the degree-<= d slice of the full Fock space.

    Attributes
    ----------
    n, d : alphabet size and truncation degree.
    dim : total dimension, sum of n**k for k <= d.
    words : list of all words in basis order.
    degrees : integer array, degrees[i] = len(words[i]).
    """

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        if d < 0:
            raise ValueError(f"truncation degree must be >= 0, got d={d}")
        self.n = n
        self.d = d
        self.words = enumerate_words(n, d)
        self.dim = len(self.words)
        self.degrees = np.array([len(w) for w in self.words], dtype=int)
        self._offsets = np.concatenate(([0], np.cumsum([n**k for k in range(d + 1)])))
        self._index = {w: i for i, w in enumerate(self.words)}

    def __repr__(self) -> str:
        return f"TruncatedFockSpace(n={self.n}, d={self.d}, dim={self.dim})"

    def index(self, word: Iterable[int]) -> int:
        """Flat basis index of a word; KeyError if it is too long for the space."""
        w = tuple(word)
        try:
            return self._index[w]
        except KeyError:
            raise KeyError(
                f"word {w} of length {len(w)} is not in the degree-<= {self.d} space"
            ) from None

    def word(self, i: int) -> Word:
        return self.words[i]

    def degree_slice(self, k: int) -> slice:
        """Contiguous index range of the degree-k basis vectors."""
        if not 0 <= k <= self.d:
            raise ValueError(f"degree {k} outside 0..{self.d}")
        return slice(int(self._offsets[k]), int(self._offsets[k + 1]))

    def dim_up_to(self, k: int) -> int:
        """Dimension of the degree-<= k slice (a prefix of the basis)."""
        k = min(k, self.d)
        if k < 0:
            return 0
        return int(self._offsets[k + 1])

    def basis_vector(self, word: Iterable[int]) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[self.index(word)] = 1.0
        return e

    def vacuum(self) -> np.ndarray:
        return self.basis_vector(())


def left_creation(space: TruncatedFockSpace, i: int) -> np.ndarray:
    """Matrix of e_w -> e_{(i,) + w}, sending top-degree vectors to zero."""
    _check_letter(space, i)
    s = np.zeros((space.dim, space.dim), dtype=complex)
    for col, w in enumerate(space.words):
        if len(w) < space.d:
            s[space.index((i,) + w), col] = 1.0
    return s


def right_creation(space: TruncatedFockSpace, i: int) -> np.ndarray:
    """Matrix of e_w -> e_{w + (i,)}, sending top-degree vectors to zero."""
    _check_letter(space, i)
    r = np.zeros((space.dim, space.dim), dtype=complex)
    for col, w in enumerate(space.words):
        if len(w) < space.d:
            r[space.index(w + (i,)), col] = 1.0
    return r


def left_creation_tuple(space: TruncatedFockSpace) -> list[np.ndarray]:
    return [left_creation(space, i) for i in range(1, space.n + 1)]


def right_creation_tuple(space: TruncatedFockSpace) -> list[np.ndarray]:
    return [right_creation(space, i) for i in range(1, space.n + 1)]


def flip_unitary(space: TruncatedFockSpace) -> np.ndarray:
    """Word-reversal unitary U: e_w -> e_{reversed(w)}.

    U is a self-adjoint involution exchanging the left and right creation
    operators: U S_i U = R_i, exactly, including at the truncation boundary.
    """
    u = np.zeros((space.dim, space.dim), dtype=complex)
    for col, w in enumerate(space.words):
        u[space.index(tuple(reversed(w))), col] = 1.0
    return u


def word_operator(space: TruncatedFockSpace, word: Sequence[int], mats: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Product X_{a_1} @ X_{a_2} @ ... for a word (a_1, a_2, ...).

    With ``mats`` omitted the left creation operators are used, so the result
    is the matrix of e_v -> e_{word + v} (up to truncation).
    """
    if mats is None:
        mats = left_creation_tuple(space)
    dim = mats[0].shape[0] if mats else space.dim
    out = np.eye(dim, dtype=complex)
    for a in word:
        out = out @ mats[a - 1]
    return out


def reversed_word_products(space: TruncatedFockSpace, mats: Sequence[np.ndarray]) -> np.ndarray:
    """X_{a_p} ... X_{a_1} for every word (a_1, ..., a_p) of the space, shape (dim, k, k).

    Each product is one factor times the product of its parent word
    (a_1, ..., a_{p-1}), walking the graded order; the vacuum gets I.
    """
    k = mats[0].shape[0]
    out = np.empty((space.dim, k, k), dtype=complex)
    out[0] = np.eye(k, dtype=complex)
    for iw in range(1, space.dim):
        w = space.words[iw]
        np.matmul(mats[w[-1] - 1], out[space.index(w[:-1])], out=out[iw])
    return out


def _check_letter(space: TruncatedFockSpace, i: int) -> None:
    if not 1 <= i <= space.n:
        raise ValueError(f"generator index {i} outside 1..{space.n}")
