"""Shared fixtures and slow cross-check oracles.

The constraint-dimension oracle here deliberately avoids the production
route: it spans the relation subspace by *acting with explicit operator
products on basis vectors* and takes a single numpy matrix_rank, whereas
ideal_subspace assembles coefficient vectors by index arithmetic and splits
an SVD per degree.  The two share nothing beyond the generator polynomials.
"""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from fockmodel import (
    PolyIdealSpec,
    TruncatedFockSpace,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    ideal_subspace,
)
from fockmodel.fock import left_creation_tuple, word_operator
from fockmodel.sampling import commuting_nilpotent_tuple, random_row_contraction

Q_TEST = np.exp(1j * np.pi / 3)


def opnorm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def adj(a):
    return np.conj(a.T)


def record_decompositions(monkeypatch) -> list:
    """Record (name, input shape) of every numpy svd / eigh / eigvalsh / qr call.

    numpy's own calls are seen too, such as the SVD inside ``norm(a, 2)``.
    """
    seen = []
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    for name in ("svd", "eigh", "eigvalsh", "qr"):
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
    """Theta of a tuple on ``sub``, built from its constrained kernel."""
    return constrained_characteristic_function(constrained_poisson_kernel(mats, sub))


def synthetic_theta(matrix, tail=0.0):
    """A CharFn carrying an arbitrary contraction matrix; build_model and
    delta_and_classify read only the matrix and the tail."""
    free = ideal_subspace(PolyIdealSpec(n=1), TruncatedFockSpace(1, 1))
    kernel = constrained_poisson_kernel([np.array([[0.5]])], free)
    base = constrained_characteristic_function(dataclasses.replace(kernel, tail_bound=tail))
    return dataclasses.replace(base, matrix=np.asarray(matrix, dtype=complex))


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

