"""The benchmark's workloads: seeded problem files and the command list each one drives.

Every workload is a closed loop: one client runs the commands in order, one at
a time, through ``fockmodel.cli.main``.  Inputs are generated from the seed
with ``fockmodel.sampling`` and written as ordinary problem files; the program
sees only those files.

Each command carries the exit code it must return and the discrete report
fields (dimensions, ranks, verdicts, operator branch, classification) recorded
when the workload was defined.  The recorded values are properties of the
problem kind, not of one draw: generic draws from the same family give the
same ranks and verdicts for every seed.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path

import numpy as np

# fockmodel is imported inside the functions, after run.py has put the
# checkout's ``src`` first on sys.path.


@dataclasses.dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]  # without --out; each pass writes its own report
    expect_exit: int
    expect: dict  # dotted report path -> value recorded when the workload was defined


class Writer:
    """Writes the problem and unitary files of one run under ``root``."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def problem(self, name: str, d: int, mats, ideal) -> str:
        from fockmodel.problem_io import Problem, save_problem

        path = self.root / f"{name}.json"
        save_problem(path, Problem(n=ideal.n, m=int(mats[0].shape[0]), degree=d, mats=mats, ideal=ideal))
        return str(path)

    def unitary(self, name: str, u) -> str:
        from fockmodel.problem_io import encode_value

        path = self.root / f"{name}.json"
        path.write_text(json.dumps({"matrix": encode_value(u)}, sort_keys=True) + "\n")
        return str(path)


def _cmd(name, sub, problem, expect_exit=0, *, extra=(), expect=None) -> Command:
    return Command(name, (sub, "--problem", problem, *extra), expect_exit, dict(expect or {}))


def _ideal(n: int, kind: str, q=None):
    from fockmodel.ideals import PolyIdealSpec

    return PolyIdealSpec(n=n, kind=kind, q=q)


def q_commuting_nilpotent_triple(rng: np.random.Generator, rho: float):
    """m = 3 strictly upper-triangular n = 3 tuple with T_i T_j = q_ij T_j T_i.

    T_i = [[0, a_i, b_i], [0, 0, c_i], [0, 0, 0]] and c_i = a_i x_i with
    |x_i| = 1, so the only nonzero product entry a_i c_j gives
    q_ij = x_j / x_i, a unimodular deformation per pair.
    Returns (mats, ideal) with the per-pair q map.
    """
    from fockmodel.sampling import scale_to_rho

    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = np.where(np.abs(a) < 1e-2, a + 1.0, a)  # keep every pair's q well defined
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = np.exp(2j * np.pi * rng.random(3))
    mats = []
    for i in range(3):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 1], t[0, 2], t[1, 2] = a[i], b[i], a[i] * x[i]
        mats.append(t)
    q = {(i + 1, j + 1): complex(x[j] / x[i]) for i in range(3) for j in range(i + 1, 3)}
    return scale_to_rho(mats, rho), _ideal(3, "q_commutative", q)


_CLS_PURE = {"validation.is_row_contraction": True,
             "classification.pure": "yes", "classification.cnc": "yes"}
# A nilpotent tuple's Theta is inner but not outer; its defect has rank 3 less.
_NILPOTENT_THETA = {"method": "compression", "inner": True, "outer": False, "rank_deficiency": 3,
                    **_CLS_PURE}


def _graded_theta(rng, w: Writer) -> list[Command]:
    from fockmodel.sampling import commuting_nilpotent_tuple, q_commuting_nilpotent_tuple

    q = 0.5j
    c27 = w.problem("comm-n2-d7", 7, commuting_nilpotent_tuple(rng, 2, 0.5), _ideal(2, "commutative"))
    q27 = w.problem("qcomm-n2-d7", 7, q_commuting_nilpotent_tuple(rng, q, 0.5), _ideal(2, "q_commutative", q))
    q34 = w.problem("qcomm-n3-d4", 4, *q_commuting_nilpotent_triple(rng, 0.5))
    c34 = w.problem("comm-n3-d4", 4, commuting_nilpotent_tuple(rng, 3, 0.5), _ideal(3, "commutative"))
    theta_27 = {"dims.d_T": 3, "dims.d_star": 6, "dims.dim_N": 36, "dims.rows": 108,
                "dims.cols": 216, **_NILPOTENT_THETA}
    theta_34 = {"dims.d_T": 3, "dims.d_star": 9, "dims.dim_N": 35, "dims.rows": 105,
                "dims.cols": 315, **_NILPOTENT_THETA}
    return [
        _cmd("charfn-comm-n2-d7", "charfn", c27, expect=theta_27),
        _cmd("model-qcomm-n2-d7", "model", q27,
             expect={"dims.p": 108, "dims.q": 216, "dims.s": 111, "dims.h": 3,
                     "branch": "pure", **_CLS_PURE}),
        _cmd("charfn-qcomm-n3-d4", "charfn", q34, expect=theta_34),
        _cmd("model-comm-n3-d4", "model", c34,
             expect={"dims.p": 105, "dims.q": 315, "dims.s": 213, "dims.h": 3,
                     "branch": "pure", **_CLS_PURE}),
    ]


def _free_spectral(rng, w: Writer) -> list[Command]:
    from fockmodel.sampling import commuting_nilpotent_tuple, random_row_contraction

    zero = _ideal(2, "zero")
    nil = w.problem("zero-nil-n2-d6", 6, commuting_nilpotent_tuple(rng, 2, 0.5), zero)
    dense = w.problem("zero-dense-n2-d6", 6, random_row_contraction(rng, 2, 3, 0.5), zero)
    dims = {"dims.d_T": 3, "dims.d_star": 6, "dims.dim_N": 127, "dims.rows": 381, "dims.cols": 762}
    return [
        _cmd("charfn-zero-nil-n2-d6", "charfn", nil, expect={**dims, **_NILPOTENT_THETA}),
        _cmd("charfn-zero-dense-n2-d6", "charfn", dense,
             expect={**dims, **_NILPOTENT_THETA, "outer": True, "rank_deficiency": 0}),
        _cmd("model-zero-nil-n2-d6", "model", nil,
             expect={"dims.p": 381, "dims.q": 762, "dims.s": 384, "dims.h": 3,
                     "branch": "pure", **_CLS_PURE}),
    ]


def _equiv_cert(rng, w: Writer) -> list[Command]:
    from fockmodel.sampling import (
        commuting_nilpotent_tuple,
        conjugated_tuple,
        haar_unitary,
        q_commuting_nilpotent_tuple,
    )

    zero, q = _ideal(2, "zero"), 0.5j

    def conjugate_pair(name, d, mats, ideal):
        u = haar_unitary(mats[0].shape[0], rng)
        a = w.problem(f"{name}-a", d, mats, ideal)
        b = w.problem(f"{name}-b", d, conjugated_tuple(mats, u), ideal)
        return a, b, w.unitary(f"{name}-u", u)

    za, zb, zu = conjugate_pair("zero-n2-d6", 6, commuting_nilpotent_tuple(rng, 2, 0.5), zero)
    qa, qb, qu = conjugate_pair("qcomm-n2-d6", 6, q_commuting_nilpotent_tuple(rng, q, 0.5),
                                _ideal(2, "q_commutative", q))
    other = w.problem("zero-n2-d6-other", 6, commuting_nilpotent_tuple(rng, 2, 0.5), zero)
    certified = {"equivalent": True, "classification_a.pure": "yes", "classification_b.pure": "yes",
                 "classification_a.cnc": "yes", "classification_b.cnc": "yes"}
    return [
        _cmd("equiv-zero-n2-d6", "equiv", za, extra=("--problem-b", zb, "--unitary", zu),
             expect=certified),
        _cmd("equiv-qcomm-n2-d6", "equiv", qa, extra=("--problem-b", qb, "--unitary", qu),
             expect=certified),
        _cmd("screen-conjugate-qcomm-n2-d6", "equiv", qa, extra=("--problem-b", qb),
             expect={"equivalent": None}),
        _cmd("screen-distinct-zero-n2-d6", "equiv", za, 1, extra=("--problem-b", other),
             expect={"equivalent": False}),
    ]


def _wide_analyze(rng, w: Writer) -> list[Command]:
    from fockmodel.fock import word_count
    from fockmodel.sampling import random_row_contraction

    sizes = [(128, 2, 6, 0.95), (192, 2, 6, 0.95), (96, 3, 5, 0.99)]
    cmds = []
    for m, n, d, rho in sizes:
        name = f"zero-dense-m{m}-n{n}-d{d}"
        path = w.problem(name, d, random_row_contraction(rng, n, m, rho), _ideal(n, "zero"))
        dim = word_count(n, d)
        cmds.append(_cmd(f"analyze-{name}", "analyze", path,
                         expect={**_CLS_PURE, "defects.d_T": m, "defects.d_star": n * m,
                                 "subspace.dim_N": dim, "subspace.dim_M": 0,
                                 "subspace.graded": True, "subspace.vacuum_in_N": True,
                                 "kernel.constrained": True, "kernel.rows": dim * m}))
    return cmds


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "graded-theta": _graded_theta,
    "free-spectral": _free_spectral,
    "equiv-cert": _equiv_cert,
    "wide-analyze": _wide_analyze,
}


def build(name: str, seed: int, problem_dir: Path) -> list[Command]:
    """Write the workload's problem files for ``seed`` and return its command list."""
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    return WORKLOADS[name](rng, Writer(problem_dir))
