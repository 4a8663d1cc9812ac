"""Acceptance battery: one test per headline guarantee, one PASS/FAIL line each.

Corpus: 50 deterministic pure row contractions (n = 2, m in {1, 2, 3},
row-norm-squared <= 0.81) split across the three relation families at
truncation degree 6:

* 17 with no relations     (5 scalar pairs, 6 nilpotent pairs, 6 commuting
  nilpotent triples)
* 17 commutative           (same composition)
* 16 q-commuting, q = exp(i pi/3)   (5 single-nonzero scalars, 5 nilpotent
  pairs, 6 q-commuting triples)

Scalar entries use row-norm-squared in [0.03, 0.06] so their truncation tails
(~rho^7 <= 2.8e-9) sit below every flat threshold used here; the nilpotent
entries have exactly zero tail.  Construction is cached module-wide: the
characteristic-function/kernel build is timed inside criterion 1, the model
build inside criterion 3, and later criteria reuse the cached objects.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import adj, brute_force_constraint_dims, opnorm, theta_of
from fockmodel import (
    PolyIdealSpec,
    TriState,
    TruncatedFockSpace,
    build_model,
    coincidence_from_unitary,
    coincidence_necessary_mismatch,
    constrained_characteristic_function,
    constrained_creation_tuple,
    constrained_poisson_kernel,
    delta_and_classify,
    evaluate,
    flip_unitary,
    fourier_sum,
    ideal_subspace,
    left_creation_tuple,
    right_creation_tuple,
    verify_coincidence_implies_equivalence,
)
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    conjugated_tuple,
    haar_unitary,
    nilpotent_pair_tuple,
    q_commuting_nilpotent_tuple,
    random_scalar_tuple,
)

Q_ACC = np.exp(1j * np.pi / 3)
DEGREE = 6
N_GEN = 2

_STATE: dict = {}


def _fresh_rng(i):
    return np.random.default_rng(0xACC0 + i)


def _build_corpus():
    entries = []

    def scalars(family, count, **kw):
        for _ in range(count):
            rng = _fresh_rng(len(entries))
            entries.append((family, random_scalar_tuple(rng, 2, float(rng.uniform(0.03, 0.06)), **kw)))

    def pairs(family, count):
        for _ in range(count):
            rng = _fresh_rng(len(entries))
            entries.append((family, nilpotent_pair_tuple(rng, 2, float(rng.uniform(0.3, 0.81)))))

    def triples(family, count, q=None):
        for _ in range(count):
            rng = _fresh_rng(len(entries))
            rho = float(rng.uniform(0.3, 0.81))
            mats = (
                commuting_nilpotent_tuple(rng, 2, rho)
                if q is None
                else q_commuting_nilpotent_tuple(rng, q, rho)
            )
            entries.append((family, mats))

    scalars("zero", 5)
    pairs("zero", 6)
    triples("zero", 6)
    scalars("commutative", 5)
    pairs("commutative", 6)
    triples("commutative", 6)
    scalars("q_commutative", 5, single_nonzero=True)
    pairs("q_commutative", 5)
    triples("q_commutative", 6, q=Q_ACC)
    assert len(entries) == 50
    return entries


def corpus():
    if "entries" not in _STATE:
        space = TruncatedFockSpace(N_GEN, DEGREE)
        _STATE["entries"] = _build_corpus()
        _STATE["subs"] = {
            "zero": ideal_subspace(PolyIdealSpec(n=N_GEN, kind="zero"), space),
            "commutative": ideal_subspace(PolyIdealSpec(n=N_GEN, kind="commutative"), space),
            "q_commutative": ideal_subspace(
                PolyIdealSpec(n=N_GEN, kind="q_commutative", q=Q_ACC), space
            ),
        }
    return _STATE["entries"], _STATE["subs"]


def pipeline(i):
    """Characteristic function + kernel for corpus entry i (cached)."""
    cache = _STATE.setdefault("pipe", {})
    if i not in cache:
        entries, subs = corpus()
        family, mats = entries[i]
        sub = subs[family]
        kernel = constrained_poisson_kernel(mats, sub)
        theta = constrained_characteristic_function(kernel)
        cache[i] = (family, mats, sub, theta, kernel)
    return cache[i]


def model_stage(i):
    """Model space, model operators, and the canonical unitary (cached)."""
    cache = _STATE.setdefault("models", {})
    if i not in cache:
        family, mats, sub, theta, kernel = pipeline(i)
        model = build_model(theta)
        cache[i] = (kernel.classification, model, model.operators, model.gamma)
    return cache[i]


def _report(number, name, ok, details):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {details}")


# ---------------------------------------------------------------------------


def test_criterion_1_factorization_identity():
    corpus()
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        theta = pipeline(i)[3]
        worst = max(worst, theta.spectrum.gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    _report(
        1,
        "factorization identity",
        ok,
        f"worst residual {worst:.3e} (< 1e-9) over 50 tuples in {elapsed:.1f}s (< 30s)",
    )
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_2_poisson_identities():
    for i in range(50):
        pipeline(i)  # constructions belong to criterion 1's budget
    t0 = time.perf_counter()
    worst_gram, worst_inter = 0.0, 0.0
    for i in range(50):
        _, mats, _, theta, kernel = pipeline(i)
        slack = kernel.gram_residual() - (kernel.tail_bound + 1e-10)
        worst_gram = max(worst_gram, slack)
        # eq-ker is the leak bound on the intertwining residual, which
        # tests/test_poisson.py holds against the dense residual
        worst_inter = max(worst_inter, kernel.intertwining_check[1])
    elapsed = time.perf_counter() - t0
    ok = worst_gram <= 0.0 and worst_inter < 1e-10 and elapsed < 10.0
    _report(
        2,
        "kernel gram + intertwining",
        ok,
        f"gram slack {worst_gram:.3e} (<= 0), intertwining {worst_inter:.3e} (< 1e-10), "
        f"{elapsed:.1f}s (< 10s)",
    )
    assert worst_gram <= 0.0
    assert worst_inter < 1e-10
    assert elapsed < 10.0


def test_criterion_3_model_reconstruction():
    corpus()
    t0 = time.perf_counter()
    worst_unitary, worst_inter, worst_agree = 0.0, 0.0, 0.0
    for i in range(50):
        cls, model, ops, gamma = model_stage(i)
        tol = 10.0 * model.tail_bound + 1e-7
        g = gamma.gamma
        left = opnorm(adj(g) @ g - np.eye(g.shape[1]))
        right = opnorm(g @ adj(g) - np.eye(g.shape[0]))
        inter = max(gamma.intertwining.values())
        worst_unitary = max(worst_unitary, left - tol, right - tol)
        worst_inter = max(worst_inter, inter - tol)
        if ops.branch_agreement is not None:
            worst_agree = max(worst_agree, max(ops.branch_agreement))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_unitary <= 0.0
        and worst_inter <= 0.0
        and worst_agree < 1e-7
        and elapsed < 60.0
    )
    _report(
        3,
        "model reconstruction",
        ok,
        f"unitarity slack {worst_unitary:.3e}, intertwining slack {worst_inter:.3e} "
        f"(both <= 0 vs 10*tail + 1e-7), branch agreement {worst_agree:.3e} (< 1e-7), "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert worst_unitary <= 0.0
    assert worst_inter <= 0.0
    assert worst_agree < 1e-7
    assert elapsed < 60.0


def test_criterion_4_shift_characterization():
    entries, subs = corpus()
    shift_norms = {}
    # all three families at a reduced degree and again at the corpus degree
    # (the vanishing is exact at every degree)
    space4 = TruncatedFockSpace(N_GEN, 4)
    for kind, q in (("zero", None), ("commutative", None), ("q_commutative", Q_ACC)):
        spec = (
            PolyIdealSpec(n=N_GEN, kind=kind)
            if q is None
            else PolyIdealSpec(n=N_GEN, kind=kind, q=q)
        )
        sub4 = ideal_subspace(spec, space4)
        b = constrained_creation_tuple(sub4, "left")
        th = theta_of(b, sub4)
        shift_norms[f"{kind}@4"] = opnorm(th.matrix)
    for kind in ("zero", "commutative", "q_commutative"):
        b = constrained_creation_tuple(subs[kind], "left")
        th = theta_of(b, subs[kind])
        shift_norms[f"{kind}@{DEGREE}"] = opnorm(th.matrix)
    worst_shift = max(shift_norms.values())
    # separation: every (non-shift) corpus tuple is far from vanishing
    min_sep = min(opnorm(pipeline(i)[3].matrix) for i in range(50))
    ok = worst_shift < 1e-9 and min_sep > 0.1
    _report(
        4,
        "vanishing characterizes shifts",
        ok,
        f"worst shift norm {worst_shift:.3e} (< 1e-9) over {sorted(shift_norms)}, "
        f"min corpus norm {min_sep:.3f} (> 0.1)",
    )
    assert worst_shift < 1e-9
    assert min_sep > 0.1


def test_criterion_5_complete_unitary_invariant():
    entries, subs = corpus()
    worst_wit, worst_rec, failures = 0.0, 0.0, []
    for i in range(0, 50, 2):
        family, mats, sub, theta, kernel = pipeline(i)
        m = mats[0].shape[0]
        u = haar_unitary(m, np.random.default_rng(0x5EED + i))
        mats_p = conjugated_tuple(mats, u)
        witness = coincidence_from_unitary(theta, theta_of(mats_p, sub), u)
        model = model_stage(i)[1]  # the model of ``theta``, built with its classification
        eq = verify_coincidence_implies_equivalence(witness, model, build_model(witness.theta_p))
        worst_wit = max(worst_wit, witness.residual)
        worst_rec = max(worst_rec, eq.recovered_intertwining)
        if not eq.equivalent:
            failures.append(i)
    # negative controls: corpus pairs whose Fourier-block singular values
    # cannot match (different sizes or different row norms)
    controls = [(0, 1), (0, 5), (17, 18), (22, 28), (40, 45)]
    flagged = []
    for a, b in controls:
        mismatch = coincidence_necessary_mismatch(pipeline(a)[3], pipeline(b)[3])
        flagged.append(mismatch > 1e-6)
    ok = worst_wit < 1e-9 and worst_rec < 1e-6 and not failures and all(flagged)
    _report(
        5,
        "complete unitary invariant",
        ok,
        f"25 conjugated pairs: coincidence {worst_wit:.3e} (< 1e-9), recovered "
        f"intertwiner {worst_rec:.3e} (< 1e-6), equivalence failures {failures}; "
        f"negative controls flagged {sum(flagged)}/{len(flagged)}",
    )
    assert worst_wit < 1e-9
    assert worst_rec < 1e-6
    assert not failures
    assert all(flagged)


def test_criterion_6_inner_iff_pure():
    corpus()
    exceptions = []
    for i in range(50):
        _, _, _, theta, kernel = pipeline(i)
        residual = delta_and_classify(theta).partial_isometry_residual
        is_pure = kernel.classification.pure is TriState.YES
        if (residual < 1e-8) != is_pure:
            exceptions.append((i, residual, is_pure))
    all_pure = all(pipeline(i)[4].classification.pure is TriState.YES for i in range(50))
    ok = not exceptions and all_pure
    _report(
        6,
        "inner iff pure",
        ok,
        f"projection residual < 1e-8 matched purity on 50/50 entries "
        f"(exceptions: {exceptions or 'none'})",
    )
    assert all_pure  # corpus sanity: every entry is certified pure
    assert not exceptions


def test_criterion_7_outer_dual_route():
    corpus()
    disagreements, worst_gap = [], 0.0
    for i in range(50):
        _, mats, _, theta, kernel = pipeline(i)
        dc = delta_and_classify(theta)
        gram = adj(kernel.matrix) @ kernel.matrix
        eigs = np.linalg.eigvalsh(np.eye(gram.shape[0]) - gram)
        kernel_count = int(np.count_nonzero(eigs <= 1e-8))
        if dc.rank_deficiency != kernel_count or dc.outer != (kernel_count == 0):
            disagreements.append(i)
        # quantitative agreement: the m smallest squared singular values of
        # the function equal the spectrum of I - K*K within the tail margin
        m = mats[0].shape[0]
        smallest = np.sort(dc.sigma_squared)[:m]
        gap = float(np.max(np.abs(smallest - eigs[:m])))
        worst_gap = max(worst_gap, gap - (10.0 * kernel.tail_bound + 1e-10))
    ok = not disagreements and worst_gap <= 0.0
    _report(
        7,
        "outer criterion, two routes",
        ok,
        f"rank/kernel verdicts agree on 50/50 (disagreements: {disagreements or 'none'}), "
        f"eigenvalue gap slack {worst_gap:.3e} (<= 0 vs 10*tail + 1e-10)",
    )
    assert not disagreements
    assert worst_gap <= 0.0


def test_criterion_8_structure_oracles():
    worst_dim_mismatch = 0
    for n, d_max in ((2, 6), (3, 4)):
        for d in range(d_max + 1):
            space = TruncatedFockSpace(n, d)
            spec = PolyIdealSpec(n=n, kind="commutative")
            sub = ideal_subspace(spec, space)
            formula = sum(math.comb(n + k - 1, k) for k in range(d + 1))
            _, brute = brute_force_constraint_dims(spec, space)
            if not (sub.dim_N == formula == brute):
                worst_dim_mismatch += 1
    worst_rel = 0.0
    for n, d in ((2, 6), (3, 4)):
        space = TruncatedFockSpace(n, d)
        s = left_creation_tuple(space)
        r = right_creation_tuple(space)
        u = flip_unitary(space)
        eye = np.eye(space.dim)
        p_top = np.zeros((space.dim, space.dim))
        top = space.degree_slice(d)
        p_top[top, top] = np.eye(top.stop - top.start)
        p_vac = np.zeros((space.dim, space.dim))
        p_vac[0, 0] = 1.0
        for i in range(n):
            for j in range(n):
                want = eye - p_top if i == j else 0.0 * eye
                worst_rel = max(worst_rel, opnorm(adj(s[i]) @ s[j] - want))
            worst_rel = max(worst_rel, opnorm(u @ s[i] @ u - r[i]))
        worst_rel = max(worst_rel, opnorm(sum(x @ adj(x) for x in s) - (eye - p_vac)))
    ok = worst_dim_mismatch == 0 and worst_rel < 1e-12
    _report(
        8,
        "structure oracles",
        ok,
        f"commutative dims match formula + brute force on n=2 d<=6 and n=3 d<=4 "
        f"({worst_dim_mismatch} mismatches); operator relations {worst_rel:.3e} (< 1e-12)",
    )
    assert worst_dim_mismatch == 0
    assert worst_rel < 1e-12


def test_criterion_9_commutative_symbol():
    entries, subs = corpus()
    comm_idx = [i for i, (family, _) in enumerate(entries) if family == "commutative"]
    rng = np.random.default_rng(0x90)
    cf_cache: dict = {}
    worst_excess, checked = 0.0, 0
    for k in range(20):
        i = comm_idx[k % len(comm_idx)]
        mats = entries[i][1]
        if i not in cf_cache:
            cf_cache[i] = theta_of(mats, subs["zero"])
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z *= rng.uniform(0.1, 0.7) / np.linalg.norm(z)
        r = float(np.linalg.norm(z))
        bound = 2.0 * r ** (DEGREE + 1) / (1.0 - r)
        point = [np.array([[zi]]) for zi in z]
        value = evaluate(mats, point, subs["commutative"].spec)
        diff = opnorm(fourier_sum(cf_cache[i], point) - value)
        worst_excess = max(worst_excess, diff - bound)
        checked += 1
    worst_mobius = 0.0
    for a in (0.5, 0.37 + 0.21j):
        ts = [np.array([[a]])]
        for z in (0.35, -0.62, 0.55j, 0.3 - 0.45j, 0.69):
            got = evaluate(ts, [np.array([[z]])], PolyIdealSpec(n=1))[0, 0]
            want = (z - a) / (1 - np.conj(a) * z)
            worst_mobius = max(worst_mobius, abs(got - want))
    # Matrix points: at a nilpotent 3 x 3 point of the reversed variety the
    # Fourier sum of every corpus function is exact.
    points = {
        "zero": [np.triu(rng.normal(size=(3, 3)), 1) for _ in range(2)],
        "commutative": commuting_nilpotent_tuple(rng, 2, 2.0),
        "q_commutative": q_commuting_nilpotent_tuple(rng, 1 / Q_ACC, 2.0),
    }
    worst_matrix = 0.0
    for i in range(len(entries)):
        family, mats, sub, theta, _ = pipeline(i)
        value = evaluate(mats, points[family], sub.spec)
        worst_matrix = max(worst_matrix, opnorm(fourier_sum(theta, points[family]) - value))
    ok = worst_excess <= 0.0 and worst_mobius < 1e-12 and worst_matrix < 1e-13 and checked == 20
    _report(
        9,
        "commutative symbol",
        ok,
        f"20 points: partial-sum excess over geometric bound {worst_excess:.3e} (<= 0); "
        f"single-variable symbol error {worst_mobius:.3e} (< 1e-12); "
        f"50 functions at nilpotent 3x3 points of the reversed variety: Fourier sum off "
        f"by {worst_matrix:.3e} (< 1e-13)",
    )
    assert checked == 20
    assert worst_excess <= 0.0
    assert worst_mobius < 1e-12
    assert worst_matrix < 1e-13
