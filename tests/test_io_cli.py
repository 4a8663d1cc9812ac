"""Problem/report serialization and the command-line entry points."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ORACLE_FAMILIES,
    opnorm,
    oracle_family,
    oracle_tuple,
    record_decompositions,
    theta_of,
)
from fockmodel import (
    ConstrainedSubspace,
    NCPoly,
    PolyIdealSpec,
    Problem,
    ProblemFormatError,
    TriState,
    TruncatedFockSpace,
    build_model,
    classify,
    coincidence_from_unitary,
    constrained_characteristic_function,
    constrained_poisson_kernel,
    ideal_subspace,
    load_problem,
    load_unitary,
    save_problem,
    save_report,
    validate,
    verify_coincidence_implies_equivalence,
)
from fockmodel.charfn import coincidence_residual
from fockmodel.cli import build_parser, main
from fockmodel.contractions import require_relations
from fockmodel.linalg import hermitian_norm
from fockmodel.problem_io import _matrix, _matrix_entries, encode_value
from fockmodel.sampling import (
    commuting_nilpotent_tuple,
    conjugated_tuple,
    haar_unitary,
    random_row_contraction,
)

PAIR = [np.array([[0.5]], dtype=complex), np.array([[0.5]], dtype=complex)]


def write_problem(path, *, n, m, degree, mats, ideal):
    data = {
        "n": n,
        "m": m,
        "degree": degree,
        "tuple": [encode_value(np.asarray(t, dtype=complex)) for t in mats],
        "ideal": ideal,
    }
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# round-trips


@pytest.mark.parametrize(
    "ideal",
    [
        PolyIdealSpec(n=2, kind="zero"),
        PolyIdealSpec(n=2, kind="commutative"),
        PolyIdealSpec(n=2, kind="q_commutative", q=0.5 - 0.25j),
        PolyIdealSpec(n=2, kind="q_commutative", q={(1, 2): 1j}),
        PolyIdealSpec(n=2, kind="custom", polys=[NCPoly({(1, 2): 1.0, (2, 1): -0.5j})]),
    ],
    ids=["zero", "commutative", "q-scalar", "q-dict", "custom"],
)
def test_problem_round_trip(tmp_path, ideal):
    rng = np.random.default_rng(1)
    mats = [(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 4 for _ in range(2)]
    problem = Problem(n=2, m=2, degree=5, mats=mats, ideal=ideal)
    path = tmp_path / "p.json"
    save_problem(path, problem)
    back = load_problem(path)
    assert (back.n, back.m, back.degree) == (2, 2, 5)
    assert all(opnorm(a - b) < 1e-15 for a, b in zip(back.mats, mats))
    assert back.ideal.kind == ideal.kind
    assert back.ideal.generators() == ideal.generators()


def test_load_unitary_layouts(tmp_path):
    u = haar_unitary(2, np.random.default_rng(2))
    raw = tmp_path / "u_raw.json"
    raw.write_text(json.dumps(encode_value(u)))
    assert opnorm(load_unitary(raw, 2) - u) < 1e-15
    wrapped = tmp_path / "u_wrapped.json"
    wrapped.write_text(json.dumps({"matrix": encode_value(u)}))
    assert opnorm(load_unitary(wrapped, 2) - u) < 1e-15
    with pytest.raises(ProblemFormatError):
        load_unitary(raw, 3)


# ---------------------------------------------------------------------------
# malformed inputs name the offending field


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("n"), "n"),
        (lambda d: d.pop("ideal"), "ideal"),
        (lambda d: d.update(n="two"), "n"),
        (lambda d: d.update(degree=-1), "degree"),
        (lambda d: d["tuple"].pop(), "tuple"),
        (lambda d: d["tuple"][0].pop(), "tuple[0]"),
        (lambda d: d["tuple"][0][0].__setitem__(0, "x"), "tuple[0][0]"),
        (lambda d: d["ideal"].update(kind="weird"), "ideal.kind"),
        (lambda d: d["ideal"].update(kind="q_commutative"), "ideal.q"),
        (lambda d: d["ideal"].update(kind="custom"), "ideal.polys"),
        # booleans are not numbers, and every number must be finite
        pytest.param(lambda d: d.update(n=True), "n", id="bool-n"),
        pytest.param(lambda d: d.update(m=True), "m", id="bool-m"),
        pytest.param(lambda d: d.update(degree=True), "degree", id="bool-degree"),
        pytest.param(
            lambda d: d["tuple"][0][0].__setitem__(0, True), "tuple[0][0]", id="bool-tuple-entry"
        ),
        pytest.param(
            lambda d: d["tuple"][0][0].__setitem__(0, float("nan")),
            "tuple[0][0]",
            id="nan-tuple-entry",
        ),
        pytest.param(
            lambda d: d["tuple"][1][0].__setitem__(0, [0.5, float("inf")]),
            "tuple[1][0]",
            id="inf-complex-tuple-entry",
        ),
        pytest.param(
            lambda d: d["tuple"][0][0].__setitem__(0, 10**400),
            "tuple[0][0]",
            id="overflow-tuple-entry",
        ),
        pytest.param(
            lambda d: d["ideal"].update(kind="q_commutative", q=[float("nan"), 0]),
            "ideal.q",
            id="nan-q",
        ),
        pytest.param(
            lambda d: d["ideal"].update(kind="q_commutative", q=True), "ideal.q", id="bool-q"
        ),
        # a zero deformation parameter is refused by the relation family, named by field
        pytest.param(
            lambda d: d["ideal"].update(kind="q_commutative", q=0), "ideal.q", id="zero-q"
        ),
        pytest.param(
            lambda d: d["ideal"].update(kind="q_commutative", q={"1,2": [0, 0]}),
            "ideal.q",
            id="zero-q-pair",
        ),
        pytest.param(
            lambda d: d["ideal"].update(kind="custom", polys=[{"1.2": float("inf"), "2.1": -1}]),
            "ideal.polys[0]",
            id="inf-poly-coefficient",
        ),
        pytest.param(
            lambda d: d["ideal"].update(kind="custom", polys=[{"1.2": 1, "2.1": False}]),
            "ideal.polys[0]",
            id="bool-poly-coefficient",
        ),
    ],
)
def test_malformed_problems_are_named(tmp_path, mutate, needle):
    data = {
        "n": 2,
        "m": 1,
        "degree": 4,
        "tuple": [[[0.5]], [[0.5]]],
        "ideal": {"kind": "commutative"},
    }
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ProblemFormatError, match=needle.replace("[", r"\[").replace("]", r"\]")):
        load_problem(path)


@pytest.mark.parametrize("encoding", ["pairs", "bare", "mixed"])
def test_vectorized_matrix_is_bitwise_the_entry_walk(encoding):
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat[0, 0], mat[1, 1], mat[2, 2] = complex(-0.0, -0.0), complex(3, 0), complex(0.0, -0.0)
    if encoding == "pairs":
        raw = [[[z.real, z.imag] for z in row] for row in mat]
        raw[3][3] = [2**60 + 1, -7]  # integers, one beyond the exact float range
    elif encoding == "bare":
        raw = [[z.real for z in row] for row in mat]
        raw[3][3] = 10**300
    else:
        raw = [[[z.real, z.imag] if (r + c) % 2 else z.real for c, z in enumerate(row)]
               for r, row in enumerate(mat)]
    got, want = _matrix(json.loads(json.dumps(raw)), 5, "m"), _matrix_entries(raw, 5, "m")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_q_dict_validation(tmp_path):
    base = {"n": 2, "m": 1, "degree": 3, "tuple": [[[0.1]], [[0.1]]]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps({**base, "ideal": {"kind": "q_commutative", "q": {"junk": 1.0}}}))
    with pytest.raises(ProblemFormatError, match="i,j"):
        load_problem(path)
    path.write_text(json.dumps({**base, "ideal": {"kind": "q_commutative", "q": {"2,1": 1.0}}}))
    with pytest.raises(ProblemFormatError):
        load_problem(path)


@pytest.mark.parametrize(
    "n, q, needle",
    [(3, {"1,2": 0.5}, "missing pairs [(1, 3), (2, 3)]"),
     (2, {"1,2": 0.5, "2,3": 1.0}, "pair (2, 3) lies outside 1 <= i < j <= 2")],
    ids=["missing-pair", "out-of-range-pair"],
)
def test_a_bad_q_mapping_exits_2_naming_the_field(tmp_path, capsys, n, q, needle):
    mats = [[[0.1]]] * n
    path = tmp_path / "q.json"
    path.write_text(json.dumps(
        {"n": n, "m": 1, "degree": 3, "tuple": mats, "ideal": {"kind": "q_commutative", "q": q}}
    ))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", str(path), "--out", str(out)]) == 2
    assert f"ideal.q: {needle}" in capsys.readouterr().err
    assert not out.exists()


def test_not_json_and_not_object(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="JSON"):
        load_problem(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ProblemFormatError, match="object"):
        load_problem(path)


# ---------------------------------------------------------------------------
# encoding


def test_encode_value_coverage():
    assert encode_value(1 + 2j) == [1.0, 2.0]
    assert encode_value(np.complex128(3j)) == [0.0, 3.0]
    assert encode_value(np.float64(0.5)) == 0.5
    assert encode_value(np.int64(4)) == 4
    assert encode_value(np.bool_(True)) is True
    assert encode_value(TriState.YES) == "yes"
    arr = np.array([[1 + 1j]])
    assert encode_value(arr) == [[[1.0, 1.0]]]
    assert encode_value(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert encode_value({"a": (1, 2)}) == {"a": [1, 2]}
    with pytest.raises(TypeError):
        encode_value(object())
    # non-finite floats become strings, which strict JSON allows
    assert encode_value(float("inf")) == "inf"
    assert encode_value(np.float64(-np.inf)) == "-inf"
    assert encode_value(float("nan")) == "nan"
    assert encode_value(complex(np.inf, 1.0)) == ["inf", 1.0]
    assert encode_value(np.array([1.0, np.nan])) == [1.0, "nan"]
    assert encode_value(np.array([[complex(0.5, -np.inf)]])) == [[[0.5, "-inf"]]]


def test_save_report_is_deterministic(tmp_path):
    report = {"zeta": 1.0, "alpha": [1 + 1j, TriState.NO], "nested": {"b": 2, "a": 1}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(p1, report)
    save_report(p2, dict(reversed(list(report.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert list(loaded) == sorted(loaded)


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    """Run a command; every report it writes must carry its exit code in its checks.

    Exit 0 means no verdict and every check passed.  The ``equivalent`` of
    ``equiv --unitary`` is True exactly when every check passed.
    """
    code = main(argv)
    if code != 2:
        rep = read(Path(argv[argv.index("--out") + 1]))
        passed = all(c["pass"] for c in rep["checks"])
        assert code == (0 if "verdict" not in rep and passed else 1), (argv[0], code)
        if "--unitary" in argv and "equivalent" in rep:
            assert rep["equivalent"] is passed
    return code


def read(path):
    return json.loads(path.read_text())


def checks_by_name(report):
    return {c["name"]: c for c in report["checks"]}


def test_cli_analyze_commutative_pair(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=6, mats=PAIR, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["classification"]["pure"] == "yes"
    assert rep["classification"]["cnc"] == "yes"
    assert rep["subspace"]["dim_N"] == 28
    assert rep["kernel"]["constrained"] is True
    assert set(rep["residuals"]) == {"K*K", "eq-ker"}
    cb = checks_by_name(rep)
    assert all(c["pass"] for c in cb.values())
    for c in cb.values():  # every check cites a tolerance
        assert c["tolerance"] > 0
        assert c["residual"] <= c["tolerance"]


def test_cli_analyze_norm_preserving_is_a_valid_verdict(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=1, m=1, degree=6, mats=[[[1.0]]], ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["classification"]["pure"] == "no"
    assert rep["classification"]["cnc"] == "no"


def test_cli_analyze_rejects_expansive_tuples(tmp_path):
    s = float(np.sqrt(0.6))
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=4, mats=[[[s]], [[s]]], ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 1
    rep = read(out)
    assert rep["verdict"] == "not-a-row-contraction"
    cb = checks_by_name(rep)
    assert not cb["row-contraction"]["pass"]


@pytest.mark.parametrize("entry", [1e300, 1e200])
def test_cli_analyze_fails_huge_entries_quietly(tmp_path, capsys, entry):
    prob = tmp_path / "p.json"
    data = {"n": 1, "m": 2, "degree": 3, "tuple": [[[entry, 0], [0, entry]]],
            "ideal": {"kind": "zero"}}
    prob.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", str(prob), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = read(out)
    assert rep["verdict"] == "not-a-row-contraction"
    assert rep["validation"]["row_norm"] == pytest.approx(entry, rel=1e-12)
    assert not checks_by_name(rep)["row-contraction"]["pass"]


def test_cli_relations_longer_than_the_degree_leave_the_whole_space(tmp_path):
    # a non-homogeneous family none of whose multiples fits below degree 2
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "n": 2, "m": 1, "degree": 2, "tuple": [[[0.0]], [[0.0]]],
        "ideal": {"kind": "custom", "polys": [{"1.2.1": [1, 0], "2": [1, 0]}]},
    }))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", str(prob), "--out", str(out)]) == 0
    rep = read(out)
    assert (rep["subspace"]["dim_M"], rep["subspace"]["dim_N"]) == (0, 7)
    assert run_cli(["charfn", "--problem", str(prob), "--out", str(out)]) == 0
    assert read(out)["dims"]["dim_N"] == 7


@pytest.mark.parametrize("command", ["analyze", "charfn", "model", "equiv"])
def test_zero_family_builds_no_dense_shift_and_no_identity_product(
    tmp_path, monkeypatch, command
):
    # on the zero family N = I: the creation operators act as index maps
    # (the kernel's grid views, the model's B_i* by a row gather; eq-ker is
    # the leak bound, 0.0 there) and no product by N is formed, so none of
    # these may run
    def forbidden(*args, **kwargs):
        raise AssertionError("dense shift or product by N = I on the zero family")

    monkeypatch.setattr("fockmodel.fock.left_creation", forbidden)
    monkeypatch.setattr("fockmodel.fock.right_creation", forbidden)
    monkeypatch.setattr("fockmodel.fock._partial_permutation", forbidden)
    monkeypatch.setattr("fockmodel.ideals.constrained_creation", forbidden)
    monkeypatch.setattr(np, "tensordot", forbidden)
    for module in ("fockmodel.charfn", "fockmodel.poisson", "fockmodel.model"):
        for helper in ("kron_left", "kron_right"):
            monkeypatch.setattr(f"{module}.{helper}", forbidden, raising=False)
    for module in ("fockmodel.charfn", "fockmodel.poisson"):  # model's maps the defect spaces
        monkeypatch.setattr(f"{module}.kron_inner", forbidden, raising=False)
    rng = np.random.default_rng(8)
    mats = random_row_contraction(rng, 2, 3, 0.7)
    u = haar_unitary(3, rng)
    pa, pb = (write_problem(tmp_path / f"{name}.json", n=2, m=3, degree=4, mats=tup,
                            ideal={"kind": "zero"})
              for name, tup in (("a", mats), ("b", conjugated_tuple(mats, u))))
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    argv = [command, "--problem", pa]
    if command == "equiv":
        argv += ["--problem-b", pb, "--unitary", str(uf)]
    out = tmp_path / "r.json"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert all(c["pass"] for c in read(out)["checks"])


def test_cli_charfn(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=5, mats=PAIR, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["charfn", "--problem", prob, "--out", str(out)]) == 0
    rep = read(out)
    assert set(rep["residuals"]) == {"J-fa-F", "K*K"}
    assert rep["inner"] is True
    assert set(rep["fourier_norms_by_degree"]) == {str(k) for k in range(6)}
    sub = ideal_subspace(PolyIdealSpec(n=2, kind="commutative"), TruncatedFockSpace(2, 5))
    th = theta_of(PAIR, sub)
    for k, got in rep["fourier_norms_by_degree"].items():
        blocks = [b for w, b in zip(th.space.words, th.fourier_blocks) if len(w) == int(k)]
        assert got == max(opnorm(b) for b in blocks)
    cb = checks_by_name(rep)
    assert cb["J-fa-F"]["pass"] and cb["K*K"]["pass"]


@pytest.mark.xfail(
    strict=True,
    reason="J-fa-F is O(1) (1.09 at (2, 5)) on a family that is not graded: N is not "
    "co-invariant at the top degree, where the truncated R_i cuts a relation short",
)
def test_charfn_on_a_non_graded_family_gives_no_negative_verdict(tmp_path):
    # 0.5 + x1 + 2i x2 x1 on (-0.5 I, 0), certified pure and c.n.c.: a
    # truncation effect must not read as a failed identity (exit 1)
    prob, out = tmp_path / "p.json", tmp_path / "r.json"
    family = oracle_family("custom-constant-term", 2, 5)
    mats = oracle_tuple("custom-constant-term", 2, None)
    save_problem(prob, Problem(n=2, m=2, degree=5, mats=mats, ideal=family))
    code = run_cli(["charfn", "--problem", str(prob), "--out", str(out)])
    rep = read(out)
    cb = checks_by_name(rep)
    assert (rep["classification"]["pure"], rep["classification"]["cnc"]) == ("yes", "yes")
    assert cb["relations"]["pass"] and cb["K*K"]["pass"]
    assert code != 1


def test_cli_charfn_relation_violation(tmp_path):
    rng = np.random.default_rng(5)
    mats = [m / 4 for m in (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))]
    prob = write_problem(
        tmp_path / "p.json", n=2, m=2, degree=4, mats=mats, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["charfn", "--problem", prob, "--out", str(out)]) == 1
    rep = read(out)
    assert rep["verdict"] == "relations-violated"
    assert not checks_by_name(rep)["relations"]["pass"]


def test_cli_model(tmp_path):
    rng = np.random.default_rng(3)
    mats = commuting_nilpotent_tuple(rng, 2, 0.6)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=5, mats=mats, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["model", "--problem", prob, "--out", str(out)]) == 0
    rep = read(out)
    assert set(rep["residuals"]) == {"def", "Ga"}
    assert rep["dims"]["h"] == 3
    assert all(c["pass"] for c in rep["checks"])


def test_cli_model_refuses_without_a_model(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=1, m=1, degree=5, mats=[[[1.0]]], ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["model", "--problem", prob, "--out", str(out)]) == 1
    assert read(out)["verdict"] == "not-completely-noncoisometric"


@pytest.fixture()
def equiv_files(tmp_path):
    rng = np.random.default_rng(17)
    mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    u = haar_unitary(3, rng)
    mats_p = conjugated_tuple(mats, u)
    pa = write_problem(
        tmp_path / "a.json", n=2, m=3, degree=5, mats=mats, ideal={"kind": "commutative"}
    )
    pb = write_problem(
        tmp_path / "b.json", n=2, m=3, degree=5, mats=mats_p, ideal={"kind": "commutative"}
    )
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    return tmp_path, pa, pb, str(uf)


def test_cli_equiv_with_witness(equiv_files):
    tmp_path, pa, pb, uf = equiv_files
    out = tmp_path / "r.json"
    code = run_cli(
        ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", uf, "--out", str(out)]
    )
    assert code == 0
    rep = read(out)
    assert rep["equivalent"] is True
    assert set(rep["residuals"]) == {"com", "def", "Ga"}
    cb = checks_by_name(rep)
    for name in ("conjugation", "tau-unitary", "com", "subspace-angle", "model-intertwine"):
        assert cb[name]["pass"], name


def test_equivalent_is_the_conjunction_of_the_equiv_checks(equiv_files, monkeypatch):
    # com at 5e-9 fails its 1e-9 check, so the pair is not certified equivalent
    monkeypatch.setattr("fockmodel.model.coincidence_residual", lambda *args: 5e-9)
    tmp_path, pa, pb, uf = equiv_files
    out = tmp_path / "r.json"
    argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", uf, "--out", str(out)]
    assert run_cli(argv) == 1
    rep = read(out)
    assert rep["equivalent"] is False
    assert [name for name, c in checks_by_name(rep).items() if not c["pass"]] == ["com"]


def _stages(problem, sub=None):
    """Classification, kernel, Theta and model of a problem, built by the library's stages."""
    sub = sub or ideal_subspace(problem.ideal, TruncatedFockSpace(problem.n, problem.degree))
    kernel = constrained_poisson_kernel(problem.mats, sub)
    theta = constrained_characteristic_function(kernel)
    return kernel.classification, kernel, theta, build_model(theta)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_reports_carry_the_checks_of_the_stage_objects(tmp_path, family):
    # after the gate, every check of a report is the (name, residual,
    # tolerance) of a library object, in its order: the CLI adds none of its own
    n, d = 2, 5
    rng = np.random.default_rng([n, d, 29])
    mats = oracle_tuple(family, n, rng)
    m = mats[0].shape[0]
    u = haar_unitary(m, rng)
    pa, pb, uf = (tmp_path / name for name in ("a.json", "b.json", "u.json"))
    for path, tup in ((pa, mats), (pb, conjugated_tuple(mats, u))):
        save_problem(path, Problem(n=n, m=m, degree=d, mats=tup, ideal=oracle_family(family, n, d)))
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    cls, kernel, theta, model = _stages(load_problem(pa))
    _, _, theta_b, model_b = _stages(load_problem(pb), theta.sub)
    witness = coincidence_from_unitary(theta, theta_b, load_unitary(uf, m))
    library = {
        "analyze": kernel.checks,
        "charfn": theta.checks,
        "model": model.checks,
        "equiv": verify_coincidence_implies_equivalence(witness, model, model_b).checks,
    }
    out = tmp_path / "r.json"
    for command, checks in library.items():
        argv = [command, "--problem", str(pa), "--out", str(out)]
        gate = ["row-contraction", "relations"]
        if command == "equiv":
            argv += ["--problem-b", str(pb), "--unitary", str(uf)]
            gate = [f"{name}-{which}" for which in "ab" for name in gate]
        run_cli(argv)
        reported = [[c["name"], c["residual"], c["tolerance"]] for c in read(out)["checks"]]
        assert [name for name, _, _ in reported[: len(gate)]] == gate
        # strict JSON writes an infinite residual as "inf"
        expected = [[name, float(r), float(t)] for name, r, t in checks]
        assert reported[len(gate) :] == encode_value(expected)
    # J-fa-F is exact on a certified-pure tuple under a graded (or empty)
    # family; the family with a constant term is not graded and adds ten tails
    assert cls.pure is TriState.YES
    jfa = theta.checks[0]
    graded = family != "custom-constant-term"
    assert theta.sub.graded is graded or theta.sub.dim_M == 0
    assert jfa[0] == "J-fa-F"
    assert jfa[2] == (1e-9 if graded else 1e-9 + 10 * theta.tail_bound)


def test_cli_equiv_certifies_a_pair_with_a_large_tail(tmp_path):
    # [0.5] against itself at degree 0: the tail is 0.25
    pa = write_problem(tmp_path / "a.json", n=1, m=1, degree=0, mats=[[[0.5]]],
                       ideal={"kind": "zero"})
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": [[1.0]]}))
    out = tmp_path / "r.json"
    argv = ["equiv", "--problem", pa, "--problem-b", pa, "--unitary", str(uf), "--out", str(out)]
    assert run_cli(argv) == 0
    rep = read(out)
    assert rep["equivalent"] is True
    assert rep["recovered_unitarity"] < 1e-15


@pytest.mark.parametrize("command", ["model", "equiv"])
def test_each_problem_forms_its_tail_and_relation_residual_once(
    equiv_files, monkeypatch, command
):
    # the kernel's classify iterates Phi up to Phi^(d+1)(I), Theta reads it
    # from the kernel, and the run passes the gate's relation residual down
    # to the kernel, so each problem forms them once
    import fockmodel.cli
    import fockmodel.contractions
    import fockmodel.poisson

    tmp_path, pa, pb, uf = equiv_files
    tails, residuals = [], []
    phi_power, constraint_residual, classify = (
        fockmodel.contractions.phi_power,
        fockmodel.contractions.constraint_residual,
        fockmodel.poisson.classify,
    )

    def counted_phi_power(ts, k):
        tails.append(k)
        return phi_power(ts, k)

    def counted_classify(ts, **kwargs):
        tails.append(kwargs["degree"] + 1)
        return classify(ts, **kwargs)

    def counted_residual(ts, spec):
        residuals.append(spec.kind)
        return constraint_residual(ts, spec)

    for module in (fockmodel.cli, fockmodel.contractions, fockmodel.poisson):
        if hasattr(module, "phi_power"):
            monkeypatch.setattr(module, "phi_power", counted_phi_power)
        if hasattr(module, "constraint_residual"):
            monkeypatch.setattr(module, "constraint_residual", counted_residual)
    monkeypatch.setattr(fockmodel.poisson, "classify", counted_classify)
    argv = ["model", "--problem", pa]
    if command == "equiv":
        argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", uf]
    assert run_cli([*argv, "--out", str(tmp_path / "r.json")]) == 0
    problems = 1 if command == "model" else 2
    assert tails == [6] * problems
    assert residuals == ["commutative"] * problems


@pytest.mark.parametrize("command", ["charfn", "model", "equiv"])
def test_each_problem_builds_its_kernel_once_and_theta_from_it(equiv_files, monkeypatch, command):
    # Theta is built from the run's kernel, so the kernel blocks and the
    # defects of each problem are formed once, by the kernel builder
    import sys

    import fockmodel.cli

    tmp_path, pa, pb, uf = equiv_files
    calls = {"kernel_blocks": 0, "defects": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in [m for key, m in sys.modules.items() if key.startswith("fockmodel.")]:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    runs = []

    class RecordedRun(fockmodel.cli._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(fockmodel.cli, "_Run", RecordedRun)
    argv = [command, "--problem", pa]
    if command == "equiv":
        argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", uf]
    assert run_cli([*argv, "--out", str(tmp_path / "r.json")]) == 0
    problems = 2 if command == "equiv" else 1
    assert len(runs) == problems
    assert calls == {"kernel_blocks": problems, "defects": problems}
    assert all(run.theta.kernel is run.kernel for run in runs)


def test_a_charfn_command_decomposes_the_tail_once(tmp_path, monkeypatch):
    # Theta's tail bound and the kernel's read one norm of Phi^(d+1)(I),
    # which the kernel's classify formed and nothing formed again
    import fockmodel.contractions
    import fockmodel.poisson

    mats = random_row_contraction(np.random.default_rng(12), 2, 3, 0.7)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=4, mats=mats, ideal={"kind": "zero"}
    )
    tails, decomposed = [], []
    classify, phi_power = fockmodel.poisson.classify, fockmodel.contractions.phi_power

    def kept_classify(ts, **kwargs):
        cls = classify(ts, **kwargs)
        tails.append(cls.tail)
        return cls

    def kept_phi_power(ts, k):
        tails.append(phi_power(ts, k))
        return tails[-1]

    monkeypatch.setattr(fockmodel.poisson, "classify", kept_classify)
    monkeypatch.setattr(fockmodel.contractions, "phi_power", kept_phi_power)
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            decomposed.append(a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert run_cli(["charfn", "--problem", prob, "--out", str(tmp_path / "r.json")]) == 0
    assert len(tails) == 1
    assert sum(a is tails[0] for a in decomposed) == 1
    assert hermitian_norm(tails[0]) > 0.0  # a tail that a norm can tell apart


@pytest.mark.parametrize("command", ["charfn", "model"])
def test_charfn_and_model_decompose_nothing_larger_than_p(tmp_path, monkeypatch, command):
    # zero family at (2, 6), p = 381 < q = 762: the verdicts and the model
    # read the spectrum of I - Theta Theta* off the m x m Gram K*K, and J-fa-F
    # is the Frobenius norm that certified it; Theta Theta* comes from the
    # Fourier blocks by the Stein recursion, for the gate and the isometry
    # residual alike, so Theta is never a row_gram operand and nothing of
    # size p is decomposed
    mats = commuting_nilpotent_tuple(np.random.default_rng(23), 2, 0.5)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=6, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    seen = record_decompositions(monkeypatch)
    grams = []  # the shape of every row_gram operand
    import fockmodel.charfn as charfn_module
    import fockmodel.linalg as linalg_module

    row_gram, stein_gram, steins = linalg_module.row_gram, charfn_module.stein_gram, []
    for module in (charfn_module, linalg_module):
        monkeypatch.setattr(module, "row_gram", lambda a, **kw: grams.append(a.shape) or row_gram(a, **kw))
    monkeypatch.setattr(
        charfn_module, "stein_gram", lambda sp, b: steins.append(b.shape) or stein_gram(sp, b)
    )
    assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
    p, q = 381, 762
    assert (p, q) not in grams
    # Theta Theta* is built once, for the spectrum record: the verdicts,
    # J-fa-F and isometry-F all read it
    assert steins == [(127, 3, 6)]
    dims = read(out)["dims"]
    shape = (dims["rows"], dims["cols"]) if command == "charfn" else (dims["p"], dims["q"])
    assert shape == (p, q)
    p_sized = [(name, shape) for name, shape in seen if max(shape[-2:]) >= p]
    assert p_sized == []


@pytest.mark.parametrize("command", ["model", "equiv"])
@pytest.mark.parametrize("family", ["zero", "commutative", "custom-constant-term"])
def test_a_model_forms_theta_theta_star_once_per_function(tmp_path, monkeypatch, family, command):
    # isometry-F is read off the spectrum record, so the record's gate forms
    # the one A = Theta Theta* of each function: by the Stein recursion on the
    # zero family, as the row Gram of Theta_N under graded relations, and on
    # the dense route of the family with a constant term
    import fockmodel.charfn as charfn_module

    n, d = 2, 5
    rng = np.random.default_rng([n, d, 31])
    mats = oracle_tuple(family, n, rng)
    m = mats[0].shape[0]
    u = haar_unitary(m, rng)
    pa, pb, uf = (tmp_path / name for name in ("a.json", "b.json", "u.json"))
    for path, tup in ((pa, mats), (pb, conjugated_tuple(mats, u))):
        save_problem(path, Problem(n=n, m=m, degree=d, mats=tup, ideal=oracle_family(family, n, d)))
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    theta_gram, formed = charfn_module.theta_gram, []
    monkeypatch.setattr(
        charfn_module, "theta_gram", lambda theta: formed.append(theta) or theta_gram(theta)
    )
    argv = [command, "--problem", str(pa), "--out", str(tmp_path / "r.json")]
    if command == "equiv":
        argv += ["--problem-b", str(pb), "--unitary", str(uf)]
    # J-fa-F fails on the family that is not graded (see the strict xfail)
    assert run_cli(argv) == (1 if (family, command) == ("custom-constant-term", "model") else 0)
    functions = 2 if command == "equiv" else 1
    assert len(formed) == functions
    assert len({id(theta) for theta in formed}) == functions
    if family == "custom-constant-term":
        assert all(theta.spectrum.gap > 1e-12 for theta in formed)  # the dense route


@pytest.mark.parametrize("family", ["zero", "commutative"])
def test_a_charfn_command_forms_k_star_k_once(tmp_path, monkeypatch, family):
    # K*K's check and the Gram route of the spectrum record both read the
    # kernel's one Gram (KernelMatrix.gram), so gram(K) is taken once
    import fockmodel.linalg as linalg_module

    n, d = 2, 5
    mats = oracle_tuple(family, n, np.random.default_rng([n, d, 37]))
    m = mats[0].shape[0]
    prob = tmp_path / "p.json"
    save_problem(prob, Problem(n=n, m=m, degree=d, mats=mats, ideal=oracle_family(family, n, d)))
    gram, operands = linalg_module.gram, []
    for module in [mod for key, mod in sys.modules.items() if key.startswith("fockmodel.")]:
        if getattr(module, "gram", None) is gram:
            monkeypatch.setattr(module, "gram", lambda a: operands.append(a.shape) or gram(a))
    out = tmp_path / "r.json"
    assert run_cli(["charfn", "--problem", str(prob), "--out", str(out)]) == 0
    rep = read(out)
    assert rep["residuals"]["J-fa-F"] <= 1e-12  # the Gram route reads K*K
    assert operands.count((rep["dims"]["rows"], m)) == 1


def test_equiv_com_decomposes_nothing(tmp_path, monkeypatch):
    # zero family at (2, 6), p = 381, d_T = 3, d_star = 6: com is the
    # weighted sum of the norms of the Fourier blocks of D, so it decomposes
    # nothing; the models decompose nothing larger than n m = 6, and the
    # principal angles are thin (p + q) x h SVDs
    rng = np.random.default_rng(23)
    mats = random_row_contraction(rng, 2, 3, 0.8)
    u = haar_unitary(3, rng)
    pa, pb = (write_problem(tmp_path / f"{name}.json", n=2, m=3, degree=6, mats=tup,
                            ideal={"kind": "zero"})
              for name, tup in (("a", mats), ("b", conjugated_tuple(mats, u))))
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    out = tmp_path / "r.json"
    seen = record_decompositions(monkeypatch)
    during_com = []

    def com(*args):
        start = len(seen)
        value = coincidence_residual(*args)
        during_com.append(seen[start:])
        return value

    monkeypatch.setattr("fockmodel.model.coincidence_residual", com)
    argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", str(uf), "--out", str(out)]
    assert run_cli(argv) == 0
    assert during_com == [[]]
    assert [(name, shape) for name, shape in seen if min(shape[-2:]) > 6] == []
    rep = read(out)
    assert checks_by_name(rep)["com"]["pass"]
    assert rep["equivalent"] is True


def test_analyze_decomposes_nothing_larger_than_m(tmp_path, monkeypatch):
    # zero family at (2, 6), m = 3: d_star and its spectrum come from the
    # m x m eigh of I - R R*, and eq-ker, the leak bound, 0.0 on the whole
    # space, decomposes nothing; the nm x nm defect-star
    # decomposition is left to charfn and model
    mats = random_row_contraction(np.random.default_rng(23), 2, 3, 0.8)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=6, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    seen = record_decompositions(monkeypatch)
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 0
    assert read(out)["defects"]["d_star"] == 6
    assert seen and all(max(shape[-2:]) <= 3 for _, shape in seen)


def _eq_ker(report):
    return [c["residual"] for c in report["checks"] if c["name"] == "eq-ker"]


def test_analyze_reads_whole_space_eq_ker_as_zero(tmp_path):
    # a zero-family tuple and a relation violator, whose kernel is built on
    # the zero family: nothing leaks off the whole space, so eq-ker reads 0.0
    rng = np.random.default_rng(27)
    zero = write_problem(tmp_path / "zero.json", n=2, m=4, degree=5,
                         mats=random_row_contraction(rng, 2, 4, 0.8), ideal={"kind": "zero"})
    violator = write_problem(tmp_path / "violator.json", n=2, m=2, degree=4,
                             mats=[rng.normal(size=(2, 2)) / 4 for _ in range(2)],
                             ideal={"kind": "commutative"})
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", zero, "--out", str(out)]) == 0
    assert _eq_ker(read(out)) == [0.0]
    # the violated relations are the one failing check (exit 1, no verdict)
    assert run_cli(["analyze", "--problem", violator, "--out", str(out)]) == 1
    rep = read(out)
    assert rep["kernel"]["constrained"] is False
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["relations"]
    assert _eq_ker(rep) == [0.0]


@pytest.mark.parametrize("family", ["commutative", "custom-constant-term"])
def test_analyze_reports_the_leak_bound_as_eq_ker_without_applying_b(tmp_path, monkeypatch, family):
    # (2, 5): eq-ker is the kernel's leak plus |N_c,top|, which is 0.0 on the
    # graded commutative family, read without applying any B_i*
    n, d = 2, 5
    mats = oracle_tuple(family, n, np.random.default_rng(28))
    prob = tmp_path / "p.json"
    save_problem(prob, Problem(n=n, m=mats[0].shape[0], degree=d, mats=mats,
                               ideal=oracle_family(family, n, d)))
    _, kernel, _, _ = _stages(load_problem(prob))
    assert not kernel.sub.is_whole_space
    calls = []
    original = ConstrainedSubspace.shift_adjoint

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ConstrainedSubspace, "shift_adjoint", counted)
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", str(prob), "--out", str(out)]) == 0
    assert calls == []
    rep = read(out)
    assert rep["kernel"]["subspace_leak"] == kernel.subspace_leak > 0.0
    assert _eq_ker(rep) == [kernel.subspace_leak + kernel.sub.top_spill]
    if family == "commutative":
        assert _eq_ker(rep) == [rep["kernel"]["subspace_leak"]]


def test_a_star_decomposition_short_of_d_star_exits_2(tmp_path, monkeypatch, capsys):
    import fockmodel.contractions as contractions_module

    cut = contractions_module.psd_spectrum

    def one_short_on_nm(w, v):  # drops a kept eigenvector of the 6 x 6 I - R*R only
        w, basis, kept = cut(w, v)
        return (w, basis[:, :-1], kept[:-1]) if v.shape[0] == 6 else (w, basis, kept)

    monkeypatch.setattr(contractions_module, "psd_spectrum", one_short_on_nm)
    mats = random_row_contraction(np.random.default_rng(23), 2, 3, 0.8)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=3, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 0
    assert run_cli(["charfn", "--problem", prob, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RuntimeError" in err
    assert "keeps 5 eigenvectors" in err and "d_star = 6" in err


@pytest.mark.parametrize("command", ["charfn", "model"])
def test_constrained_commands_never_build_theta_on_the_whole_space(tmp_path, command):
    # commutative (2, 12): the whole-space Theta would take 19 GB, and the
    # command stays below 64 MB of traced allocations
    import tracemalloc

    mats = commuting_nilpotent_tuple(np.random.default_rng(11), 2, 0.5)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=12, mats=mats, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    dims = read(out)["dims"]
    if command == "charfn":
        assert (dims["dim_N"], dims["rows"], dims["cols"]) == (91, 273, 546)
    else:
        assert (dims["p"], dims["q"]) == (273, 546)


@pytest.mark.parametrize("command", ["analyze", "charfn", "model", "equiv"])
def test_whole_space_commands_never_build_the_dense_theta(tmp_path, monkeypatch, command):
    # zero family: the gate, J-fa-F, the model's Theta* u_k, isometry-F and
    # com all read the Fourier blocks, so Theta_N is never contracted; and N
    # is the whole space, held without a basis: dim_N and vacuum_in_N
    # (analyze) read the space and equiv matches two whole-space subspaces
    # by (n, d), so the dim x dim identity N_basis is never built either
    import fockmodel.charfn
    from fockmodel.ideals import ConstrainedSubspace

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense Theta was built on the zero family")

    built, lazy = [], ConstrainedSubspace.N_basis

    def recorded(sub):
        if sub.is_whole_space:
            built.append(sub.space.dim)
        return lazy.func(sub)

    monkeypatch.setattr(fockmodel.charfn, "_theta_n", forbidden)
    monkeypatch.setattr(ConstrainedSubspace, "N_basis", property(recorded))
    rng = np.random.default_rng(13)
    mats = random_row_contraction(rng, 2, 3, 0.7)
    u = haar_unitary(3, rng)
    pa, pb = (write_problem(tmp_path / f"{name}.json", n=2, m=3, degree=5, mats=tup,
                            ideal={"kind": "zero"})
              for name, tup in (("a", mats), ("b", conjugated_tuple(mats, u))))
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    argv = [command, "--problem", pa]
    if command == "equiv":
        argv += ["--problem-b", pb, "--unitary", str(uf)]
    out = tmp_path / "r.json"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert all(c["pass"] for c in read(out)["checks"])
    assert built == []


@pytest.mark.parametrize("family", ["commutative", "custom-constant-term", "zero"])
def test_only_the_subspace_reads_its_basis(tmp_path, monkeypatch, family):
    # every product by N is a ConstrainedSubspace method, so across every
    # command the one module that reads N_basis is ideals; on the zero family
    # N is the whole space and nothing builds it
    from fockmodel.ideals import ConstrainedSubspace

    readers, lazy = set(), ConstrainedSubspace.N_basis

    def recorded(sub):
        readers.add(sys._getframe(1).f_globals["__name__"])
        return lazy.func(sub)

    monkeypatch.setattr(ConstrainedSubspace, "N_basis", property(recorded))
    n, d = 2, 5
    rng = np.random.default_rng([n, d, 31])
    mats = oracle_tuple(family, n, rng)
    m = mats[0].shape[0]
    u = haar_unitary(m, rng)
    pa, pb, uf = (tmp_path / name for name in ("a.json", "b.json", "u.json"))
    for path, tup in ((pa, mats), (pb, conjugated_tuple(mats, u))):
        save_problem(path, Problem(n=n, m=m, degree=d, mats=tup, ideal=oracle_family(family, n, d)))
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    out = tmp_path / "r.json"
    pair = ["--problem-b", str(pb)]
    for command, extra in [("analyze", []), ("charfn", []), ("model", []), ("equiv", pair),
                           ("equiv", [*pair, "--unitary", str(uf)])]:
        assert run_cli([command, "--problem", str(pa), *extra, "--out", str(out)]) in (0, 1)
    assert readers == (set() if family == "zero" else {"fockmodel.ideals"})


@pytest.mark.parametrize("command", ["charfn", "model"])
def test_whole_space_commands_peak_below_theta_and_three_p_by_p_arrays(tmp_path, command):
    # zero family (2, 7), p = 765, q = 1530: Theta Theta* comes from the
    # Fourier blocks, once, for the spectrum record, which isometry-F reads,
    # Theta* u_k is taken on the blocks and the p x q Theta is never built,
    # so the traced peak stays below three p x p arrays (the QR route held
    # Theta twice, and Theta alone is 16 p q bytes)
    import tracemalloc

    mats = random_row_contraction(np.random.default_rng(11), 2, 3, 0.9)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=7, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    p, q = 765, 1530
    dims = read(out)["dims"]
    assert (dims.get("p", dims.get("rows")), dims.get("q", dims.get("cols"))) == (p, q)
    assert peak < 3 * 16 * p * p


def test_the_zero_tuple_reports_no_negative_zero(tmp_path):
    zero = [np.zeros((2, 2)), np.zeros((2, 2))]
    prob = write_problem(
        tmp_path / "p.json", n=2, m=2, degree=2, mats=zero, ideal={"kind": "zero"}
    )

    def floats(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from floats(item)
        elif isinstance(value, list):
            for item in value:
                yield from floats(item)

    for command in ("analyze", "charfn", "model"):
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
        assert "-0.0," not in out.read_text()
        negative_zeros = [x for x in floats(read(out)) if x == 0.0 and math.copysign(1, x) < 0]
        assert not negative_zeros, command


def test_cli_equiv_screen_only(equiv_files):
    tmp_path, pa, pb, _ = equiv_files
    out = tmp_path / "r.json"
    assert run_cli(["equiv", "--problem", pa, "--problem-b", pb, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["equivalent"] is None
    assert checks_by_name(rep)["fourier-screen"]["pass"]


def test_cli_equiv_screen_catches_mismatches(tmp_path):
    pa = write_problem(
        tmp_path / "a.json", n=2, m=1, degree=5, mats=PAIR, ideal={"kind": "commutative"}
    )
    pb = write_problem(
        tmp_path / "b.json",
        n=2,
        m=1,
        degree=5,
        mats=[[[0.3]], [[0.3]]],
        ideal={"kind": "commutative"},
    )
    out = tmp_path / "r.json"
    assert run_cli(["equiv", "--problem", pa, "--problem-b", pb, "--out", str(out)]) == 1
    rep = read(out)
    assert rep["equivalent"] is False
    assert not checks_by_name(rep)["fourier-screen"]["pass"]


def test_cli_reports_are_strict_json(tmp_path):
    # different defect ranks: the screen's mismatch is infinite
    pa = write_problem(
        tmp_path / "a.json", n=2, m=1, degree=4, mats=PAIR, ideal={"kind": "commutative"}
    )
    pb = write_problem(
        tmp_path / "b.json", n=2, m=1, degree=4, mats=[[[0.6]], [[0.8]]],
        ideal={"kind": "commutative"},
    )
    out = tmp_path / "r.json"
    assert run_cli(["equiv", "--problem", pa, "--problem-b", pb, "--out", str(out)]) == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    rep = json.loads(out.read_text(), parse_constant=refuse)
    assert rep["necessary_mismatch"] == "inf"
    assert rep["residuals"]["com"] == "inf"
    assert checks_by_name(rep)["fourier-screen"]["residual"] == "inf"
    assert not checks_by_name(rep)["fourier-screen"]["pass"]


@pytest.mark.parametrize("command", ["analyze", "charfn"])
def test_a_coisometric_tuple_under_relations_has_an_empty_kernel(tmp_path, command):
    # d_T = 0: the kernel and its relation-span component have no rows
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=4, mats=[[[0.6]], [[0.8]]],
        ideal={"kind": "commutative"},
    )
    out = tmp_path / "r.json"
    assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
    assert checks_by_name(read(out))["K*K"]["residual"] == 0.0


def test_cli_equiv_on_a_coisometric_pair_exits_2(tmp_path, capsys):
    # [T_1 T_2] is three rows of a unitary, so sum T_i T_i* = I and d_T = 0:
    # the tuple admits no model, which is a refusal (exit 2), not a verdict
    rng = np.random.default_rng(6)
    rows = haar_unitary(6, rng)[:3]
    mats = [rows[:, :3], rows[:, 3:]]
    u = haar_unitary(3, rng)
    pa = write_problem(tmp_path / "a.json", n=2, m=3, degree=3, mats=mats, ideal={"kind": "zero"})
    pb = write_problem(tmp_path / "b.json", n=2, m=3, degree=3, mats=conjugated_tuple(mats, u),
                       ideal={"kind": "zero"})
    uf = tmp_path / "u.json"
    uf.write_text(json.dumps({"matrix": encode_value(u)}))
    out = tmp_path / "r.json"
    argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", str(uf), "--out", str(out)]
    assert run_cli(argv) == 2
    assert "noncoisometric" in capsys.readouterr().err


def test_cli_equiv_rejects_non_conjugating_unitary(equiv_files):
    tmp_path, pa, pb, _ = equiv_files
    bad = tmp_path / "bad_u.json"
    bad.write_text(json.dumps({"matrix": encode_value(np.eye(3, dtype=complex))}))
    out = tmp_path / "r.json"
    code = run_cli(
        ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", str(bad), "--out", str(out)]
    )
    assert code == 1
    assert read(out)["verdict"] == "unitary-does-not-conjugate"


def test_cli_equiv_refuses_a_matrix_that_is_not_unitary(equiv_files, capsys):
    # 1.5 I is outside the input contract, not a witness that fails to conjugate
    tmp_path, pa, pb, _ = equiv_files
    scaled = tmp_path / "scaled_u.json"
    scaled.write_text(json.dumps({"matrix": encode_value(1.5 * np.eye(3, dtype=complex))}))
    out = tmp_path / "r.json"
    argv = ["equiv", "--problem", pa, "--problem-b", pb, "--unitary", str(scaled), "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert str(scaled) in err and "not unitary" in err
    assert not out.exists()


def test_cli_equiv_refuses_mismatched_families(tmp_path, equiv_files):
    _, pa, _, _ = equiv_files
    pb = write_problem(
        tmp_path / "bz.json",
        n=2,
        m=3,
        degree=5,
        mats=commuting_nilpotent_tuple(np.random.default_rng(17), 2, 0.7),
        ideal={"kind": "zero"},
    )
    out = tmp_path / "r.json"
    assert run_cli(["equiv", "--problem", pa, "--problem-b", pb, "--out", str(out)]) == 2


# Commuting, non-commuting and expansive 2 x 2 pairs for the gate shared by every command.
COMMUTING = [np.diag([0.3, 0.1]), np.diag([0.2, 0.4])]
VIOLATING = [np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.0]])]
EXPANSIVE = [0.8 * np.eye(2), 0.8 * np.eye(2)]


@pytest.mark.parametrize(
    "command,mats_a,mats_b,verdict,failing",
    [
        ("equiv", EXPANSIVE, COMMUTING, "problem-a-not-a-row-contraction", "row-contraction-a"),
        ("equiv", COMMUTING, VIOLATING, "problem-b-relations-violated", "relations-b"),
        ("model", VIOLATING, None, "relations-violated", "relations"),
        ("analyze", VIOLATING, None, None, "relations"),
    ],
    ids=["equiv-a-expansive", "equiv-b-violates", "model-violates", "analyze-violates"],
)
def test_cli_gate_verdicts(tmp_path, command, mats_a, mats_b, verdict, failing):
    def problem(name, mats):
        return write_problem(
            tmp_path / name, n=2, m=2, degree=4, mats=mats, ideal={"kind": "commutative"}
        )

    out = tmp_path / "r.json"
    argv = [command, "--problem", problem("a.json", mats_a), "--out", str(out)]
    if mats_b is not None:
        argv += ["--problem-b", problem("b.json", mats_b)]
    assert run_cli(argv) == 1
    rep = read(out)
    assert rep.get("verdict") == verdict
    assert [name for name, c in checks_by_name(rep).items() if not c["pass"]] == [failing]
    if command == "analyze":  # no verdict: the unconstrained kernel is still measured
        assert rep["kernel"]["constrained"] is False
        assert "violates the relations" in rep["kernel"]["note"]


def _row_norm_edge(excess):
    """A zero-family tuple of row norm 1, scaled by 1 + excess."""
    return [t * (1 + excess) for t in random_row_contraction(np.random.default_rng(0), 2, 3, 1.0)]


def _relation_edge(shift):
    """A commuting nilpotent tuple with T_1[0, 1] moved by shift: residual about shift / 4."""
    mats = commuting_nilpotent_tuple(np.random.default_rng(0), 2, 0.5)
    mats[0] = mats[0].copy()
    mats[0][0, 1] += shift
    return mats


# Tuples on either side of the gate's two thresholds, each with the tuple it perturbs:
# squared row norm - 1 at 1.4e-10 and 6e-11, relation residual at 4.7e-10 and 4.7e-11.
GATE_EDGES = [
    pytest.param("zero", _row_norm_edge(7e-11), _row_norm_edge(0.0), "row-contraction", False,
                 id="row-norm-1+7e-11"),
    pytest.param("zero", _row_norm_edge(3e-11), _row_norm_edge(0.0), "row-contraction", True,
                 id="row-norm-1+3e-11"),
    pytest.param("commutative", _relation_edge(2e-9), _relation_edge(0.0), "relations", False,
                 id="relations-4.7e-10"),
    pytest.param("commutative", _relation_edge(2e-10), _relation_edge(0.0), "relations", True,
                 id="relations-4.7e-11"),
]


@pytest.mark.parametrize("command", ["charfn", "model", "equiv-a", "equiv-b"])
@pytest.mark.parametrize("kind,mats,base,gate,passes", GATE_EDGES)
def test_the_gate_decides_by_the_check_it_reports(
    tmp_path, command, kind, mats, base, gate, passes
):
    # the verdict, validate and require_relations read the threshold of the
    # check, so a tuple the gate lets through never fails a later stage (exit 2)
    def problem(name, tup):
        return write_problem(tmp_path / name, n=2, m=3, degree=4, mats=tup, ideal={"kind": kind})

    edge, other = problem("edge.json", mats), problem("base.json", base)
    out = tmp_path / "r.json"
    if command == "equiv-b":
        argv = ["equiv", "--problem", other, "--problem-b", edge]
    elif command == "equiv-a":
        argv = ["equiv", "--problem", edge, "--problem-b", other]
    else:
        argv = [command, "--problem", edge]
    assert run_cli(argv + ["--out", str(out)]) in (0, 1)
    rep = read(out)
    which = command[-1] if command.startswith("equiv") else ""
    name, prefix = (f"-{which}", f"problem-{which}-") if which else ("", "")
    cb = checks_by_name(rep)
    assert cb[gate + name]["pass"] is passes
    verdict = {"row-contraction": "not-a-row-contraction", "relations": "relations-violated"}[gate]
    assert rep.get("verdict") == (None if passes else prefix + verdict)
    assert validate(mats).is_row_contraction == cb["row-contraction" + name]["pass"]
    if gate == "relations":
        spec = PolyIdealSpec(n=2, kind=kind)
        if passes:
            require_relations(mats, spec)
        else:
            with pytest.raises(ValueError, match="violates the polynomial relations"):
                require_relations(mats, spec)


@pytest.mark.parametrize(
    "option,value",
    [pytest.param("--tol", tol, id=tol) for tol in ["nan", "-1", "inf", "0", "1", "tiny"]]
    + [
        pytest.param("--degree", "-1", id="degree--1"),
        pytest.param("--degree", "x", id="degree-x"),
    ],
)
def test_cli_rejects_tolerances_outside_the_unit_interval(tmp_path, capsys, option, value):
    # --tol must lie in (0, 1) and --degree be an integer >= 0; argparse refuses
    # anything else before the problem is read, naming the option.  T = [1] is
    # not c.n.c., so a degree that got through would end in exit 1 instead.
    prob = write_problem(
        tmp_path / "p.json", n=1, m=1, degree=4, mats=[[[1.0]]], ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["model", "--problem", prob, "--out", str(out), option, value])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "charfn", "model"])
def test_tol_reaches_the_classification(tmp_path, command):
    # T = 0.8 J, J the 3 x 3 Jordan block: |Phi(I)| = 0.64, |Phi^2(I)| = 0.4096
    # and Phi^3(I) = 0, so at the default tolerance purity is certified at
    # step 3 and at 0.5 both verdicts are certified at step 2
    mats = [0.8 * np.eye(3, k=1)]
    prob = write_problem(
        tmp_path / "p.json", n=1, m=3, degree=3, mats=mats, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    iterations = []
    for tol, extra in ((1e-9, []), (0.5, ["--tol", "0.5"])):
        assert run_cli([command, "--problem", prob, "--out", str(out), *extra]) == 0
        cls = classify(mats, tol=tol, degree=3)
        expected = {"pure": cls.pure, "cnc": cls.cnc, "rho": cls.rho, "iterations": cls.iterations}
        assert read(out)["classification"] == encode_value(expected)
        iterations.append(cls.iterations)
    assert iterations == [3, 2]


def test_cli_unexpected_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the relation span")

    monkeypatch.setattr("fockmodel.cli.ideal_subspace", out_of_memory)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=4, mats=PAIR, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MemoryError" in err
    assert not out.exists()


def test_cli_degree_override(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=6, mats=PAIR, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(out), "--degree", "3"]) == 0
    rep = read(out)
    assert rep["degree"] == 3
    assert rep["subspace"]["dim_N"] == 10


def test_cli_missing_file_is_exit_2(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--problem", str(tmp_path / "nope.json"), "--out", str(out)]) == 2


def test_cli_reports_are_deterministic(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=4, mats=PAIR, ideal={"kind": "commutative"}
    )
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["analyze", "--problem", prob, "--out", str(o1)]) == 0
    assert run_cli(["analyze", "--problem", prob, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_cli_runs_in_one_process_write_the_bytes_of_fresh_processes(tmp_path):
    # main parses with one parser per process; a usage error in between
    # leaves it as it was
    assert build_parser() is build_parser()
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=4, mats=PAIR, ideal={"kind": "commutative"}
    )
    for command in ("charfn", "analyze"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", prob])
        assert exc.value.code == 2
        assert run_cli([command, "--problem", prob, "--out", str(tmp_path / f"{command}.json")]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command in ("charfn", "analyze"):
        fresh = tmp_path / f"fresh-{command}.json"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fockmodel.cli; sys.exit(fockmodel.cli.main())",
             command, "--problem", prob, "--out", str(fresh)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert fresh.read_bytes() == (tmp_path / f"{command}.json").read_bytes()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fockmodel" in capsys.readouterr().out
