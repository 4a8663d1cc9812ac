"""Problem/report serialization and the command-line entry points."""

import json

import numpy as np
import pytest

from conftest import opnorm
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    Problem,
    ProblemFormatError,
    TriState,
    TruncatedFockSpace,
    constrained_characteristic_function,
    ideal_subspace,
    load_problem,
    load_unitary,
    save_problem,
    save_report,
)
from fockmodel.cli import main
from fockmodel.problem_io import encode_value
from fockmodel.sampling import commuting_nilpotent_tuple, conjugated_tuple, haar_unitary

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


def test_q_dict_validation(tmp_path):
    base = {"n": 2, "m": 1, "degree": 3, "tuple": [[[0.1]], [[0.1]]]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps({**base, "ideal": {"kind": "q_commutative", "q": {"junk": 1.0}}}))
    with pytest.raises(ProblemFormatError, match="i,j"):
        load_problem(path)
    path.write_text(json.dumps({**base, "ideal": {"kind": "q_commutative", "q": {"2,1": 1.0}}}))
    with pytest.raises(ProblemFormatError):
        load_problem(path)


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
    return main(argv)


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


def test_cli_charfn(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", n=2, m=1, degree=5, mats=PAIR, ideal={"kind": "commutative"}
    )
    out = tmp_path / "r.json"
    assert run_cli(["charfn", "--problem", prob, "--out", str(out)]) == 0
    rep = read(out)
    assert set(rep["residuals"]) == {"J-fa", "K*K"}
    assert rep["inner"] is True
    assert set(rep["fourier_norms_by_degree"]) == {str(k) for k in range(6)}
    th = constrained_characteristic_function(
        PAIR, ideal_subspace(PolyIdealSpec(n=2, kind="commutative"), TruncatedFockSpace(2, 5))
    )
    for k, got in rep["fourier_norms_by_degree"].items():
        blocks = [b for w, b in zip(th.space.words, th.fourier_blocks) if len(w) == int(k)]
        assert got == max(opnorm(b) for b in blocks)
    cb = checks_by_name(rep)
    assert cb["J-fa"]["pass"] and cb["K*K"]["pass"]


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


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fockmodel" in capsys.readouterr().out
