"""Problem/report serialization and the command-line entry points."""

import json
import math

import numpy as np
import pytest

from conftest import opnorm, record_decompositions, theta_of
from fockmodel import (
    NCPoly,
    PolyIdealSpec,
    Problem,
    ProblemFormatError,
    TriState,
    TruncatedFockSpace,
    ideal_subspace,
    load_problem,
    load_unitary,
    save_problem,
    save_report,
)
from fockmodel.cli import main
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


@pytest.mark.parametrize("command", ["analyze", "charfn"])
def test_zero_family_builds_no_dense_shift_and_no_identity_product(
    tmp_path, monkeypatch, command
):
    # on the zero family N = I: the creation operators act as index maps and
    # no product by N is formed, so none of these may run
    def forbidden(*args, **kwargs):
        raise AssertionError("dense shift or product by N = I on the zero family")

    monkeypatch.setattr("fockmodel.fock.left_creation", forbidden)
    monkeypatch.setattr("fockmodel.fock.right_creation", forbidden)
    monkeypatch.setattr(np, "tensordot", forbidden)
    mats = random_row_contraction(np.random.default_rng(8), 2, 3, 0.7)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=4, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
    assert all(c["pass"] for c in read(out)["checks"])


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
    sub = ideal_subspace(PolyIdealSpec(n=2, kind="commutative"), TruncatedFockSpace(2, 5))
    th = theta_of(PAIR, sub)
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
    # the kernel forms Phi^(d+1)(I), Theta reads it from the kernel, and the
    # run passes the gate's relation residual down to the kernel, so each
    # problem forms them once
    import fockmodel.cli
    import fockmodel.contractions
    import fockmodel.poisson

    tmp_path, pa, pb, uf = equiv_files
    tails, residuals = [], []
    phi_power, constraint_residual = (
        fockmodel.contractions.phi_power,
        fockmodel.contractions.constraint_residual,
    )

    def counted_phi_power(ts, k):
        tails.append(k)
        return phi_power(ts, k)

    def counted_residual(ts, spec):
        residuals.append(spec.kind)
        return constraint_residual(ts, spec)

    for module in (fockmodel.cli, fockmodel.contractions, fockmodel.poisson):
        if hasattr(module, "phi_power"):
            monkeypatch.setattr(module, "phi_power", counted_phi_power)
        if hasattr(module, "constraint_residual"):
            monkeypatch.setattr(module, "constraint_residual", counted_residual)
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
    # Theta's tail bound and the kernel's read one norm of Phi^(d+1)(I)
    import fockmodel.poisson

    mats = random_row_contraction(np.random.default_rng(12), 2, 3, 0.7)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=4, mats=mats, ideal={"kind": "zero"}
    )
    tails, decomposed = [], []
    phi_power = fockmodel.poisson.phi_power

    def kept_phi_power(ts, k):
        tails.append(phi_power(ts, k))
        return tails[-1]

    monkeypatch.setattr(fockmodel.poisson, "phi_power", kept_phi_power)
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
    # zero family at (2, 6), p = 381 < q = 762: the verdicts read the p x p
    # spectrum of I - Theta Theta*, and the model's isometry residual one QR
    # of the q x p matrix Theta*; nothing else sees a dimension above p
    mats = commuting_nilpotent_tuple(np.random.default_rng(23), 2, 0.5)
    prob = write_problem(
        tmp_path / "p.json", n=2, m=3, degree=6, mats=mats, ideal={"kind": "zero"}
    )
    out = tmp_path / "r.json"
    seen = record_decompositions(monkeypatch)
    assert run_cli([command, "--problem", prob, "--out", str(out)]) == 0
    p, q = 381, 762
    dims = read(out)["dims"]
    shape = (dims["rows"], dims["cols"]) if command == "charfn" else (dims["p"], dims["q"])
    assert shape == (p, q)
    large = [(name, shape) for name, shape in seen if max(shape[-2:]) > p]
    assert large == ([] if command == "charfn" else [("qr", (q, p))])
    assert ("eigvalsh", (p, p)) in seen


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
