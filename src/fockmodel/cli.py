"""Command-line interface.

Four subcommands, all reading JSON problem files and writing JSON reports:

  analyze  validation, purity/c.n.c. classification, defect ranks, subspace
           dimensions, Poisson kernel residuals
  charfn   constrained characteristic function: factorization against the
           kernel, inner/outer verdicts, Fourier profile
  model    model-space reconstruction with both operator branches and the
           canonical unitary's residuals
  equiv    compare two problems; with --unitary, certify unitary equivalence
           through the coincidence machinery

Each problem gets one run object that builds its pipeline on first use and
keeps it: relation residual, relation subspace, then the Poisson kernel
(which holds the defects and the truncation tail), then the characteristic
function, which is built from the kernel.  Each stage reads the objects of
the stage before it, so no command computes an object twice.  The commands
are report views over their runs; they share one gate (row contraction, then
relations) and one way to write the report and pick the exit code.

Exit codes: 0 the command ran and every verdict it certifies came out
positive; 1 the command ran and reached a definite negative verdict (not a
row contraction, relations violated, functions don't coincide, equivalence
checks failed); 2 the inputs could not be processed at all (bad files,
incompatible problems, internal inconsistencies, any unexpected error).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cached_property

import numpy as np

from . import __version__
from .charfn import (
    coincidence_necessary_mismatch,
    constrained_characteristic_function,
    delta_and_classify,
    factorization_defect,
)
from .contractions import (
    _RELATION_TOL,
    TriState,
    classify,
    constraint_residual,
    validate,
)
from .fock import TruncatedFockSpace
from .ideals import PolyIdealSpec, ideal_subspace
from .linalg import hermitian_norm
from .model import (
    build_model,
    coincidence_from_unitary,
    model_operators,
    model_unitary,
    verify_coincidence_implies_equivalence,
)
from .poisson import constrained_poisson_kernel, verify_intertwining
from .problem_io import Problem, ProblemFormatError, load_problem, load_unitary, save_report


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


def _degree(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockmodel",
        description="Constrained dilation/model analysis of row contractions at finite truncation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--out", required=True, help="report JSON file to write")
        p.add_argument(
            "--degree", type=_degree, default=None, help="override the truncation degree, >= 0"
        )
        p.add_argument(
            "--tol", type=_tolerance, default=1e-9, help="classification tolerance, in (0, 1)"
        )

    p_analyze = sub.add_parser("analyze", help="validate, classify, and measure one tuple")
    common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_charfn = sub.add_parser("charfn", help="constrained characteristic function and factorization")
    common(p_charfn)
    p_charfn.set_defaults(func=_cmd_charfn)

    p_model = sub.add_parser("model", help="model-space reconstruction")
    common(p_model)
    p_model.set_defaults(func=_cmd_model)

    p_equiv = sub.add_parser("equiv", help="compare two problems / certify unitary equivalence")
    common(p_equiv)
    p_equiv.add_argument("--problem-b", required=True, help="second problem JSON file")
    p_equiv.add_argument("--unitary", default=None, help="JSON file with the conjugating unitary")
    p_equiv.set_defaults(func=_cmd_equiv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 1 is a verdict, so every failure to finish is exit 2
        detail = " ".join(str(exc).split())
        line = f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
        print(f"fockmodel: {line}", file=sys.stderr)
        return 2


class _Run:
    """The pipeline of one problem at one degree; each object is built on first use."""

    def __init__(self, problem: Problem, args):
        self.problem = problem
        self.mats = problem.mats
        self.degree = problem.degree if args.degree is None else args.degree
        self.tol = args.tol

    @cached_property
    def space(self) -> TruncatedFockSpace:
        return TruncatedFockSpace(self.problem.n, self.degree)

    @cached_property
    def validation(self):
        return validate(self.mats)

    @cached_property
    def relation_residual(self) -> float:
        return constraint_residual(self.mats, self.problem.ideal)

    @cached_property
    def classification(self):
        return classify(self.mats, tol=self.tol)

    @cached_property
    def sub(self):
        return ideal_subspace(self.problem.ideal, self.space)

    @cached_property
    def kernel(self):
        return constrained_poisson_kernel(
            self.mats, self.sub, relation_residual=self.relation_residual
        )

    @cached_property
    def theta(self):
        return constrained_characteristic_function(self.kernel)


def _open(args) -> tuple[_Run, dict, list]:
    """Run, base report and empty check list of a single-problem command."""
    run = _Run(load_problem(args.problem), args)
    return run, _base_report(args.command, run), []


def _base_report(command: str, run: _Run) -> dict:
    p = run.problem
    return {"command": command, "version": __version__, "problem": p.path, "n": p.n, "m": p.m,
            "degree": run.degree, "tol": run.tol, "ideal_kind": p.ideal.kind}


def _classification_dict(cls) -> dict:
    return {"pure": cls.pure, "cnc": cls.cnc, "rho": cls.rho, "iterations": cls.iterations}


def _gamma_residual(gamma) -> float:
    """Worst violation of the identities defining the canonical identification."""
    return max(
        gamma.unitary_residual,
        gamma.embedding_residual,
        gamma.norm_identity_residual,
        gamma.projection_residual,
        max(gamma.intertwining.values()),
    )


def _check(checks: list, name: str, residual, tolerance: float) -> None:
    """Record one verified identity; every pass/fail cites the tolerance used."""
    value = float(residual)
    checks.append({"name": name, "residual": value, "tolerance": float(tolerance),
                   "pass": bool(value <= tolerance)})


def _gate(run: _Run, report: dict, checks: list, which: str = "") -> str | None:
    """Check the row contraction, then the relations; return the negative verdict, if any.

    ``which`` ("a" or "b") names the problem of an ``equiv`` command; it
    suffixes the report keys and check names and prefixes the verdict.
    """
    key, name, prefix = (f"_{which}", f"-{which}", f"problem-{which}-") if which else ("", "", "")
    v = run.validation
    validation = {"row_norm": v.row_norm, "is_row_contraction": v.is_row_contraction}
    if not which:
        validation["messages"] = v.messages
    report["validation" + key] = validation
    _check(checks, "row-contraction" + name, max(0.0, v.row_norm * v.row_norm - 1.0), 1e-10)
    if not v.is_row_contraction:
        return prefix + "not-a-row-contraction"
    report["constraint_residual" + key] = run.relation_residual
    _check(checks, "relations" + name, run.relation_residual, 1e-10)
    if run.relation_residual > _RELATION_TOL:
        return prefix + "relations-violated"
    return None


def _finish(report: dict, checks: list, out: str, verdict: str | None = None) -> int:
    """Write the report; exit 0 only without a negative verdict and with every check passed."""
    if verdict is not None:
        report["verdict"] = verdict
    report["checks"] = checks
    save_report(out, report)
    return 0 if verdict is None and all(c["pass"] for c in checks) else 1


def _cmd_analyze(args) -> int:
    run, report, checks = _open(args)
    verdict = _gate(run, report, checks)
    if verdict == "not-a-row-contraction":
        return _finish(report, checks, args.out, verdict)

    sub = run.sub
    report["classification"] = _classification_dict(run.classification)
    report["subspace"] = {"dim_N": sub.dim_N, "dim_M": sub.dim_M,
                          "graded": sub.graded, "vacuum_in_N": sub.vacuum_in_N}
    if verdict is None:
        kernel = run.kernel
        report["kernel"] = {"constrained": True, "subspace_leak": kernel.subspace_leak}
    else:  # a relation-violating tuple still gets its kernel, on the zero family
        free = ideal_subspace(PolyIdealSpec(n=run.problem.n), run.space)
        kernel = constrained_poisson_kernel(run.mats, free)
        report["kernel"] = {
            "constrained": False,
            "note": "tuple violates the relations; kernel computed without the constraint",
        }
    dft = kernel.defect
    report["defects"] = {"d_T": dft.d_T, "d_star": dft.d_star,
                         "eigenvalues": dft.eigvals, "eigenvalues_star": dft.eigvals_star}
    report["kernel"]["rows"] = kernel.matrix.shape[0]
    report["tail_bound"] = kernel.tail_bound
    report["residuals"] = {
        "K*K": kernel.gram_residual(),
        "eq-ker": max(verify_intertwining(kernel).values()),
    }
    _check(checks, "K*K", report["residuals"]["K*K"], kernel.tail_bound + 1e-10)
    _check(checks, "eq-ker", report["residuals"]["eq-ker"], 1e-10)
    return _finish(report, checks, args.out)


def _cmd_charfn(args) -> int:
    run, report, checks = _open(args)
    verdict = _gate(run, report, checks)
    if verdict is not None:
        return _finish(report, checks, args.out, verdict)

    cls, sub, theta = run.classification, run.sub, run.theta
    dc = delta_and_classify(theta)
    block_norms = np.linalg.norm(theta.fourier_blocks, 2, axis=(1, 2))
    per_degree = {
        str(k): float(np.max(block_norms[run.space.degree_slice(k)], initial=0.0))
        for k in range(run.degree + 1)
    }
    report.update(
        {
            "classification": _classification_dict(cls),
            "dims": {
                "d_T": theta.d_T,
                "d_star": theta.d_star,
                "rows": theta.matrix.shape[0],
                "cols": theta.matrix.shape[1],
                "dim_N": sub.dim_N,
            },
            "method": "compression",
            "tail_bound": theta.tail_bound,
            "series_agreement": theta.series_agreement,
            "coinvariance_leak": theta.coinvariance_leak,
            "inner": dc.inner,
            "outer": dc.outer,
            "partial_isometry_residual": dc.partial_isometry_residual,
            "rank_deficiency": dc.rank_deficiency,
            "fourier_norms_by_degree": per_degree,
            "norm": dc.norm,
            "residuals": {
                "J-fa": factorization_defect(theta),
                "K*K": theta.kernel.gram_residual(),
            },
        }
    )
    tail = theta.tail_bound
    # The factorization is exact at truncation only for certified-pure tuples
    # under a graded (or empty) relation family; otherwise it drifts with the
    # tail, so the cited tolerance widens accordingly.
    exact_case = cls.pure is TriState.YES and (sub.graded or sub.dim_M == 0)
    _check(checks, "J-fa", report["residuals"]["J-fa"], 1e-9 if exact_case else 1e-9 + 10 * tail)
    _check(checks, "K*K", report["residuals"]["K*K"], tail + 1e-10)
    if theta.series_agreement is not None:
        _check(checks, "series-agree", theta.series_agreement, 1e-10)
    if theta.coinvariance_leak is not None and sub.graded:
        _check(checks, "coinvariance", theta.coinvariance_leak, 1e-8)
    return _finish(report, checks, args.out)


def _cmd_model(args) -> int:
    run, report, checks = _open(args)
    verdict = _gate(run, report, checks)
    if verdict is not None:
        return _finish(report, checks, args.out, verdict)

    cls = run.classification
    report["classification"] = _classification_dict(cls)
    if cls.cnc is TriState.NO:
        return _finish(report, checks, args.out, "not-completely-noncoisometric")

    model = build_model(run.theta, classification=cls)
    ops = model_operators(model, classification=cls)
    gamma = model_unitary(model, ops)

    report.update(
        {
            "dims": {"p": model.p, "q": model.q, "s": model.s, "h": model.h},
            "isometry_residual": model.isometry_residual,
            "branch": ops.used,
            "branch_agreement": ops.branch_agreement,
            "injectivity_margin": ops.injectivity_margin,
            "model_operators": ops.Tt,
            "gamma": {
                "embedding_residual": gamma.embedding_residual,
                "unitary_residual": gamma.unitary_residual,
                "intertwining": gamma.intertwining,
                "norm_identity_residual": gamma.norm_identity_residual,
                "projection_residual": gamma.projection_residual,
            },
            "tail_bound": model.tail_bound,
            "residuals": {
                "def": max(ops.defining_residual),
                "Ga": _gamma_residual(gamma),
            },
        }
    )
    tail = model.tail_bound
    _check(checks, "isometry", model.isometry_residual, 1e-9)
    # The least-squares residual of the defining relation measures the tilt of
    # the truncated model space, which scales with sqrt(tail), not tail.
    _check(checks, "def", max(ops.defining_residual), 1e-7 + 10 * tail**0.5)
    if ops.branch_agreement is not None:
        _check(checks, "branch-agree", max(ops.branch_agreement), 1e-8 + 10 * tail)
    _check(checks, "Ga-unitary", gamma.unitary_residual, 1e-8 + 10 * tail)
    _check(checks, "Ga-intertwine", max(gamma.intertwining.values()), 1e-8 + 10 * tail)
    _check(
        checks,
        "Ga-identify",
        max(gamma.embedding_residual, gamma.norm_identity_residual, gamma.projection_residual),
        1e-7 + 10 * tail,
    )
    return _finish(report, checks, args.out)


def _ideals_match(a: PolyIdealSpec, b: PolyIdealSpec) -> bool:
    return a.n == b.n and a.kind == b.kind and a.generators() == b.generators()


def _cmd_equiv(args) -> int:
    problem = load_problem(args.problem)
    problem_b = load_problem(args.problem_b)
    if problem.n != problem_b.n:
        raise ProblemFormatError(
            f"problems have different n ({problem.n} vs {problem_b.n}); nothing to compare"
        )
    if args.degree is None and problem.degree != problem_b.degree:
        raise ProblemFormatError(
            f"problems have different degrees ({problem.degree} vs {problem_b.degree}); "
            "pass --degree to force one"
        )
    if not _ideals_match(problem.ideal, problem_b.ideal):
        raise ProblemFormatError("problems impose different relation families")
    a, b = _Run(problem, args), _Run(problem_b, args)  # same degree: checked above
    report = _base_report("equiv", a)
    report["problem_b"] = problem_b.path
    checks: list[dict] = []
    for run, which in ((a, "a"), (b, "b")):
        verdict = _gate(run, report, checks, which)
        if verdict is not None:
            return _finish(report, checks, args.out, verdict)

    b.sub = a.sub  # the relation families match, so both runs share one subspace
    mismatch = coincidence_necessary_mismatch(a.theta, b.theta)
    report["necessary_mismatch"] = mismatch

    if args.unitary is None:
        coincide_possible = mismatch <= 1e-6
        report["equivalent"] = None if coincide_possible else False
        report["residuals"] = {"com": mismatch}
        report["note"] = (
            "no unitary supplied: only the necessary singular-value test ran"
            if coincide_possible
            else "Fourier singular values differ; the functions cannot coincide"
        )
        _check(checks, "fourier-screen", mismatch, 1e-6)
        return _finish(report, checks, args.out)

    if problem.m != problem_b.m:
        raise ProblemFormatError(
            f"problems act on different spaces (m={problem.m} vs m={problem_b.m}); "
            "no spatial unitary can conjugate them"
        )
    u = load_unitary(args.unitary, problem.m)
    try:
        witness = coincidence_from_unitary(a.theta, b.theta, u)
    except ValueError as exc:
        report["detail"] = str(exc)
        return _finish(report, checks, args.out, "unitary-does-not-conjugate")

    eq = verify_coincidence_implies_equivalence(
        witness, classification=a.classification, classification_p=b.classification
    )
    report.update(
        {
            "classification_a": _classification_dict(a.classification),
            "classification_b": _classification_dict(b.classification),
            "coincidence_residual": eq.coincidence_residual,
            "conjugation_residual": witness.conjugation_residual,
            "max_principal_angle": eq.max_principal_angle,
            "model_intertwining": eq.model_intertwining,
            "recovered_intertwining": eq.recovered_intertwining,
            "recovered_unitarity": eq.recovered_unitarity,
            "phase_deviation": eq.phase_deviation,
            "recovered_unitary": eq.recovered_unitary,
            "equivalent": eq.equivalent,
            "residuals": {
                "com": eq.coincidence_residual,
                "def": max(eq.defining_residuals),
                "Ga": max(_gamma_residual(eq.gamma), _gamma_residual(eq.gamma_p)),
            },
        }
    )
    tau_dev = max(
        hermitian_norm(witness.tau.conj().T @ witness.tau - np.eye(witness.tau.shape[1])),
        hermitian_norm(
            witness.tau_star.conj().T @ witness.tau_star - np.eye(witness.tau_star.shape[1])
        ),
    )
    _check(checks, "conjugation", witness.conjugation_residual, 1e-10)
    _check(checks, "tau-unitary", tau_dev, 1e-10)
    _check(checks, "com", witness.residual, 1e-9)
    _check(checks, "subspace-angle", eq.max_principal_angle, 1e-6)
    _check(checks, "model-intertwine", eq.model_intertwining, 1e-7)
    _check(checks, "recovered-unitary", eq.recovered_unitarity, 1e-6)
    _check(checks, "recovered-intertwine", eq.recovered_intertwining, 1e-6)
    code = _finish(report, checks, args.out)
    return code if eq.equivalent else 1


if __name__ == "__main__":
    sys.exit(main())
