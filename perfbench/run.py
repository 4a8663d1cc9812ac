"""fockmodel benchmark: seeded CLI workloads, end-to-end timing and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's problem files from the seed (with
``fockmodel.sampling``; set-up, untimed), then drives the workload's command
list through ``fockmodel.cli.main`` in fresh worker processes, one pass of the
whole list per process, until ``--seconds`` are used (at least
``MIN_ROUNDS`` rounds).  Every command of every pass is gated: exit code,
``pass`` of every check, the discrete report fields recorded in
``workloads.py``, and byte-identical reports across passes.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``setup_s`` (process start until ``fockmodel.cli`` is imported), ``wall_s``
and ``cpu_s`` (the command list, BLAS threads included in CPU time),
``cmd_p50_s`` (median command), ``peak_rss_mb`` and ``ok_frac`` (commands
that passed the gate over commands attempted; 1 - fail_frac).

``--trace 1`` makes rounds of one untraced and one traced pass, taking
turns at which goes first so that a drift in machine speed does not bias
``trace.overhead_frac``.  Then it runs one traced pass with BLAS pinned to
one thread and one pass under ``tracemalloc``, and reports the per-layer
metrics (see ``tracing.py``) plus ``trace.overhead_frac``.

The last line of standard output is the result as JSON.  Lines before it
give the environment manifest and each command's problem sizes and timings;
``.perfbench/<workload>-seed<N>-trace<T>/`` keeps each pass's reports and
spans, and ``result.json`` with everything printed plus every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
# Rounds (one pass per mode) made even when --seconds is already used up.
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Layer self times of a traced command must add up to its measured wall time.
SELF_SUM_REL_TOL, SELF_SUM_ABS_TOL = 0.01, 0.002


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, wrong program, bad arguments)."""


def import_program(root: Path):
    """Import fockmodel from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "fockmodel" / "cli.py").is_file():
        raise SetupError(f"no fockmodel sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import fockmodel

    if Path(fockmodel.__file__).resolve().parent != (src / "fockmodel").resolve():
        raise SetupError(f"imported fockmodel from {fockmodel.__file__}, not from {src}")
    return fockmodel


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def manifest(fockmodel, workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "fockmodel": fockmodel.__version__,
    }


class Runner:
    """Starts worker passes for one workload run and collects their results."""

    def __init__(self, root: Path, work: Path, commands):
        self.root = root
        self.work = work
        self.commands = commands
        self.setup_samples: list[float] = []
        self._serial = 0

    def spawn(self, mode: str, *, one_thread: bool = False) -> dict:
        self._serial += 1
        pass_dir = self.work / f"{self._serial:02d}-{mode}{'-1t' if one_thread else ''}"
        pass_dir.mkdir(parents=True)
        spec = {
            "mode": mode,
            "commands": [(c.name, list(c.argv)) for c in self.commands],
            "out_dir": str(pass_dir),
            "result": str(pass_dir / "result.json"),
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        if one_thread:
            env.update(ONE_THREAD_ENV)
        with open(pass_dir / "stderr.log", "wb") as log:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                    cwd=self.root, env=env, stdout=log, stderr=log)
            try:
                code = proc.wait(timeout=PASS_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        result_path = Path(spec["result"])
        if code != 0 or not result_path.is_file():
            tail = (pass_dir / "stderr.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"worker pass {pass_dir.name} exited with {code}:\n{tail}")
        res = json.loads(result_path.read_text())
        res["setup_s"] = res["ready"] - t0
        res["elapsed"] = elapsed
        res["serial"] = self._serial
        res["mode"] = mode
        res["one_thread"] = one_thread
        self.setup_samples.append(res["setup_s"])
        return res

    def top_up_setup(self) -> None:
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.spawn("setup")


def lookup(report: dict, dotted: str):
    cur = report
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return "<missing>"
        cur = cur[part]
    return cur


def gate(commands, res: dict, root: Path, reference: dict | None) -> list[str]:
    """Check every command of one pass; returns one message per failed command.

    Records each report's digest in ``res`` so later passes can be compared
    against this one.
    """
    failures = []
    for cmd, c in zip(commands, res["commands"]):
        problems = []
        if c["error"]:
            problems.append(c["error"])
        if c["code"] != cmd.expect_exit:
            problems.append(f"exit code {c['code']}, expected {cmd.expect_exit}")
        path = root / c["out"]
        data = path.read_bytes() if path.is_file() else None
        c["digest"] = hashlib.sha256(data).hexdigest() if data is not None else None
        if data is None:
            problems.append("no report written")
        else:
            try:
                report = json.loads(data)
            except json.JSONDecodeError as exc:
                report = {}
                problems.append(f"report is not JSON: {exc}")
            if cmd.expect_exit == 0:
                bad = [ch["name"] for ch in report.get("checks", []) if not ch.get("pass")]
                if bad:
                    problems.append(f"checks failed: {bad}")
            for field, want in cmd.expect.items():
                got = lookup(report, field)
                if got != want:
                    problems.append(f"{field} = {got!r}, recorded {want!r}")
            if reference is not None and c["digest"] != reference.get(cmd.name):
                problems.append("report differs from the first untraced pass")
        if "self_s" in c:
            total = sum(c["self_s"].values())
            if abs(total - c["wall"]) > SELF_SUM_REL_TOL * c["wall"] + SELF_SUM_ABS_TOL:
                problems.append(f"layer self times sum to {total:.6f} s, wall {c['wall']:.6f} s")
        if problems:
            failures.append(f"pass {res['serial']} {cmd.name}: " + "; ".join(problems))
    return failures


def sizes(report: dict) -> dict:
    """Problem sizes a later change can normalise a gain by, as far as the report gives them."""
    from fockmodel.fock import word_count

    n, d = report.get("n"), report.get("degree")
    out = {"n": n, "m": report.get("m"), "degree": d}
    if isinstance(n, int) and isinstance(d, int):
        out["dim"] = word_count(n, d)
    dims = report.get("dims", {})
    for key, alt in (("dim_N", "subspace"), ("d_T", "defects"), ("d_star", "defects")):
        value = dims.get(key, report.get(alt, {}).get(key))
        if value is not None:
            out[key] = value
    for key in ("p", "q", "s", "h"):
        if key in dims:
            out[key] = dims[key]
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int, *,
                 select=None, min_rounds: int = MIN_ROUNDS) -> dict:
    """Run one workload from the current directory, the root of a checkout.

    Returns the full result; ``summary`` holds the line the driver reads.
    ``select`` maps the workload's command list to the list actually run; the
    self-test uses it to run one small command or to inject a wrong expectation.
    """
    import workloads

    root = Path.cwd()
    fockmodel = import_program(root)
    units = load_spec(root)[trace]
    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    # Relative paths: the reports name their problem file, and must not depend
    # on where the checkout lives.
    work = Path(".perfbench") / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.build(name, seed, work / "problems")
    if select is not None:
        commands = select(commands)
    runner = Runner(root, work, commands)

    passes: list[dict] = []
    failures: list[str] = []
    reference = None

    def run_pass(mode, **kw):
        nonlocal reference
        res = runner.spawn(mode, **kw)
        # One-thread BLAS may round differently, so its reports are not compared.
        failures.extend(gate(commands, res, root, None if kw.get("one_thread") else reference))
        if reference is None and mode == "plain":
            reference = {c["name"]: c["digest"] for c in res["commands"]}
        passes.append(res)
        return res

    start = time.monotonic()
    deadline = start + seconds
    modes = ("plain", "traced") if trace else ("plain",)
    rounds = 0
    while True:
        for mode in modes if rounds % 2 == 0 else modes[::-1]:
            run_pass(mode)
        rounds += 1
        cycle = median([sum(p["elapsed"] for p in passes[i:i + len(modes)])
                        for i in range(0, len(passes), len(modes))])
        if rounds >= min_rounds and time.monotonic() + cycle > deadline:
            break
    if trace:
        run_pass("traced", one_thread=True)
        run_pass("alloc")
    runner.top_up_setup()

    plain = [p for p in passes if p["mode"] == "plain"]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = len(failures)
    if trace:
        traced = [p for p in passes if p["mode"] == "traced" and not p["one_thread"]]
        one_thread = next(p for p in passes if p["one_thread"])
        alloc = next(p for p in passes if p["mode"] == "alloc")
        values = {k: median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
        values["linalg.decomp_s_1t"] = one_thread["layers"]["linalg.decomp_s"]
        for key, v in alloc["layers"].items():
            if key.endswith("peak_alloc_mb"):
                values[key] = v
        plain_wall = median([p["wall"] for p in plain])
        values["trace.overhead_frac"] = (median([p["wall"] for p in traced]) - plain_wall) / plain_wall
    else:
        values = {
            "setup_s": median(runner.setup_samples),
            "wall_s": median([p["wall"] for p in plain]),
            "cpu_s": median([p["cpu"] for p in plain]),
            "cmd_p50_s": median([median([c["wall"] for c in p["commands"]]) for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
            "ok_frac": (attempted - failed) / attempted,
        }
    missing = set(units) ^ set(values)
    if missing:
        raise SetupError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    first_reports = {c["name"]: json.loads((root / c["out"]).read_text())
                     for c in plain[0]["commands"] if (root / c["out"]).is_file()}
    per_command = [
        {
            "name": cmd.name,
            "argv": list(cmd.argv),
            "expect_exit": cmd.expect_exit,
            "sizes": sizes(first_reports.get(cmd.name, {})),
            "wall_s": [p["commands"][i]["wall"] for p in plain],
            "wall_s_median": median([p["commands"][i]["wall"] for p in plain]),
        }
        for i, cmd in enumerate(commands)
    ]
    env = manifest(fockmodel, name, seed, seconds, trace)
    env["blas_threads"] = plain[0]["blas_threads"]
    if trace:
        env["blas_threads_one_thread_pass"] = one_thread["blas_threads"]
    env["passes"] = {"untraced": len(plain), "traced": len(traced) if trace else 0, "total": len(passes),
                     "commands_per_pass": len(commands), "setup_samples": len(runner.setup_samples)}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    full = {"manifest": env, "summary": summary, "failures": failures, "commands": per_command,
            "setup_samples_s": runner.setup_samples,
            "passes": [{k: p[k] for k in ("serial", "mode", "one_thread", "wall", "cpu", "peak_rss_mb",
                                          "setup_s", "elapsed")} for p in passes]}
    (work / "result.json").write_text(json.dumps(full, indent=1))
    shutil.rmtree(work / "problems")  # large, and rebuilt from the seed on demand
    return full


def print_result(full: dict) -> None:
    print("manifest " + json.dumps(full["manifest"], sort_keys=True))
    for c in full["commands"]:
        print(f"command {c['name']}: median {c['wall_s_median']:.4f} s over {len(c['wall_s'])} passes, "
              f"sizes {json.dumps(c['sizes'], sort_keys=True)}")
    for msg in full["failures"]:
        print(f"FAILED {msg}")
    n = full["manifest"]["passes"]
    print(f"samples: medians over {n['untraced']} untraced and {n['traced']} traced passes of "
          f"{n['commands_per_pass']} commands (cmd_p50_s: median command of each pass); "
          f"setup_s over {n['setup_samples']} set-ups")
    for k, m in full["summary"]["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(full["summary"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        full = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
