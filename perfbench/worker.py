"""One benchmark pass in a fresh process: import the CLI, drive the command list once.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the commands, the directory for this pass's reports, the mode
(``setup``: import and exit; ``plain``: untraced; ``traced``: spans around
every layer; ``alloc``: spans plus tracemalloc) and where to write the result.
The parent process starts this script with the checkout's ``src`` on
PYTHONPATH and times it from process start.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import fockmodel.cli  # noqa: F401  (set-up ends when the CLI is importable and ready)

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready, "fockmodel_file": sys.modules["fockmodel"].__file__}
    if spec["mode"] != "setup":
        result.update(run_commands(spec))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def run_commands(spec: dict) -> dict:
    mode = spec["mode"]
    tracer = None
    if mode in ("traced", "alloc"):
        from tracing import Tracer

        tracer = Tracer(alloc=mode == "alloc")
        tracer.install()
        if tracer.alloc:
            tracemalloc.start()
    cli = sys.modules["fockmodel.cli"]
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, (name, argv) in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.cmd = i
        out = str(out_dir / f"{name}.report.json")
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main([*argv, "--out", out])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # any raise is a failed command, never a crash of the pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        cmds.append({"name": name, "code": code, "error": error, "out": out,
                     "wall": time.perf_counter() - t0})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is not None and tracer.alloc:
        tracemalloc.stop()
    out = {
        "commands": cmds,
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        roots, self_times = tracer.root_times(), tracer.self_times()
        for i, c in enumerate(cmds):
            c["self_s"] = self_times.get(i, {})
            c["traced_wall"] = roots.get(i, 0.0)
        out["layers"] = tracer.metrics()
        tracer.write_spans(out_dir / "spans.jsonl")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
