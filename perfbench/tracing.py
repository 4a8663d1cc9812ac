"""Out-of-program tracing: spans around every public function of each fockmodel layer.

``Tracer.install`` wraps, from outside, every public function and public
method defined in the layer modules, and rebinds each wrapper in every
``fockmodel.*`` namespace that holds the original (so ``from .fock import
left_creation`` in ``poisson`` and the names ``cli`` imports are covered).
The dense decompositions that ``fockmodel`` calls through ``numpy.linalg`` and
``scipy.linalg`` are wrapped as ``linalg`` spans.  Nothing under ``src/`` is
edited.

A span is (layer, name, start, end, parent, command).  Spans stay in memory
and are written out when the pass ends.  A layer's self time is the time of
its spans minus the time of their direct child spans; spans of one thread
nest strictly, so the self times of one command add up to its root span.
Counts are taken in the same wrappers.  With ``alloc=True`` each span also
records the peak extra memory ``tracemalloc`` saw while it was open
(callees included); numpy reports its buffers to ``tracemalloc``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "problem_io", "fock", "ideals", "contractions", "poisson", "charfn", "model", "linalg")

# Dense decompositions fockmodel calls by module attribute.  numpy's own
# internal calls (e.g. the SVD inside norm(a, 2)) bypass these wrappers; the
# spectral norm is counted at fockmodel.linalg.opnorm instead.
DECOMPOSITIONS = {
    "numpy.linalg": ("eigh", "eigvalsh", "svd", "lstsq", "solve", "qr"),
    "scipy.linalg": ("subspace_angles",),
}

# Inclusive time of these spans is reported as its own per-layer metric.
TIMED = {
    "charfn.fourier_block_s": {("charfn", "fourier_block")},
    "charfn.delta_classify_s": {("charfn", "delta_and_classify")},
    "charfn.factorization_s": {("charfn", "factorization_defect")},
    "model.build_model_s": {("model", "build_model")},
    "model.equivalence_s": {("model", "verify_coincidence_implies_equivalence"),
                            ("model", "coincidence_from_unitary")},
    "poisson.intertwining_s": {("poisson", "verify_intertwining")},
    "problem_io.load_s": {("problem_io", "load_problem"), ("problem_io", "load_unitary")},
}

# Call counts of these spans are reported as their own per-layer metric.
COUNTED = {
    "ideals.subspace_builds": {("ideals", "ideal_subspace")},
    "ideals.compressed_shift_builds": {("ideals", "constrained_creation")},
    "charfn.theta_builds": {("charfn", "constrained_characteristic_function"),
                            ("charfn", "characteristic_function")},
    "charfn.fourier_block_calls": {("charfn", "fourier_block")},
    "model.build_model_calls": {("model", "build_model")},
    "contractions.defects_calls": {("contractions", "defects")},
    "contractions.tail_calls": {("contractions", "truncation_tail")},
    "poisson.kernel_builds": {("poisson", "constrained_poisson_kernel"), ("poisson", "poisson_kernel")},
    "fock.operator_builds": {("fock", "left_creation"), ("fock", "right_creation")},
}

ALLOC_LAYERS = ("ideals", "charfn", "model", "poisson")


def _shape2(a):
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return None
    batch = 1
    for s in shape[:-2]:
        batch *= s
    return batch, int(shape[-2]), int(shape[-1]), bool(getattr(a, "dtype", None) is not None
                                                       and a.dtype.kind == "c")


def decomposition_flops(name: str, args, kwargs) -> tuple[float, int]:
    """Textbook flop count of one decomposition, computed from its input shapes.

    Golub & Van Loan operation counts (real arithmetic; a complex flop counts
    as four).  Returns (flops, largest input dimension).  These are computed
    figures, not measured hardware counters.
    """
    a = _shape2(args[0]) if args else None
    if a is None:
        return 0.0, 0
    batch, m, n, cplx = a
    big, k = max(m, n), min(m, n)
    if name == "eigh":
        f = 9.0 * n**3
    elif name == "eigvalsh":
        f = 4.0 / 3.0 * n**3
    elif name in ("svd", "opnorm"):
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True) and name == "svd"
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        if not uv:
            f = 2.0 * big * k**2 + 2.0 * k**3
        elif full:
            f = 4.0 * big**2 * k + 22.0 * k**3
        else:
            f = 6.0 * big * k**2 + 20.0 * k**3
    elif name == "qr":
        f = 4.0 * big * k**2 - 4.0 / 3.0 * k**3
    elif name == "lstsq":
        f = 2.0 * big * k**2 + 11.0 * k**3
    elif name == "solve":
        b = _shape2(args[1]) if len(args) > 1 else None
        nrhs = b[2] if b else 1
        f = 2.0 / 3.0 * n**3 + 2.0 * n**2 * nrhs
    elif name == "subspace_angles":
        b = _shape2(args[1])
        p, q = n, b[2] if b else 0
        f = 2.0 * m * p**2 + 2.0 * m * q**2 + 2.0 * max(p, q) * min(p, q) ** 2
        big = max(big, m, q)
    else:
        f = 0.0
    return batch * f * (4.0 if cplx else 1.0), big


class Tracer:
    def __init__(self, *, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[list] = []  # [layer, name, start, end, parent, cmd, alloc_bytes]
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [current at entry, max seen]
        self.cmd = -1
        self.calls: Counter = Counter()
        self.fock_keys: set = set()
        self.classify_iterations = 0
        self.report_bytes = 0
        self.decompositions = 0
        self.decomp_flops = 0.0
        self.largest_decomp_dim = 0
        self._decomp_spans: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> int:
        if self.alloc:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self.cmd, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        if self.alloc:
            _, peak = tracemalloc.get_traced_memory()
            start_cur, seen = self._mem.pop()
            top = max(seen, peak)
            span[6] = top - start_cur
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)
            tracemalloc.reset_peak()

    def _wrap(self, layer: str, name: str, fn, probe=None):
        tracer = self
        key = (layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
                tracer.calls[key] += 1
                if probe is not None:
                    probe(tracer, idx, args, kwargs, result)
                return result
            finally:
                tracer._exit(idx)

        return traced

    # -- probes (run inside the span they count) -------------------------------

    @staticmethod
    def _probe_creation(side):
        def probe(tracer, idx, args, kwargs, result):
            space, i = args[0], args[1]
            tracer.fock_keys.add((space.n, space.d, i, side))
        return probe

    @staticmethod
    def _probe_classify(tracer, idx, args, kwargs, result):
        tracer.classify_iterations += int(result.iterations)

    @staticmethod
    def _probe_report(tracer, idx, args, kwargs, result):
        tracer.report_bytes += os.path.getsize(args[0])

    @staticmethod
    def _probe_decomposition(name):
        def probe(tracer, idx, args, kwargs, result):
            if name == "opnorm" and not getattr(args[0], "size", 0):
                return  # opnorm of an empty matrix returns 0 without an SVD
            flops, dim = decomposition_flops(name, args, kwargs)
            tracer.decompositions += 1
            tracer.decomp_flops += flops
            tracer.largest_decomp_dim = max(tracer.largest_decomp_dim, dim)
            tracer._decomp_spans.add(idx)
        return probe

    def _probe_for(self, layer: str, name: str):
        if layer == "fock" and name in ("left_creation", "right_creation"):
            return self._probe_creation(name.split("_")[0])
        if (layer, name) == ("contractions", "classify"):
            return self._probe_classify
        if (layer, name) == ("problem_io", "save_report"):
            return self._probe_report
        if (layer, name) == ("linalg", "opnorm"):
            return self._probe_decomposition("opnorm")
        return None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods, and the decompositions."""
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fockmodel.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[obj] = self._wrap(layer, name, obj, self._probe_for(layer, name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "fockmodel" and not modname.startswith("fockmodel."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replacements:
                    setattr(mod, attr, replacements[val])
        for modname, names in DECOMPOSITIONS.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                setattr(mod, name, self._wrap("linalg", f"{modname}.{name}", fn,
                                              self._probe_decomposition(name)))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            own_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if attr.startswith("_") and not own_init:
                continue
            label = f"{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(layer, label, val))
            elif isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self._wrap(layer, label, val.__func__)))

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[int, dict]:
        """Per command: {layer: self seconds}; children are subtracted from parents."""
        child_time = defaultdict(float)
        for layer, name, start, end, parent, cmd, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_cmd: dict[int, dict] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for idx, (layer, name, start, end, parent, cmd, _) in enumerate(self.spans):
            per_cmd[cmd][layer] += (end - start) - child_time[idx]
        return dict(per_cmd)

    def root_times(self) -> dict[int, float]:
        """Per command: total duration of its root spans (the traced wall time)."""
        out: dict[int, float] = defaultdict(float)
        for layer, name, start, end, parent, cmd, _ in self.spans:
            if parent < 0:
                out[cmd] += end - start
        return dict(out)

    def metrics(self) -> dict:
        """Pass-level per-layer numbers (times in s, memory in MB)."""
        out: dict[str, float] = {}
        totals = dict.fromkeys(LAYERS, 0.0)
        for cmd_times in self.self_times().values():
            for layer, t in cmd_times.items():
                totals[layer] += t
        for layer in LAYERS:
            out[f"{layer}.self_s"] = totals[layer]
        for metric, keys in TIMED.items():
            out[metric] = sum(s[3] - s[2] for s in self.spans if (s[0], s[1]) in keys)
        for metric, keys in COUNTED.items():
            out[metric] = sum(self.calls[k] for k in keys)
        builds = out["fock.operator_builds"]
        out["fock.operator_reuse_ratio"] = len(self.fock_keys) / builds if builds else 1.0
        out["contractions.classify_iterations"] = self.classify_iterations
        out["problem_io.report_bytes"] = self.report_bytes
        out["linalg.decompositions"] = self.decompositions
        out["linalg.decomp_s"] = sum(self.spans[i][3] - self.spans[i][2] for i in self._decomp_spans)
        out["linalg.decomp_gflop_computed"] = self.decomp_flops / 1e9
        out["linalg.largest_decomp_dim"] = self.largest_decomp_dim
        if self.alloc:
            for layer in ALLOC_LAYERS:
                out[f"{layer}.peak_alloc_mb"] = max(
                    (s[6] for s in self.spans if s[0] == layer), default=0) / 2**20
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (layer, name, start, end, parent, cmd, alloc) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer, "name": name, "start": start,
                                     "end": end, "parent": parent, "cmd": cmd,
                                     "alloc_bytes": alloc}) + "\n")
