"""The package imports and certifies an equivalence without loading scipy.

scipy brings a second BLAS and its thread pool and about a third of a second
of import time; the package needs neither, so a fresh process that imports
the CLI and runs ``equiv --unitary`` must not have it in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fockmodel import PolyIdealSpec
from fockmodel.problem_io import Problem, encode_value, save_problem
from fockmodel.sampling import commuting_nilpotent_tuple, conjugated_tuple, haar_unitary

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import fockmodel.cli
code = fockmodel.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_equiv_unitary_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(5)
    mats = commuting_nilpotent_tuple(rng, 2, 0.7)
    u = haar_unitary(mats[0].shape[0], rng)
    spec = PolyIdealSpec(n=2, kind="commutative")
    for name, tup in (("a.json", mats), ("b.json", conjugated_tuple(mats, u))):
        save_problem(tmp_path / name, Problem(n=2, m=u.shape[0], degree=5, mats=tup, ideal=spec))
    (tmp_path / "u.json").write_text(json.dumps({"matrix": encode_value(u)}))
    out = tmp_path / "r.json"
    argv = ["equiv", "--problem", str(tmp_path / "a.json"), "--problem-b", str(tmp_path / "b.json"),
            "--unitary", str(tmp_path / "u.json"), "--out", str(out)]
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "scipy": []}
    checks = {c["name"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
    assert checks["subspace-angle"]
