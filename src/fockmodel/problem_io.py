"""Problem and report files.

A *problem file* is JSON describing one tuple and one relation family:

    {
      "n": 2,                     // number of generators
      "m": 3,                     // matrix size
      "degree": 6,                // truncation degree
      "tuple": [ M1, ..., Mn ],   // n matrices, each m x m, row-major,
                                  // entries either [re, im] or a bare real
      "ideal": { "kind": "zero" }
             | { "kind": "commutative" }
             | { "kind": "q_commutative", "q": [re, im] }          // uniform
             | { "kind": "q_commutative", "q": {"1,2": [re, im]} } // per pair i<j
             | { "kind": "custom",
                 "polys": [ { "1.2": [re, im], "2.1": [re, im] } ] }
    }

Custom polynomials map dot-separated words ("1.2" means x1*x2, "" the
constant term) to coefficients.  A *unitary file* is either a bare matrix or
{"matrix": ...} in the same entry encoding.  Every number must be finite
(no NaN or Infinity), and JSON booleans are not accepted as numbers.

Reports are plain JSON written with sorted keys; complex numbers serialize as
[re, im] and arrays as nested lists, so repeated runs produce byte-identical
files.  Reports are strict JSON: a non-finite float is written as the string
"inf", "-inf" or "nan", never as a bare Infinity or NaN token.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .contractions import TriState
from .ideals import NCPoly, PolyIdealSpec


class ProblemFormatError(ValueError):
    """A problem/unitary file failed validation; the message names the field."""


@dataclasses.dataclass
class Problem:
    n: int
    m: int
    degree: int
    mats: list[np.ndarray]
    ideal: PolyIdealSpec
    path: str | None = None


def _finite_number(value: Any) -> bool:
    """A JSON number that is finite as a float; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _complex_entry(value: Any, where: str) -> complex:
    if _finite_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_finite_number(x) for x in value)
    ):
        return complex(value[0], value[1])
    raise ProblemFormatError(f"{where}: expected a finite number or [re, im], got {value!r}")


def _matrix(value: Any, m: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != m:
        raise ProblemFormatError(f"{where}: expected {m} rows")
    out = np.zeros((m, m), dtype=complex)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != m:
            raise ProblemFormatError(f"{where}[{r}]: expected {m} entries")
        for c, entry in enumerate(row):
            out[r, c] = _complex_entry(entry, f"{where}[{r}][{c}]")
    return out


def _ideal(value: Any, n: int) -> PolyIdealSpec:
    if not isinstance(value, dict):
        raise ProblemFormatError("ideal: expected an object")
    kind = value.get("kind")
    if kind == "zero":
        return PolyIdealSpec(n=n, kind="zero")
    if kind == "commutative":
        return PolyIdealSpec(n=n, kind="commutative")
    if kind == "q_commutative":
        if "q" not in value:
            raise ProblemFormatError("ideal.q: required for q_commutative relations")
        raw = value["q"]
        if isinstance(raw, dict):
            q: dict[tuple[int, int], complex] = {}
            for key, entry in raw.items():
                try:
                    i, j = (int(p) for p in str(key).split(","))
                except ValueError:
                    raise ProblemFormatError(
                        f"ideal.q[{key!r}]: keys look like 'i,j' with integers"
                    ) from None
                if not 1 <= i < j <= n:
                    raise ProblemFormatError(f"ideal.q[{key!r}]: need 1 <= i < j <= {n}")
                q[(i, j)] = _complex_entry(entry, f"ideal.q[{key!r}]")
            missing = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if (i, j) not in q
            ]
            if missing:
                raise ProblemFormatError(f"ideal.q: missing pairs {missing}")
        else:
            q = _complex_entry(raw, "ideal.q")
        try:
            return PolyIdealSpec(n=n, kind="q_commutative", q=q)
        except ValueError as exc:
            raise ProblemFormatError(f"ideal.q: {exc}") from None
    if kind == "custom":
        raw_polys = value.get("polys")
        if not isinstance(raw_polys, list) or not raw_polys:
            raise ProblemFormatError("ideal.polys: expected a nonempty list")
        polys = []
        for k, rp in enumerate(raw_polys):
            if not isinstance(rp, dict) or not rp:
                raise ProblemFormatError(f"ideal.polys[{k}]: expected a nonempty object")
            terms = {}
            for word_text, coeff in rp.items():
                try:
                    word = tuple(int(p) for p in word_text.split(".")) if word_text else ()
                except ValueError:
                    raise ProblemFormatError(
                        f"ideal.polys[{k}][{word_text!r}]: words are dot-separated integers"
                    ) from None
                if any(a < 1 or a > n for a in word):
                    raise ProblemFormatError(
                        f"ideal.polys[{k}][{word_text!r}]: letters must lie in 1..{n}"
                    )
                terms[word] = _complex_entry(coeff, f"ideal.polys[{k}][{word_text!r}]")
            polys.append(NCPoly(terms))
        try:
            return PolyIdealSpec(n=n, kind="custom", polys=polys)
        except ValueError as exc:
            raise ProblemFormatError(f"ideal.polys: {exc}") from None
    raise ProblemFormatError(
        f"ideal.kind: expected zero | commutative | q_commutative | custom, got {kind!r}"
    )


def load_problem(path: str | Path) -> Problem:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{path}: expected a JSON object at top level")
    for field in ("n", "m", "degree", "tuple", "ideal"):
        if field not in data:
            raise ProblemFormatError(f"{field}: missing")
    n, m, degree = data["n"], data["m"], data["degree"]
    for name, v, lo in (("n", n, 1), ("m", m, 1), ("degree", degree, 0)):
        if isinstance(v, bool) or not isinstance(v, int) or v < lo:
            raise ProblemFormatError(f"{name}: expected an integer >= {lo}, got {v!r}")
    raw_tuple = data["tuple"]
    if not isinstance(raw_tuple, list) or len(raw_tuple) != n:
        raise ProblemFormatError(f"tuple: expected {n} matrices")
    mats = [_matrix(raw_tuple[i], m, f"tuple[{i}]") for i in range(n)]
    ideal = _ideal(data["ideal"], n)
    return Problem(n=n, m=m, degree=degree, mats=mats, ideal=ideal, path=str(path))


def load_unitary(path: str | Path, m: int) -> np.ndarray:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(data, dict):
        data = data.get("matrix")
    if data is None:
        raise ProblemFormatError(f"{path}: expected a matrix or {{'matrix': ...}}")
    return _matrix(data, m, "matrix")


def _float(value: float) -> float | str:
    """A finite float as itself; inf, -inf and nan as strings, which strict JSON allows."""
    return value if math.isfinite(value) else str(value)


def encode_value(value: Any) -> Any:
    """Recursively convert package values into strict-JSON-encodable structures."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return _float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [_float(float(value.real)), _float(float(value.imag))]
    if isinstance(value, TriState):
        return value.value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        if not np.all(np.isfinite(value)):
            return encode_value(value.tolist())
        if np.iscomplexobj(value):
            return np.stack([value.real, value.imag], axis=-1).tolist()
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def save_report(path: str | Path, report: dict) -> None:
    """Write a deterministic, strict JSON report (sorted keys, [re, im] complexes)."""
    path = Path(path)
    text = json.dumps(encode_value(report), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def save_problem(path: str | Path, problem: Problem) -> None:
    """Write a problem back to disk in the documented format."""
    ideal: dict[str, Any] = {"kind": problem.ideal.kind}
    if problem.ideal.kind == "q_commutative":
        q = problem.ideal.q
        if isinstance(q, dict):
            ideal["q"] = {f"{i},{j}": encode_value(complex(v)) for (i, j), v in q.items()}
        else:
            ideal["q"] = encode_value(complex(q))
    if problem.ideal.kind == "custom":
        ideal["polys"] = [
            {".".join(str(a) for a in w): encode_value(c) for w, c in p.terms.items()}
            for p in problem.ideal.polys
        ]
    data = {
        "n": problem.n,
        "m": problem.m,
        "degree": problem.degree,
        "tuple": [encode_value(t) for t in problem.mats],
        "ideal": ideal,
    }
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
