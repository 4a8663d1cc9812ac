"""Bounded fuzzing of the problem loader and the command line.

A tiny valid problem (n, m <= 2, degree <= 3) gets one to three of its values
replaced by arbitrary JSON, or deleted.  The loader must either return a
Problem or raise ProblemFormatError; the CLI must exit 0, 1 or 2, print at
most one line of its own to stderr, and write a report whenever it reaches a
verdict.  pytest turns numpy's floating-point RuntimeWarnings into errors
(pyproject.toml), so an overflow inside a command ends it with exit 2 and a
"RuntimeWarning" line, which the CLI test refuses.  Integers stay in [-3, 3],
so no mutation can ask for a large space; floats include huge values such as
1e300, so mutations do reach the overflow paths.  The examples are
derandomized, so every run of the suite checks the same ones.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings, strategies as st

from fockmodel import Problem, ProblemFormatError, load_problem
from fockmodel.cli import main

BASES = [
    {
        "n": 2,
        "m": 2,
        "degree": 3,
        "tuple": [[[0.3, 0.0], [0.0, 0.1]], [[0.2, 0.0], [0.0, [0.0, 0.4]]]],
        "ideal": {"kind": "commutative"},
    },
    {
        "n": 2,
        "m": 2,
        "degree": 2,
        "tuple": [[[0.1, 0.3], [-0.2, 0.0]], [[0.0, [0.1, -0.2]], [0.3, 0.1]]],
        "ideal": {"kind": "zero"},
    },
    {
        "n": 2,
        "m": 1,
        "degree": 2,
        "tuple": [[[0.5]], [[0.0]]],
        "ideal": {"kind": "q_commutative", "q": {"1,2": [0.5, 0.5]}},
    },
    {
        "n": 1,
        "m": 2,
        "degree": 3,
        "tuple": [[[0.0, 0.6], [0.0, 0.0]]],
        "ideal": {"kind": "custom", "polys": [{"1.1": 1.0}]},
    },
]

# Leaves include the words the format gives meaning to, so mutations reach
# the branches behind them, not only the type checks in front.
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from([1e200, -1e300, 1e300])
    | st.text(max_size=4)
    | st.sampled_from(["zero", "commutative", "q_commutative", "custom", "1,2", "1.2", "2.1", ""])
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every position in a JSON value, the root included, as a key/index path."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@st.composite
def mutated_problems(draw):
    problem = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(problem))))
        if not path:
            problem = draw(JSON)
            continue
        parent = problem
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return problem


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=mutated_problems())
def test_the_loader_returns_a_problem_or_names_the_field(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_text(json.dumps(data))
    try:
        problem = load_problem(path)
    except ProblemFormatError:
        return
    assert isinstance(problem, Problem)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=mutated_problems(), command=st.sampled_from(["analyze", "charfn", "model"]))
def test_the_cli_exits_0_1_or_2_with_at_most_one_stderr_line(tmp_path_factory, data, command):
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "p.json", folder / "r.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--problem", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert "RuntimeWarning" not in err.getvalue()
    assert code == 2 or out.exists()
