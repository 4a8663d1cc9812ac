"""Fast self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the smallest problem once untraced and once
traced, and checks that every metric in BENCHMARK.json is printed by name
with its unit and that the gate passes.  It then injects a wrong expected
exit code and a wrong recorded report field, and checks that the gate counts
each as a failed command.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def smallest(commands):
    """The command whose problem has the fewest ambient coordinates (Fock dim x m)."""
    from fockmodel.fock import word_count

    def cost(cmd):
        data = json.loads(Path(cmd.argv[cmd.argv.index("--problem") + 1]).read_text())
        return word_count(data["n"], data["degree"]) * data["m"]
    return [min(commands, key=cost)]


def run_printed(name, trace, select):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        full = run.run_workload(name, SEED, 0, trace, select=select, min_rounds=1)
        run.print_result(full)
    lines = buf.getvalue().splitlines()
    return full, lines, json.loads(lines[-1])


def check(cond, msg, errors):
    if not cond:
        errors.append(msg)


def main() -> int:
    run.SETUP_SAMPLES = 1  # set-up time is not under test here
    spec = run.load_spec(Path.cwd())
    errors: list[str] = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            full, lines, last = run_printed(name, trace, smallest)
            tag = f"{name} trace={trace}"
            check(last["correct"] and last["failed"] == 0, f"{tag}: gate failed {full['failures']}", errors)
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys", errors)
            for metric, unit in spec[trace].items():
                got = last["metrics"].get(metric)
                check(got is not None and got["unit"] == unit and isinstance(got["value"], (int, float)),
                      f"{tag}: {metric} missing or without unit {unit}", errors)
                check(any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}") for line in lines),
                      f"{tag}: {metric} not printed with its unit", errors)
            print(f"{tag}: {len(last['metrics'])} metrics, {last['attempted']} commands", file=sys.stderr)

    def wrong_exit(commands):
        cmd = smallest(commands)[0]
        return [dataclasses.replace(cmd, expect_exit=1 - cmd.expect_exit)]

    def wrong_field(commands):
        cmd = smallest(commands)[0]
        field = next(iter(cmd.expect))
        return [dataclasses.replace(cmd, expect={**cmd.expect, field: "not-recorded"})]

    for label, select in (("wrong exit code", wrong_exit), ("wrong report field", wrong_field)):
        _, _, last = run_printed("graded-theta", 0, select)
        check(not last["correct"] and last["failed"] == last["attempted"] >= 1
              and last["metrics"]["ok_frac"]["value"] == 0.0,
              f"injected {label} was not caught: {last}", errors)

    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
