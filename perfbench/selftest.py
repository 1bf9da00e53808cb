"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that every metric named in
BENCHMARK.json is printed with its unit, that a solver returning a
suboptimal assignment is caught and counted as a failed operation, and that
traced and untraced sweeps write identical summaries.  Exits 1 on failure.
"""

from __future__ import annotations

import io
import json
import shutil
import sys

import run
from spans import Tracer
from workloads import ESTIMATORS, Match, Sweep, write_inputs

TINY = {
    "tiny-sweep": Sweep(n=8, d=6, sigma=0.5, sweep=(1.0, 3.0), estimators=ESTIMATORS, trials=2,
                        configs=2),
    "tiny-match": Match(m=12, n=9, d=5, sigma=0.05, estimator="lsl"),
}
SECONDS = 0.2
SEED = 3

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_metrics_printed() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for name, spec in TINY.items():
            stream = io.StringIO()
            final = run.report(run.run_workload(name, spec, SEED, SECONDS, trace), stream)
            lines = stream.getvalue().splitlines()
            where = f"{name} trace={int(trace)}"
            expect(json.loads(lines[-1]) == final, f"{where}: last line is not the result")
            expect(set(final) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(final)}")
            expect(final["correct"] and final["failed"] == 0, f"{where}: {final}")
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            expect(got == expected, f"{where}: metrics {got} != {expected}")
            for metric, unit in expected.items():
                expect(any(line.split()[:1] == [metric] and f" {unit} " in line for line in lines),
                       f"{where}: no table line for {metric} in {unit}")
            expect(any(line.split()[:1] == ["fail_frac"] for line in lines),
                   f"{where}: no fail_frac line")


def check_suboptimal_solver_is_caught() -> None:
    import permatch.estimators as estimators
    from permatch.assignment import AssignmentSolution
    from permatch.model import Permutation

    honest = estimators.solve_hungarian

    def suboptimal(cost):
        mapping = honest(cost).assignment.map.copy()
        mapping[[0, 1]] = mapping[[1, 0]]
        return AssignmentSolution(Permutation(mapping, codomain=cost.m), 0.0)

    estimators.solve_hungarian = suboptimal
    try:
        for name, spec in TINY.items():
            result = run.run_workload(name, spec, SEED, SECONDS, False)
            final = run.report(result, io.StringIO())
            expect(final["failed"] >= 1 and not final["correct"],
                   f"{name}: suboptimal solver not counted as a failure: {final}")
    finally:
        estimators.solve_hungarian = honest


def check_traced_equals_untraced() -> None:
    from permatch import cli

    name, spec = "tiny-sweep", TINY["tiny-sweep"]
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(name, spec, SEED, workdir)
        op = run.Operation(spec, inputs.files[0], workdir / "out.csv")
        _, problems, plain = op(cli.main)
        tracer = Tracer()
        with tracer:
            _, traced_problems, traced = op(tracer.span("cli.main", cli.main))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(not problems and not traced_problems, f"sweep failed: {problems + traced_problems}")
    expect(plain and plain == traced, "traced and untraced summaries differ")
    expect(tracer.count("assignment.solve") > 0 and not tracer.missing,
           f"tracing recorded no solver spans (missing: {tracer.missing})")


def main() -> int:
    if not (run.SRC / "permatch" / "__init__.py").is_file():
        print(f"error: no permatch sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    for check in (check_metrics_printed, check_suboptimal_solver_is_caught,
                  check_traced_equals_untraced):
        before = len(failures)
        check()
        print(f"{'ok  ' if len(failures) == before else 'FAIL'} {check.__name__}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
