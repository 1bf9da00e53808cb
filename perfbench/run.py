"""permatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload homo-n50 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``src/permatch`` and
drives it through ``permatch.cli.main`` in process, as one closed-loop
client.  A run writes its inputs, warms up each distinct operation once,
times rounds of operations for ``--seconds``, measures set-up in fresh
interpreters, then repeats each operation under capture and checks it.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer
metrics.  It prints a metric table, a manifest line and, last, one JSON
result.  Workloads, metrics and predictions are described in
perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer
from speed import REFERENCE_SPIN_S, Clock
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

# A fresh interpreter: import the package, parse the inputs, say so.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import permatch
from permatch import cli, model
kind, *paths = sys.argv[2:]
if kind == "sweep":
    cli.config_from_mapping(cli.parse_config_file(paths[0]))
else:
    model.load_instance_csv(*paths)
print("ready", flush=True)
"""


class Operation:
    """One call of ``permatch.cli.main`` on one set of input files."""

    def __init__(self, spec, files, out: Path):
        self.out = out
        files = [str(p) for p in files]
        if spec.kind == "sweep":
            self.argv = ["experiment", files[0], "--out", str(out)]
        else:
            self.argv = ["match", *files, "--estimator", spec.estimator, "--out", str(out)]

    def __call__(self, main) -> tuple[float, list[str], bytes]:
        """(seconds from the call until the output file is written, problems, output)."""
        self.out.unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = main(self.argv)
            except Exception as exc:  # a raising operation is a failed one, not a failed run
                return time.perf_counter() - start, [f"raised {exc!r}"], b""
            elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, [f"exit code {code}: {sink.getvalue().strip()}"], b""
        if not self.out.is_file():
            return elapsed, ["no output file written"], b""
        return elapsed, [], self.out.read_bytes()


class Outcome:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_workload(name: str, spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its metrics, outcome and manifest."""
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, spec, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass


def _run(name, spec, seed, seconds, trace, workdir) -> dict:
    inputs = write_inputs(name, spec, seed, workdir)
    from permatch import cli, harness

    ops = [Operation(spec, files, workdir / f"out-{k}.csv") for k, files in enumerate(inputs.files)]
    outcome = Outcome()
    references = []  # warm-up outputs; every later output of the same operation must equal it
    for op in ops:
        _, problems, data = op(cli.main)
        outcome.record(problems)
        references.append(data)

    tracer = Tracer()
    clock = None if trace else Clock(spec.shape)  # traced runs report shares, not speeds
    untraced, traced, rescaled = [], [], []
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        k = i % len(ops)
        is_traced = trace and len(untraced) > len(traced)
        if is_traced:
            with tracer:
                elapsed, problems, data = ops[k](tracer.span("cli.main", cli.main))
        else:
            elapsed, problems, data = ops[k](cli.main)
            if clock:
                rescaled.append(clock.rescale(elapsed))
        if not problems and data != references[k]:
            problems = [f"{'traced ' if is_traced else ''}output differs from the warm-up output"]
        outcome.record(problems)
        (traced if is_traced else untraced).append(elapsed)
        # stop after whole rounds, so that every operation is timed equally often
        if time.perf_counter() >= deadline and k == len(ops) - 1 and (traced or not trace):
            break
    rss_mb = _peak_rss_mb()  # before anything but the workload has run in this process

    setup = [_setup_seconds(spec, inputs) for _ in range(0 if trace else SETUP_PROBES)]

    import checks  # scipy is loaded only after the timed part

    capture = Tracer(capture=True)
    accuracy = None
    for op, reference in zip(ops, references):
        capture.estimates.clear()
        with capture:
            _, problems, data = op(cli.main)
        if not problems and data != reference:
            problems = ["checked output differs from the warm-up output"]
        if not problems and spec.kind == "sweep":
            problems = checks.check_summary(op.out, spec, harness.read_summary_csv)
            problems += checks.check_estimates(capture.estimates)
        elif not problems:
            problems, accuracy = checks.check_match(data.decode(), inputs, spec.estimator)
        outcome.record(problems)

    result = {
        "outcome": outcome,
        "accuracy": accuracy,
        "manifest": _manifest(name, spec, seed, seconds, trace, inputs),
        "missing_spans": capture.missing,
    }
    rss = (rss_mb, "MB", 1)
    if trace:
        checked = len(ops) * spec.trials_per_op
        ref = (1e3 * checks.reference_solve_s(capture.solves) / checked, "ms", checked)
        result["metrics"] = _layer_metrics(spec, tracer, untraced, traced, ref, rss)
    else:
        result["metrics"] = _end_to_end_metrics(spec, rescaled, setup)
        result["wall"] = _end_to_end_metrics(spec, untraced, setup)
        result["rss"] = rss
        result["slowdown"] = statistics.median(clock.spins) / REFERENCE_SPIN_S
    return result


def _end_to_end_metrics(spec, times, setup) -> dict:
    n = len(times)
    return {
        "trials_per_s": (n * spec.trials_per_op / sum(times), "1/s", n),
        "match_ms_p50": (1e3 * statistics.median(times) / spec.trials_per_op, "ms", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def _layer_metrics(spec, tracer: Tracer, untraced, traced, ref_solve, rss) -> dict:
    ops = len(traced)
    trials = ops * spec.trials_per_op
    traced_ms = 1e3 * sum(traced)
    solve_ms = [1e3 * s for s in tracer.solve_call_s] or [0.0]
    cost_s = tracer.self_s.get("estimators.cost", 0.0)

    def per_trial(key):
        return (tracer.key_ms(key) / trials, "ms", trials)

    def per_op(key):
        return (tracer.key_ms(key) / ops, "ms", ops)

    metrics = {
        "model.build_ms": per_trial("model.build"),
        "model.draw_ms": per_trial("model.draw"),
        "model.read_csv_ms": per_trial("model.read_csv"),
        "metrics.separation_ms": per_trial("metrics.separation"),
        "metrics.loss_ms": per_trial("metrics.loss"),
        "estimators.cost_ms": per_trial("estimators.cost"),
        "estimators.greedy_ms": per_trial("estimators.greedy"),
        "estimators.calls": (tracer.count("estimators.cost", "estimators.greedy") / trials,
                             "count", trials),
        "estimators.cost_gflops": (tracer.cost_flops / cost_s / 1e9 if cost_s else 0.0,
                                   "GFLOP/s", tracer.count("estimators.cost")),
        "assignment.solve_ms": per_trial("assignment.solve"),
        "assignment.solve_call_ms_p50": (_quantile(solve_ms, 0.5), "ms", len(solve_ms)),
        "assignment.solve_call_ms_p90": (_quantile(solve_ms, 0.9), "ms", len(solve_ms)),
        "assignment.solve_calls": (tracer.count("assignment.solve") / trials, "count", trials),
        "assignment.ref_solve_ms": ref_solve,
        "harness.self_ms": per_trial("harness.run"),
        "harness.aggregate_ms": per_op("harness.aggregate"),
        "harness.emit_ms": per_op("harness.emit"),
        "cli.self_ms": per_op("cli.main"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (tracer.layer_ms(layer) / traced_ms, "frac", ops)
    metrics["peak_rss_mb"] = rss
    metrics["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac",
        f"{ops} traced vs {len(untraced)} untraced")
    return metrics


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_seconds(spec, inputs) -> float:
    """Fresh interpreter start until ``import permatch`` returned and inputs parsed."""
    argv = [sys.executable, "-c", _PROBE, str(SRC), spec.kind, *map(str, inputs.files[0])]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy bundles."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def _manifest(name, spec, seed, seconds, trace, inputs) -> dict:
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "config_seeds": inputs.config_seeds,
        "spec": spec.describe(),
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
    }


def report(result: dict, stream=sys.stdout) -> dict:
    """Print the table, the manifest and the final JSON line; return the JSON."""
    outcome = result["outcome"]
    m = result["manifest"]
    print(f"permatch benchmark: workload={m['workload']} seed={m['seed']} "
          f"seconds={m['seconds']} trace={m['trace']}", file=stream)
    wall = result.get("wall", {})
    table = dict(result["metrics"])
    if "rss" in result:  # printed, not gated: see perfbench/DESIGN.md
        table["peak_rss_mb"] = result["rss"]
    for name, (value, unit, samples) in table.items():
        line = f"  {name:<30} {value:<22.10g} {unit:<8} samples: {samples}"
        if name in wall and name != "setup_s":
            line += f"  (wall clock: {wall[name][0]:.6g} {unit})"
        print(line, file=stream)
    if "slowdown" in result:
        print(f"  machine slowdown vs reference (median spin / {REFERENCE_SPIN_S} s): "
              f"{result['slowdown']:.4f}", file=stream)
    fail_frac = outcome.failed / outcome.attempted
    print(f"  {'fail_frac':<30} {fail_frac:<22.10g} {'frac':<8} samples: "
          f"{outcome.attempted} operations, {outcome.failed} failed", file=stream)
    if result["accuracy"] is not None:
        print(f"  hamming accuracy vs planted truth (not gated): {result['accuracy']:.4f}",
              file=stream)
    print("  waiting time: none by construction (one closed-loop client, no queue)",
          file=stream)
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}", file=stream)
    if result["missing_spans"]:
        print(f"  not traced (missing): {', '.join(result['missing_spans'])}", file=stream)
    print("manifest " + json.dumps(m, sort_keys=True), file=stream)
    final = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }
    print(json.dumps(final), file=stream, flush=True)
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "permatch" / "__init__.py").is_file():
        print(f"error: no permatch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
