"""The benchmark's tracer wraps permatch functions by module and name
(``perfbench/spans.py``); a rename or an inlined function would silently
drop a layer from its per-layer report.  Its optimality check and its
self-test see every assignment result through ``estimators.solve_hungarian``,
so that name must stay on the path of every result."""

import importlib
import importlib.util
from pathlib import Path

from permatch import AssignmentSolution, EstimatorKind, ExperimentConfig, Permutation, run_experiment

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    missing = [
        f"{module}.{attr}"
        for module, attr, _key in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_sweep_result_passes_through_solve_hungarian(monkeypatch):
    # A sweep deep enough to solve in lockstep still hands each result to
    # estimators.solve_hungarian: a solver swapped there changes its records.
    from permatch import estimators

    config = ExperimentConfig(
        scenario="uniform-homoscedastic", n=8, d=6, sigma=0.05, sweep=(2.0, 4.0), trials=10, seed=11,
        estimators=tuple(EstimatorKind(tag) for tag in ("lss", "lsns", "lsl")),
    )
    honest_records = run_experiment(config)
    assert all(record.loss_01 == 0 for record in honest_records)

    stacks = []
    solve_in_lockstep = estimators.solve_in_lockstep

    def counted(costs):
        solve_in_lockstep(costs)
        if all(cost._solution is not None for cost in costs):  # the lockstep solved the batch
            stacks.append(len(costs))

    monkeypatch.setattr(estimators, "solve_in_lockstep", counted)
    honest = estimators.solve_hungarian

    def suboptimal(cost):
        mapping = honest(cost).assignment.map.copy()
        mapping[[0, 1]] = mapping[[1, 0]]
        return AssignmentSolution(Permutation(mapping, codomain=cost.m), 0.0)

    monkeypatch.setattr(estimators, "solve_hungarian", suboptimal)
    swapped = run_experiment(config)
    assert stacks == [40]
    assert len(swapped) == len(honest_records)
    assert all(record.loss_hamming == 2 / 8 for record in swapped)
