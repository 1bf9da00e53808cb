"""The benchmark's tracer wraps permatch functions by module and name
(``perfbench/spans.py``); a rename or an inlined function would silently
drop a layer from its per-layer report.  Its optimality check and its
self-test see every assignment result through ``estimators.solve_hungarian``,
so that name must stay on the path of every result.  The match workload's
feature files must take ``read_features_csv``'s one-call parse, or its
timings measure the row-by-row fallback instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from permatch import AssignmentSolution, EstimatorKind, ExperimentConfig, Permutation, model, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = _load("spans")
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


def test_match_inputs_take_the_one_call_parse(tmp_path, monkeypatch):
    features = np.random.default_rng(5).standard_normal((7, 3)) * 10.0 ** np.arange(-3, 4)[:, None]
    path = tmp_path / "features.csv"
    _load("workloads")._write_features(path, features)
    load_body, tables = model._load_body, []

    def spy(body, ncols):
        tables.append(load_body(body, ncols))
        return tables[-1]

    monkeypatch.setattr(model, "_load_body", spy)
    read, noise = model.read_features_csv(path)
    assert len(tables) == 1 and tables[0] is not None
    assert noise is None
    assert read.vectors.tobytes() == features.tobytes()
