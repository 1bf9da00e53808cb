import os
import pathlib
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from permatch import (
    EstimatorKind,
    ExperimentConfig,
    SummaryRow,
    TrialRecord,
    aggregate,
    emit,
    estimate,
    loss_01,
    loss_hamming,
    run_experiment,
    trial_separation,
)
from permatch.harness import read_summary_csv


def _config(**overrides):
    base = dict(
        scenario="uniform-homoscedastic",
        n=8,
        d=6,
        sigma=1.0,
        sweep=(2.0, 4.0),
        trials=5,
        seed=11,
        estimators=(EstimatorKind("greedy"), EstimatorKind("lss")),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        _config(scenario="bogus")
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(sweep=())
    with pytest.raises(ValueError):
        _config(estimators=())
    with pytest.raises(ValueError):
        _config(scenario="identity-heteroscedastic", n=8, d=6)  # needs d == n
    with pytest.raises(ValueError):
        _config(scenario="greedy-adversarial", sweep=(0.0,))
    with pytest.raises(ValueError):
        _config(scenario="custom", sigma_levels=(1.0, 2.0))  # wrong length
    with pytest.raises(ValueError, match=r"sigma_levels must be positive and finite, got \[1.0, 0.0, "):
        _config(scenario="custom", sigma_levels=(1.0, 0.0) * 4)  # fails here, not at the first trial
    with pytest.raises(ValueError, match="read only by the custom scenario"):
        _config(sigma_levels=(5.0,) * 8)  # right length, but uniform-homoscedastic ignores it
    with pytest.raises(ValueError, match="high_count must be nonnegative"):
        _config(scenario="identity-heteroscedastic", n=8, d=8, high_count=-7)  # not the default
    with pytest.raises(ValueError, match="duplicate estimators"):
        _config(estimators=(EstimatorKind("lss"), EstimatorKind("lss")))
    with pytest.raises(ValueError, match="duplicate sweep values"):
        _config(sweep=(2.0, 4.0, 2.0))
    # bad sweep values fail at construction, before any trial runs
    with pytest.raises(ValueError, match="finite and nonnegative"):
        _config(sweep=(1.4, -1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        _config(sweep=(1.0, float("nan"), float("nan")))  # nan != nan slips past the duplicate check


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(scenario="identity-heteroscedastic", n=8, d=8, high_count=9), "high_count must be in (0, n], got 9"),
        (dict(scenario="threshold-check", sweep=(0.0, 1.0)),
         "threshold-check sweep values are threshold multiples and must be positive"),
    ],
)
def test_config_rejects_out_of_range_values(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _config(**overrides)


def test_high_count_default_scales_with_n():
    assert _config(n=50, d=50, scenario="identity-heteroscedastic").resolved_high_count == 2
    assert _config(n=200, d=200, scenario="identity-heteroscedastic").resolved_high_count == 10
    assert _config(high_count=7, n=50, d=50, scenario="identity-heteroscedastic").resolved_high_count == 7


# ----------------------------------------------------------------- experiment

def test_run_experiment_deterministic():
    config = _config()
    assert run_experiment(config) == run_experiment(config)


def test_distance_matrix_built_once_per_instance(monkeypatch):
    from permatch import model

    calls = []
    kernel = model.pairwise_sqdist

    def counting(second, first):
        calls.append(second.shape)
        return kernel(second, first)

    monkeypatch.setattr(model, "pairwise_sqdist", counting)
    kinds = tuple(EstimatorKind(tag) for tag in ("greedy", "lss", "lsns", "lsl"))
    config = _config(estimators=kinds)
    records = run_experiment(config)
    assert len(records) == len(config.sweep) * config.trials * len(kinds)
    assert len(calls) == len(config.sweep) * config.trials


def test_run_experiment_records_shape():
    config = _config()
    records = run_experiment(config)
    assert len(records) == len(config.sweep) * config.trials * len(config.estimators)
    for rec in records:
        assert 0.0 <= rec.loss_hamming <= 1.0
        assert rec.loss_01 in (0, 1)
        assert rec.loss_hamming <= rec.loss_01
    for sweep_index in range(len(config.sweep)):
        for trial in range(config.trials):
            assert trial_separation(config, sweep_index, trial).kappa_bar >= 0.0


def test_sweep_does_not_compute_separation(monkeypatch):
    from permatch import harness

    def no_separation(*args):
        raise AssertionError("separation ran during a sweep")

    monkeypatch.setattr(harness, "separation", no_separation)
    kinds = tuple(EstimatorKind(tag) for tag in ("greedy", "lss", "lsns", "lsl", "variance-greedy"))
    for scenario, overrides in (
        ("uniform-homoscedastic", {}),
        ("identity-heteroscedastic", dict(d=8)),
        ("threshold-check", {}),
        ("greedy-adversarial", dict(d=404, sweep=(2.5,))),
        ("custom", dict(sigma_levels=(1.0, 2.0) * 4)),
    ):
        config = _config(scenario=scenario, estimators=kinds, trials=2, **overrides)
        assert len(run_experiment(config)) == len(config.sweep) * config.trials * len(kinds)


def test_trial_separation_rejects_a_trial_outside_the_run():
    config = _config()
    for sweep_index, trial in ((2, 0), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="no trial"):
            trial_separation(config, sweep_index, trial)


def test_zero_noise_limit_gives_zero_loss():
    config = _config(sigma=1e-12, sweep=(3.0,), trials=1,
                     estimators=(EstimatorKind("greedy"), EstimatorKind("lss"),
                                 EstimatorKind("lsns"), EstimatorKind("lsl")))
    records = run_experiment(config)
    assert all(rec.loss_01 == 0 for rec in records)


def test_estimator_subsets_share_per_trial_draws():
    # removing an estimator must not shift any other estimator's records
    def records(tag, *tags):
        config = _config(estimators=tuple(EstimatorKind(t) for t in tags))
        return [(r.sweep_value, r.seed, r.global_index, r.loss_01, r.loss_hamming)
                for r in run_experiment(config) if r.estimator == tag]

    lss_only = records("lss", "lss")
    assert len(lss_only) == 10
    assert records("lss", "greedy", "lss") == lss_only
    # LSNS reuses LSS's solve on homoscedastic trials, whether or not LSS runs
    lsns_only = records("lsns", "lsns")
    assert len(lsns_only) == 10
    assert records("lsns", "lsns", "lss") == lsns_only
    assert records("lsns", "greedy", "lss", "lsns", "lsl") == lsns_only


_ALL_KINDS = tuple(EstimatorKind(tag) for tag in ("greedy", "lss", "lsns", "lsl", "variance-greedy"))


def _one_instance_at_a_time(config):
    """run_experiment's records, from an estimate loop that holds one instance at a time."""
    from permatch import harness

    records = []
    for index, value in enumerate(config.sweep):
        for trial in range(config.trials):
            instance = harness._build_trial(config, float(value), harness._trial_streams(config.seed, index, trial))
            for kind in config.estimators:
                estimated = estimate(instance, kind)
                records.append(TrialRecord(
                    float(value), kind.tag, config.seed, index * config.trials + trial,
                    loss_01(estimated, instance.truth), loss_hamming(estimated, instance.truth),
                ))
    return records


def _lockstep_stack_sizes(monkeypatch):
    """Record the size of each batch solve_together hands over that the lockstep solves."""
    from permatch import estimators

    sizes = []
    solve = estimators.solve_in_lockstep

    def counted(costs):
        solve(costs)
        if costs and all(cost._solution is not None for cost in costs):
            sizes.append(len(costs))

    monkeypatch.setattr(estimators, "solve_in_lockstep", counted)
    return sizes


def _greedy_stack_sizes(monkeypatch):
    """Record how many instances each greedy run holds: a solve-ahead batch, or one instance."""
    from permatch import estimators

    sizes = []
    rows = estimators._greedy_rows

    def counted(stack):
        sizes.append(len(stack))
        return rows(stack)

    monkeypatch.setattr(estimators, "_greedy_rows", counted)
    return sizes


# One small config override per scenario.
_SCENARIO_CASES = [
    ("uniform-homoscedastic", {}),
    ("identity-heteroscedastic", dict(d=8)),
    ("threshold-check", {}),
    ("greedy-adversarial", dict(d=404, sweep=(2.0, 2.5))),
    ("custom", dict(sigma_levels=(0.5, 1.0, 1.5, 2.0) * 2)),  # LSNS's own costs join the stack
]


@pytest.mark.parametrize("scenario, overrides", _SCENARIO_CASES)
def test_records_equal_one_instance_at_a_time(scenario, overrides, monkeypatch):
    sizes = _lockstep_stack_sizes(monkeypatch)
    greedy = _greedy_stack_sizes(monkeypatch)
    config = _config(scenario=scenario, estimators=_ALL_KINDS, trials=8, **overrides)
    records = run_experiment(config)
    assert sizes  # the sweep's assignments were solved in lockstep
    # greedy ran once on all 16 instances; variance-greedy runs per instance
    assert greedy == [16] + [1] * 16
    assert records == _one_instance_at_a_time(config)


# What one instance of _config(estimators=_ALL_KINDS) holds in solve_together:
# two 8 x 6 feature sets, 8 x 8 distances, their copy in greedy's stack and
# two distinct 8 x 8 costs (LSNS shares LSS's), each cost counted three
# times for the lockstep.
_INSTANCE_BYTES = 8 * (2 * 8 * 6 + 2 * 8 * 8 + 3 * 2 * 8 * 8)


def test_records_equal_one_instance_at_a_time_across_batches(monkeypatch):
    from permatch import estimators

    sizes = _lockstep_stack_sizes(monkeypatch)
    config = _config(estimators=_ALL_KINDS, trials=10)
    expected = _one_instance_at_a_time(config)
    greedy = _greedy_stack_sizes(monkeypatch)
    monkeypatch.setattr(estimators, "_BATCH_BYTES", 9 * _INSTANCE_BYTES)
    assert run_experiment(config) == expected
    # batches of 9, 9 and 2 instances with an LSS and an LSL cost each;
    # the last batch's 4 are solved one at a time
    assert sizes == [18, 18]
    # greedy runs once per batch, variance-greedy once per instance
    assert greedy == [9] + [1] * 9 + [9] + [1] * 9 + [2] + [1] * 2
    greedy.clear()
    monkeypatch.setattr(estimators, "_BATCH_BYTES", 1)
    assert run_experiment(config) == expected
    assert sizes == [18, 18]
    assert greedy == [1, 1] * 20


def test_solve_together_draws_no_instance_past_the_batch_it_yields(monkeypatch):
    from permatch import estimators, harness

    monkeypatch.setattr(estimators, "_BATCH_BYTES", 9 * _INSTANCE_BYTES)
    config = _config(estimators=_ALL_KINDS, trials=10)
    drawn = []

    def draws():
        for index, value in enumerate(config.sweep):
            for trial in range(config.trials):
                drawn.append((index, trial))
                yield harness._build_trial(config, value, harness._trial_streams(config.seed, index, trial))

    # how many instances had been drawn when each one was yielded
    assert [len(drawn) for _ in estimators.solve_together(draws(), config.estimators)] == [9] * 9 + [18] * 9 + [20] * 2


def test_solve_together_solves_the_held_batch_when_the_shape_changes(monkeypatch):
    # Ten 8-feature draws, then ten 9-feature draws: each shape's 20 LSS and
    # LSL costs go to the lockstep as a batch of their own.
    from permatch import estimators, harness

    sizes = _lockstep_stack_sizes(monkeypatch)
    kinds = (EstimatorKind("lss"), EstimatorKind("lsl"))

    def draws():
        for n in (8, 9):
            config = _config(n=n)
            for trial in range(10):
                yield harness._build_trial(config, 2.0, harness._trial_streams(config.seed, 0, trial))

    def records(instances):
        return [(estimate(instance, kind), instance.truth) for instance in instances for kind in kinds]

    assert records(estimators.solve_together(draws(), kinds)) == records(draws())
    assert sizes == [20, 20]


def test_distinct_seeds_share_no_trial():
    # A trial's realized template separation identifies its template draw.
    # Seeding each trial by seed XOR trial index would replay seed 0's
    # trials under seed 1 in another order.
    def separations(seed):
        config = _config(seed=seed, trials=4)
        reports = [(s, trial_separation(config, s, t)) for s in range(len(config.sweep)) for t in range(config.trials)]
        return {(config.sweep[s], r.kappa, r.kappa_bar) for s, r in reports}

    zero, one = separations(0), separations(1)
    assert len(zero) == len(one) == 8
    assert zero.isdisjoint(one)


def test_records_carry_seed_and_global_index():
    config = _config()
    records = run_experiment(config)
    per_trial = len(config.estimators)
    assert [rec.global_index for rec in records[::per_trial]] == list(range(len(config.sweep) * config.trials))
    assert all(rec.seed == config.seed for rec in records)


# ------------------------------------------------------ draws on a worker thread

_INLINE = 2**62  # a _PREFETCH_MIN no draw reaches


@pytest.mark.parametrize("scenario, overrides", _SCENARIO_CASES)
def test_draws_on_the_worker_give_the_inline_records_and_bytes(scenario, overrides, monkeypatch, tmp_path):
    from permatch import harness

    config = _config(scenario=scenario, estimators=_ALL_KINDS, trials=4, **overrides)
    threads = []  # the thread each draw ran on
    build = harness._build_trial

    def recorded(*args):
        threads.append(threading.get_ident())
        return build(*args)

    monkeypatch.setattr(harness, "_build_trial", recorded)
    outputs = []
    for gate in (_INLINE, 0):
        threads.clear()
        monkeypatch.setattr(harness, "_PREFETCH_MIN", gate)
        records = run_experiment(config)
        emit(aggregate(records), tmp_path / "summary.csv")
        outputs.append((records, (tmp_path / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    # with the gate at 0, trial 0 is drawn here and every later trial on one worker
    main = threading.get_ident()
    assert threads[0] == main
    assert len(set(threads[1:])) == 1 and main not in threads[1:]
    assert len(threads) == len(config.sweep) * config.trials


def _outcome(config):
    """(records, or the raised exception's type and message; the threads alive after the run).

    On a raise the threads are listed while the exception, whose traceback
    holds the run's frames, is still alive, as a caller that keeps it would.
    """
    try:
        return run_experiment(config), threading.enumerate()
    except Exception as exc:
        return (type(exc), str(exc)), threading.enumerate()


@pytest.mark.parametrize(
    "overrides",
    [
        # sigma * xi overflows in every draw, trial 0's included
        dict(scenario="custom", sigma=1e308),
        # trials at the second sweep value get non-finite templates: the
        # first raising draw is trial 2, which the worker draws
        dict(scenario="threshold-check", sweep=(1.0, 1e307), trials=2),
    ],
)
def test_a_raising_draw_raises_the_same_on_both_paths(overrides, monkeypatch):
    from permatch import harness

    config = _config(**overrides)
    before = threading.enumerate()
    outcomes = []
    for gate in (_INLINE, 0):
        monkeypatch.setattr(harness, "_PREFETCH_MIN", gate)
        outcomes.append(_outcome(config))
    assert isinstance(outcomes[0][0], tuple)  # it raised
    assert outcomes[0] == outcomes[1] == (outcomes[0][0], before)


def test_no_draw_thread_outlives_a_run(monkeypatch):
    from permatch import estimators, harness

    monkeypatch.setattr(harness, "_PREFETCH_MIN", 0)
    monkeypatch.setattr(estimators, "_BATCH_BYTES", 1)  # one instance per batch: each raise below is mid-run
    config = _config(trials=4)
    before = threading.enumerate()
    assert _outcome(config) == (run_experiment(config), before)

    def fail(*args):
        raise RuntimeError("solve failed")

    # a raise inside solve_together, and one in the loop over its instances
    for module, name in ((estimators, "solve_in_lockstep"), (harness, "estimate")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fail)
            assert _outcome(config) == ((RuntimeError, "solve failed"), before)


def test_a_desk_run_starts_no_thread(monkeypatch):
    from permatch import harness

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    config = _config(n=50, d=50, trials=2)
    run_experiment(config)
    monkeypatch.setattr(harness, "_PREFETCH_MIN", 0)
    with pytest.raises(AssertionError, match="a thread was started"):
        run_experiment(config)


def test_import_does_not_load_the_thread_pool():
    # concurrent.futures costs milliseconds to import; only a wide run needs it
    from permatch import harness

    src = str(pathlib.Path(harness.__file__).resolve().parents[1])
    code = "import sys, permatch; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


def test_threshold_check_scenario_pins_relative_separation():
    from permatch import separation_threshold

    config = _config(
        scenario="threshold-check", n=10, d=10, sigma=2.0, alpha=0.1,
        sweep=(1.0,), trials=2,
        estimators=(EstimatorKind("lss"),),
    )
    assert len(run_experiment(config)) == 2
    target = separation_threshold(0.1, 10, 10, 2.0) / 2.0
    for trial in range(config.trials):
        assert trial_separation(config, 0, trial).kappa_bar == pytest.approx(target, rel=1e-9)


def test_greedy_adversarial_scenario_runs():
    config = _config(
        scenario="greedy-adversarial", d=404, sweep=(2.5,), trials=3,
        estimators=(EstimatorKind("greedy"), EstimatorKind("lsl")),
    )
    records = run_experiment(config)
    assert len(records) == 6
    assert all(trial_separation(config, 0, t).kappa_bar == pytest.approx(2.5) for t in range(config.trials))


# One trial per scenario: (scenario, config overrides, sweep index, trial,
# kappa as float.hex, kappa_bar as float.hex).
_SEPARATION_PINS = [
    ("uniform-homoscedastic", dict(n=8, d=6, sweep=(2.0, 4.0)), 1, 1,
     "0x1.baa808d60e6acp+0", "0x1.39015d66db74ap+0"),
    ("identity-heteroscedastic", dict(n=12, d=12, sweep=(6.0,)), 0, 1,
     "0x1.0f876ccdf6cd9p+3", "0x1.7ffffffffffffp+2"),
    ("threshold-check", dict(n=10, d=10, sigma=2.0, sweep=(1.0,)), 0, 1,
     "0x1.7fba0d7cbef28p+5", "0x1.0f55f6fcec5bdp+4"),
    ("greedy-adversarial", dict(d=404, sweep=(2.5,)), 0, 1,
     "0x1.4000000000000p+2", "0x1.4000000000001p+1"),
    ("custom", dict(n=8, d=6, sigma_levels=(0.5, 1.0, 1.5, 2.0) * 2, sweep=(3.0,)), 0, 1,
     "0x1.7c077b3f9d923p+0", "0x1.664b8462e269ap-1"),
]


@pytest.mark.parametrize("scenario, overrides, sweep_index, trial, kappa, kappa_bar", _SEPARATION_PINS,
                         ids=[pin[0] for pin in _SEPARATION_PINS])
def test_realized_separation_is_pinned(scenario, overrides, sweep_index, trial, kappa, kappa_bar):
    config = ExperimentConfig(scenario=scenario, trials=2, seed=11,
                              estimators=(EstimatorKind("lss"),), **overrides)
    report = trial_separation(config, sweep_index, trial)
    assert (float.hex(report.kappa), float.hex(report.kappa_bar)) == (kappa, kappa_bar)


def test_identity_heteroscedastic_scenario_runs():
    config = _config(
        scenario="identity-heteroscedastic", n=12, d=12, sweep=(6.0,), trials=2,
        estimators=(EstimatorKind("lsns"), EstimatorKind("lsl")),
    )
    records = run_experiment(config)
    assert len(records) == 4


# ---------------------------------------------------------------- aggregation

def test_aggregate_single_record_conventions():
    records = run_experiment(_config(sweep=(2.0,), trials=1, estimators=(EstimatorKind("lss"),)))
    summary = aggregate(records)
    assert len(summary) == 1
    row = summary[0]
    assert row.trials == 1
    assert row.mean_hamming == records[0].loss_hamming
    assert row.se_hamming == 0.0 and row.se_01 == 0.0


def test_aggregate_two_values():
    recs = run_experiment(_config(sweep=(2.0,), trials=2, estimators=(EstimatorKind("lss"),)))
    a, b = recs
    object.__setattr__(a, "loss_01", 0)  # force a 0/1 split regardless of draw
    object.__setattr__(b, "loss_01", 1)
    row = aggregate([a, b])[0]
    assert row.mean_01 == 0.5
    assert row.trials == 2


def test_aggregate_matches_batch_recomputation():
    records = run_experiment(_config(trials=25))
    summary = aggregate(records)
    for row in summary:
        sel = [r for r in records if r.sweep_value == row.sweep_value and r.estimator == row.estimator]
        hams = np.array([r.loss_hamming for r in sel])
        zos = np.array([float(r.loss_01) for r in sel])
        assert row.trials == len(sel)
        assert row.mean_hamming == pytest.approx(hams.mean(), rel=1e-12, abs=1e-15)
        assert row.mean_01 == pytest.approx(zos.mean(), rel=1e-12, abs=1e-15)
        assert row.se_hamming == pytest.approx(hams.std(ddof=1) / np.sqrt(len(sel)), rel=1e-9, abs=1e-15)
        assert row.se_01 == pytest.approx(zos.std(ddof=1) / np.sqrt(len(sel)), rel=1e-9, abs=1e-15)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


# -------------------------------------------------------------------- emission

def test_emit_empty_summary_rejected(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit([], target)
    assert not target.exists()


def test_emit_unknown_format_rejected(tmp_path):
    row = SummaryRow(1.0, "lss", 0.0, 0.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        emit([row], tmp_path / "x.bin", fmt="parquet")


def test_emit_single_row_csv(tmp_path):
    row = SummaryRow(1.5, "lsl", 0.25, 0.1, 0.125, 0.05, 4)
    path = tmp_path / "one.csv"
    emit([row], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sweep_value,estimator,mean_01,se_01,mean_hamming,se_hamming,trials"
    assert len(lines) == 2


def test_emit_csv_roundtrip_full_precision(tmp_path):
    records = run_experiment(_config(trials=7))
    summary = aggregate(records)
    path = tmp_path / "summary.csv"
    emit(summary, path)
    assert read_summary_csv(path) == summary


@pytest.mark.parametrize(
    "text",
    [
        "estimator,sweep_value,mean_01,se_01,mean_hamming,se_hamming,trials\nlss,1.0,0.0,0.0,0.0,0.0,1\n",
        "sweep_value,estimator,mean_01,se_01,mean_hamming,se_hamming,trials\n1.0,lss,0.0,0.0,0.0,0.0\n",
    ],
    ids=["swapped-header", "short-row"],
)
def test_read_summary_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "summary.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_summary_csv(path)


def test_emit_svg_structure(tmp_path):
    records = run_experiment(_config())
    summary = aggregate(records)
    path = tmp_path / "plot.svg"
    emit(summary, path, fmt="svg-plot", xlabel="tau")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2  # one per estimator
    labels = [el.text for el in root.findall(f"{ns}text")]
    assert "tau" in labels
    assert "mean Hamming error" in labels


def test_emit_io_error_carries_path():
    row = SummaryRow(1.0, "lss", 0.0, 0.0, 0.0, 0.0, 1)
    with pytest.raises(OSError, match="no/such/dir"):
        emit([row], "no/such/dir/out.csv")
