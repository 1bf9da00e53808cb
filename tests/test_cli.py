import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from permatch import (
    ESTIMATOR_NAMES,
    LSL,
    FeatureSet,
    NoiseSpec,
    estimate,
    generate_instance,
    load_instance_csv,
    random_permutation,
    uniform_box_features,
    write_features_csv,
)
from permatch import cli
from permatch.cli import config_from_mapping, entrypoint, main, parse_config_file


@pytest.fixture()
def instance_files(tmp_path):
    theta = uniform_box_features(6, 4, 3.0, seed=2)
    truth = random_permutation(np.random.default_rng(1), 6)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(0.2), truth, seed=7)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_features_csv(first, inst.first, inst.first_noise)
    write_features_csv(second, inst.second, inst.second_noise)
    return first, second, truth


def test_match_writes_one_based_permutation(instance_files, tmp_path):
    first, second, truth = instance_files
    out = tmp_path / "match.csv"
    code = main(["match", str(first), str(second), "--estimator", "lsl", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,pi_i"
    expected = estimate(load_instance_csv(first, second), LSL)
    got = [int(line.split(",")[1]) - 1 for line in lines[1:]]
    assert got == expected.map.tolist()
    assert got == truth.map.tolist()  # low noise: the estimate is the truth


def test_match_to_stdout(instance_files, capsys):
    first, second, _ = instance_files
    assert main(["match", str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("i,pi_i")


def test_match_missing_file_is_io_error(tmp_path, capsys):
    code = main(["match", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")])
    assert code == 2


def test_match_lsns_without_sigma_is_validation_error(tmp_path, capsys):
    theta = uniform_box_features(3, 2, 1.0, seed=0)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_features_csv(first, theta)
    write_features_csv(second, theta)
    code = main(["match", str(first), str(second), "--estimator", "lsns"])
    assert code == 1
    assert "noise" in capsys.readouterr().err


def test_match_bad_token_names_file_and_line(instance_files, tmp_path, capsys):
    first, _, _ = instance_files
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x1,x2,x3,x4\n1,0.5,0.5,0.5,0.5\n2,0.5,abc,0.5,0.5\n")
    assert main(["match", str(first), str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: could not convert string to float: 'abc'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty file, expected a header row"),
        ("id,x1,x3\n1,0.5,0.5\n", "{path}: header must be id,x1,x2, got id,x1,x3"),
        ("id,x1,x2\n1,0.5,0.5\n2,0.5\n", "{path}:3: expected 3 columns, got 2"),
        ("id,x1,x2\n", "{path}: no feature rows"),
    ],
    ids=["empty", "bad-header", "short-row", "header-only"],
)
def test_match_rejects_malformed_second_file(text, message, tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_features_csv(first, uniform_box_features(3, 2, 1.0, seed=0))
    second.write_text(text)
    assert main(["match", str(first), str(second)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=second)}\n"


def test_match_skips_blank_lines(instance_files, tmp_path, capsys):
    first, second, _ = instance_files
    assert main(["match", str(first), str(second)]) == 0
    expected = capsys.readouterr().out
    lines = second.read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
    assert main(["match", str(first), str(spaced)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
def test_match_overflowing_distances_is_named(estimator, tmp_path, capsys):
    # (1e200 - -1e200)^2 overflows float64: the error names the overflow,
    # not a symptom of it downstream, and no numpy warning escapes.  The
    # sigma column lets lsns and variance-greedy reach the distances too.
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    noise = NoiseSpec.homoscedastic(1.0)
    write_features_csv(first, FeatureSet(np.array([[0.0], [1e200]])), noise)
    write_features_csv(second, FeatureSet(np.array([[0.0], [-1e200]])), noise)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["match", str(first), str(second), "--estimator", estimator]) == 1
    assert capsys.readouterr().err == "error: squared distances overflow float64; rescale the features\n"


_MATCH_NEEDS_LEVELS = {
    "lsns": "this estimator needs known noise levels on both sides",
    "variance-greedy": "variance-greedy needs known first-set noise levels",
}


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
@pytest.mark.parametrize("name", ["match-60x60-sigma", "match-70into90"])
def test_match_output_is_byte_identical_to_pinned_csv(name, estimator, tmp_path, capsys):
    # Seeded instances written by write_features_csv: 60 x 60 at d = 16 with
    # per-feature levels in a sigma column, and 70 into 90 at d = 32 without
    # one, where the estimators that need levels fail with a named error.
    data = pathlib.Path(__file__).resolve().parent / "data"
    out = tmp_path / "match.csv"
    code = main(["match", str(data / f"{name}-first.csv"), str(data / f"{name}-second.csv"),
                 "--estimator", estimator, "--out", str(out)])
    if name == "match-70into90" and estimator in _MATCH_NEEDS_LEVELS:
        assert code == 1
        assert capsys.readouterr().err == f"error: {_MATCH_NEEDS_LEVELS[estimator]}\n"
        return
    assert code == 0
    assert out.read_bytes() == (data / f"{name}-{estimator}.csv").read_bytes()


def test_bad_estimator_flag_is_validation_error(instance_files):
    first, second, _ = instance_files
    assert main(["match", str(first), str(second), "--estimator", "nearest"]) == 1


def test_config_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
        # a tiny sweep
        scenario = uniform-homoscedastic
        n = 6
        d = 4
        sigma = 0.5
        sweep = 2.0, 3.0   # two points
        trials = 2
        seed = 5
        estimators = greedy, lss
        """
    )
    mapping = parse_config_file(cfg)
    config = config_from_mapping(mapping)
    assert config.n == 6 and config.d == 4
    assert config.sweep == (2.0, 3.0)
    assert tuple(k.tag for k in config.estimators) == ("greedy", "lss")


def test_config_every_key_parses_to_its_field_type():
    # one value for each ExperimentConfig field, as text from a config file
    config = config_from_mapping(
        {
            "scenario": "custom",
            "n": "3",
            "d": "7",
            "sigma": "0.25",
            "sigma_high": "2.5",
            "sigma_low": "0.125",
            "high_count": "4",
            "alpha": "0.05",
            "sigma_levels": "1, 2.0, 3",
            "sweep": "1.5, 2.5,",
            "trials": "11",
            "seed": "13",
            "estimators": " LSS , greedy,lsl",
        }
    )
    assert config.scenario == "custom"
    assert (config.n, config.d, config.high_count, config.trials, config.seed) == (3, 7, 4, 11, 13)
    assert all(type(v) is int for v in (config.n, config.d, config.high_count, config.trials, config.seed))
    assert (config.sigma, config.sigma_high, config.sigma_low, config.alpha) == (0.25, 2.5, 0.125, 0.05)
    assert all(type(v) is float for v in (config.sigma, config.sigma_high, config.sigma_low, config.alpha))
    assert config.sigma_levels == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in config.sigma_levels)
    assert config.sweep == (1.5, 2.5)  # a blank part is skipped
    assert tuple(k.tag for k in config.estimators) == ("lss", "greedy", "lsl")


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = custom\nsweep = 1.0\nbogus = 3\n")
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


def test_config_sigma_levels_outside_custom_rejected(tmp_path, capsys):
    # uniform-homoscedastic never reads the key, so it must not run at sigma
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = uniform-homoscedastic\nn = 6\nd = 4\nsigma_levels = 5, 5, 5, 5, 5, 5\n"
        "sweep = 2.0\ntrials = 3\nestimators = lss\n"
    )
    out = tmp_path / "o.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: sigma_levels is read only by the custom scenario\n"
    assert not out.exists()


def test_config_missing_equals_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario uniform-homoscedastic\n")
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


def test_config_duplicate_key_rejected(tmp_path, capsys):
    # a repeat used to replace the first value silently, dropping tau = 1.0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = uniform-homoscedastic\nn = 6\nd = 4\ntrials = 2\n"
        "sweep = 1.0\nsweep = 2.0, 3.0\n"
    )
    out = tmp_path / "o.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}:6: duplicate key 'sweep'" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_csv_and_svg(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = 2.0, 4.0\n"
        "trials = 3\nseed = 9\nestimators = greedy, lsl\n"
    )
    out_csv = tmp_path / "summary.csv"
    assert main(["experiment", str(cfg), "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "sweep_value,estimator,mean_01,se_01,mean_hamming,se_hamming,trials"

    out_svg = tmp_path / "summary.svg"
    assert main(["experiment", str(cfg), "--out", str(out_svg), "--format", "svg-plot"]) == 0
    assert out_svg.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "body, label",
    [
        ("scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = 2.0\n", "tau"),
        ("scenario = threshold-check\nn = 6\nd = 4\nsweep = 1.0\n", "threshold multiple"),
        ("scenario = greedy-adversarial\nd = 500\nsweep = 1.0\n", "kappa"),
    ],
)
def test_svg_axis_names_the_sweep(body, label, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body + "trials = 1\nestimators = lss\n")
    out = tmp_path / "plot.svg"
    assert main(["experiment", str(cfg), "--out", str(out), "--format", "svg-plot"]) == 0
    assert f'font-size="14">{label}</text>' in out.read_text()


def test_experiment_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = 2.0\n"
        "trials = 2\nseed = 9\nestimators = lss\n"
    )
    out = tmp_path / "s.csv"
    assert main(["experiment", str(cfg), "--out", str(out), "--trials", "4", "--seed", "1"]) == 0
    assert out.read_text().strip().splitlines()[1].endswith(",4")  # trials column


def test_repeated_main_calls_share_no_parse_state(tmp_path, capsys):
    # main keeps one parser for the process; each call parses afresh.
    from permatch import harness

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = 2.0, 3.0\n"
        "trials = 3\nseed = 9\nestimators = greedy, lss\n"
    )
    out, fresh = tmp_path / "s.csv", tmp_path / "fresh.csv"
    config = config_from_mapping(parse_config_file(cfg))
    harness.emit(harness.aggregate(harness.run_experiment(config)), fresh)
    assert main(["experiment", str(cfg), "--out", str(out), "--trials", "2", "--seed", "5"]) == 0
    assert out.read_text().splitlines()[1].endswith(",2")
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0  # the config's own trials and seed
    assert out.read_bytes() == fresh.read_bytes()
    assert main(["experiment", str(cfg), "--out", str(out), "--trails", "2"]) == 1
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert main(["rates", "--n", "200", "--d", "200", "--alpha", "0.05"]) == 0
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --trails 2\n"


def test_bad_sweep_value_fails_before_any_trial(tmp_path, monkeypatch):
    from permatch import harness

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_build_trial", no_trials)
    for sweep in ("1.4, -1", "1.0, nan, nan"):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = {sweep}\ntrials = 30\n")
        assert main(["experiment", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


@pytest.mark.parametrize(
    "body, message",
    [
        ("scenario = greedy-adversarial\nd = 0\n", "d must be at least 1, got 0"),
        ("scenario = greedy-adversarial\nn = 1\nd = 500\n", "n must be at least 2, got 1"),
        ("scenario = uniform-homoscedastic\nd = -1\n", "d must be at least 1, got -1"),
        ("scenario = uniform-homoscedastic\nn = -2\n", "n must be at least 2, got -2"),
        ("scenario = uniform-homoscedastic\nn = 1\n", "n must be at least 2, got 1"),
    ],
)
def test_experiment_rejects_bad_sizes_before_any_trial(body, message, tmp_path, monkeypatch, capsys):
    from permatch import harness

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_build_trial", no_trials)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body + "sweep = 1.0\ntrials = 1\n")
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "scenario, body, key",
    [
        ("uniform-homoscedastic", "n = 6\nsigma_high = 50\n", "sigma_high"),
        ("uniform-homoscedastic", "n = 6\nalpha = 0.9\n", "alpha"),
        ("uniform-homoscedastic", "n = 6\nhigh_count = 3\n", "high_count"),
        ("uniform-homoscedastic", "n = 6\nsigma_low = 7\n", "sigma_low"),
        ("identity-heteroscedastic", "n = 6\nd = 6\nsigma = 2\n", "sigma"),
        ("greedy-adversarial", "d = 500\nsigma = 9\n", "sigma"),
        ("greedy-adversarial", "d = 500\nn = 77\n", "n"),
        ("threshold-check", "n = 6\nsigma_high = 50\n", "sigma_high"),
        ("custom", "n = 6\nsigma = 1\nsigma_levels = 1, 2, 3, 4, 5, 6\n", "sigma"),
    ],
    ids=[
        "uniform-sigma_high", "uniform-alpha", "uniform-high_count", "uniform-sigma_low", "identity-sigma",
        "adversarial-sigma", "adversarial-n", "threshold-sigma_high", "custom-sigma-and-levels",
    ],
)
def test_experiment_rejects_keys_the_scenario_does_not_read(scenario, body, key, tmp_path, monkeypatch, capsys):
    # a key the scenario's trials never read would leave the summary unchanged
    from permatch import harness

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_build_trial", no_trials)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"scenario = {scenario}\n{body}sweep = 1.0\ntrials = 1\nestimators = lss\n")
    out = tmp_path / "o.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key} is not read by the {scenario} scenario\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["homoscedastic", "heteroscedastic"])
def test_desk_summary_is_byte_identical_to_pinned_csv(name, tmp_path):
    # A fixed (config, seed) yields a byte-identical summary.  A change that
    # alters the random stream on purpose regenerates tests/data/ with the
    # same command.
    root = pathlib.Path(__file__).resolve().parent
    out = tmp_path / "summary.csv"
    cfg = root.parent / "configs" / f"{name}-desk.cfg"
    assert main(["experiment", str(cfg), "--out", str(out), "--trials", "8", "--seed", "11"]) == 0
    assert out.read_bytes() == (root / "data" / f"{name}-desk-trials8-seed11.csv").read_bytes()


@pytest.mark.parametrize("name, seed", [("homoscedastic", 1202), ("heteroscedastic", 909)])
def test_full_summary_is_byte_identical_to_pinned_csv(name, seed, tmp_path):
    # Trial t of sweep value i draws from SeedSequence([seed, i, t]) whatever
    # the trial count, so two trials at the config's own seed replay the first
    # two trials of each sweep value of the full n = d = 200 run.
    root = pathlib.Path(__file__).resolve().parent
    out = tmp_path / "summary.csv"
    cfg = root.parent / "configs" / f"{name}-full.cfg"
    assert f"seed = {seed}\n" in cfg.read_text()
    assert main(["experiment", str(cfg), "--out", str(out), "--trials", "2"]) == 0
    assert out.read_bytes() == (root / "data" / f"{name}-full-trials2-seed{seed}.csv").read_bytes()


def test_experiment_output_io_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = uniform-homoscedastic\nn = 6\nd = 4\nsweep = 2.0\ntrials = 1\nestimators = lss\n")
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "missing" / "s.csv")]) == 2


def test_packing_command(tmp_path, capsys):
    out = tmp_path / "packing.csv"
    code = main(["packing", "--n", "5", "--radius", "2", "--eps", "0.25", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "size=57" in printed
    assert "exhaustive=True" in printed
    assert len(out.read_text().strip().splitlines()) == 57


def test_rates_command(capsys):
    assert main(["rates", "--n", "200", "--d", "200", "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "29.59" in out  # recovery threshold for these parameters
    assert "separation rate" in out


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_rates_rejects_non_finite_sigma(sigma, capsys):
    assert main(["rates", "--n", "50", "--d", "10", "--sigma", sigma]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sigma and d must be positive and finite\n"


_LONG = "a" * 200_000  # longer than the csv module's field limit of 131072
_SWAPPED = "i,pi_i\n1,2\n2,1\n"  # {first} is rows 0.0, 1.0; each second file below is 1.0, 0.0
_BOUND = f"{'mismatch bound at conservative threshold':<42}0.05\n"


@pytest.mark.parametrize(
    "argv, text, code, expected",
    [
        ("match {first} {second}", 'id,x1\n"a\nb",1.0\n2,abc\n', 1,
         "error: {second}:4: could not convert string to float: 'abc'\n"),
        ("match {first} {second}", f'id,"{_LONG}"\n1,0.5\n', 1,
         "error: {second}:1: field larger than field limit (131072)\n"),
        ("match {first} {second}", f'id,x1\n"{_LONG}",0.5\n', 1,
         "error: {second}:2: field larger than field limit (131072)\n"),
        ("rates --n 10 --d 10 --sigma 1e160", None, 0, _BOUND),
        ("rates --n 10 --d 10 --sigma 1e-300", None, 0, _BOUND),
        ("rates --n 10 --d 10 --sigma 1e307", None, 1,
         "error: separation threshold overflows float64\n"),
        (f"rates --n 10 --d 1{'0' * 320}", None, 1, "error: d overflows float64\n"),
        (f"rates --n 1{'0' * 400} --d 10", None, 1, "error: n overflows float64\n"),
        ("match {first} {fifo}", 'id,x1\n"p",1.0\n"q",0.0\n', 0, _SWAPPED),
        ("match {first} {second}", f"id,x1\n{_LONG},1.0\n2,0.0\n", 0, _SWAPPED),
        ("match {first} {second}", "id,x1\n1,1.0\n2,nan\n", 1, "error: {second}:3: x1 must be finite, got 'nan'\n"),
        ("match {first} {second}", "id,x1\n1,inf\n2,0.0\n", 1, "error: {second}:2: x1 must be finite, got 'inf'\n"),
        ("match {first} {second}", "id,x1\n1,1e400\n2,0.0\n", 1,
         "error: {second}:2: x1 must be finite, got '1e400'\n"),
        ("match {first} {second}", "id,x1,sigma\n1,1.0,1\n2,0.0,0\n", 1,
         "error: {second}:3: sigma must be positive and finite, got '0'\n"),
        ("match {first} {second}", "id,x1,sigma\n1,1.0,-1\n2,0.0,1\n", 1,
         "error: {second}:2: sigma must be positive and finite, got '-1'\n"),
        ("match {first} {second}", "id\n1\n2\n", 1, "error: {second}: header must be id,x1, got id\n"),
        ("match {first} {second}", "id,sigma\n1,0.5\n", 1,
         "error: {second}: header must be id,x1,sigma, got id,sigma\n"),
        ("experiment {second} --out {out}", "scenario = custom\nn = 50.0\nsweep = 1\n", 1,
         "error: n: invalid literal for int() with base 10: '50.0'\n"),
        ("experiment {second} --out {out}", "scenario = custom\nsweep = 1, abc\n", 1,
         "error: sweep: could not convert string to float: ' abc'\n"),
        ("experiment {second} --out {out}", "scenario = custom\nn = 3\nsigma_levels = 1, 0, 1\nsweep = 1\n", 1,
         "error: sigma_levels must be positive and finite, got [1.0, 0.0, 1.0]\n"),
        ("experiment {second} --out {out}", "sweep = 1\n", 1, "error: config must set at least 'scenario' and 'sweep'\n"),
        ("experiment {second} --out {out}", "scenario = custom\n", 1,
         "error: config must set at least 'scenario' and 'sweep'\n"),
    ],
    ids=[
        "line-after-quoted-newline", "long-field-in-header", "long-field-in-body",
        "sigma-1e160", "sigma-1e-300", "sigma-overflow", "huge-int-d", "huge-int-n", "quoted-fifo", "long-unquoted-id",
        "x-nan", "x-inf", "x-1e400", "sigma-zero", "sigma-negative", "header-id", "header-id-sigma",
        "config-float-n", "config-bad-sweep", "config-zero-sigma-level", "config-no-scenario", "config-no-sweep",
    ],
)
def test_cli_boundary(argv, text, code, expected, tmp_path, capsys):
    # A bad input exits 1 with one named error line, never a traceback;
    # the inputs that exit 0 must keep matching.
    paths = {name: tmp_path / f"{name}.csv" for name in ("first", "second", "fifo", "out")}
    paths["first"].write_text("id,x1\n1,0.0\n2,1.0\n")
    writer = None
    if "{fifo}" in argv:  # a pipe cannot be read twice or seeked
        os.mkfifo(paths["fifo"])
        writer = threading.Thread(target=paths["fifo"].write_text, args=(text,), daemon=True)
        writer.start()
    elif text is not None:
        paths["second"].write_text(text)
    assert main([token.format(**paths) for token in argv.split()]) == code
    if writer is not None:
        writer.join(timeout=10)
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", expected.format(**paths))
    else:
        assert err == "" and out.endswith(expected)


@pytest.mark.parametrize("radius", ["inf", "nan", "-1"])
def test_packing_rejects_non_finite_or_negative_radius(radius, capsys):
    assert main(["packing", "--n", "5", "--radius", radius]) == 1
    assert capsys.readouterr().err == "error: radius must be finite and nonnegative\n"


def test_packing_rejects_n_below_1(capsys):
    assert main(["packing", "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: n must be positive\n"


def test_missing_subcommand_is_validation_error(capsys):
    assert main([]) == 1


def test_shipped_configs_parse():
    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in config_dir.glob("*.cfg"))
    assert names == [
        "heteroscedastic-desk.cfg",
        "heteroscedastic-full.cfg",
        "homoscedastic-desk.cfg",
        "homoscedastic-full.cfg",
    ]
    for path in config_dir.glob("*.cfg"):
        config = config_from_mapping(parse_config_file(path))
        assert config.trials >= 200
        assert len(config.sweep) == 5
        assert {k.tag for k in config.estimators} == {"greedy", "lss", "lsns", "lsl"}


def test_config_value_of_an_unknown_field_type_is_a_type_error():
    # a field type with no parser is a bug in the config fields, not bad input
    with pytest.raises(TypeError) as info:
        cli._parse_value(bool, "true")
    assert str(info.value) == "no config parser for <class 'bool'>"


@pytest.mark.parametrize(
    "argv, code",
    [(["rates", "--n", "50", "--d", "10"], 0), (["rates", "--n", "50", "--d", "10", "--sigma", "-1"], 1)],
    ids=["good", "bad"],
)
def test_entrypoint_exits_with_mains_code(argv, code, monkeypatch, capsys):
    assert main(argv) == code
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["permatch", *argv])
    with pytest.raises(SystemExit) as info:
        entrypoint()
    assert info.value.code == code
    assert capsys.readouterr() == expected


def test_cli_module_runs_as_a_script(capsys):
    argv = ["rates", "--n", "50", "--d", "10"]
    assert main(argv) == 0
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-m", "permatch.cli", *argv], env=env, capture_output=True, text=True)
    assert child.returncode == 0
    assert child.stdout == capsys.readouterr().out
