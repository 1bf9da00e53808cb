"""Monte Carlo experiment engine: scenario builders, trial records,
aggregation, and CSV/SVG emission.

The whole pipeline is a pure function of (config, seed).  Each trial's
randomness comes from ``SeedSequence([seed, sweep_index, trial])`` (see
``STREAM_SCHEME``), expanded into three independent substreams (template
draw, truth draw, noise draw), so trials may be executed in any order, or
concurrently, without changing any record, and distinct seeds share no
trial.

``run_experiment`` draws the trials in order through ``solve_together``
and estimates each (instance, estimator) in record order; the
``permatch.estimators`` module docstring (*Solve-ahead*) says what is solved
ahead and why the records equal those of one instance at a time.

Scenarios
---------
Each scenario's trials read scenario, sweep, trials, seed, estimators and
the config keys in parentheses (``ExperimentConfig.read_keys``).

- ``uniform-homoscedastic`` (n, d, sigma): templates i.i.d. uniform on
  [0, tau]^d with a shared noise level; the sweep values are tau.
- ``identity-heteroscedastic`` (n, d = n, sigma_high, sigma_low, high_count):
  templates tau * e_i, with ``high_count`` features (default max(2, n // 20))
  at the high noise level and the rest at the low; the sweep values are tau.
- ``threshold-check`` (n, d, sigma, alpha): least-favorable templates pinned
  at a multiple of the guaranteed-recovery separation threshold; the sweep
  values are that multiple (1.0 = exactly at the threshold).
- ``greedy-adversarial`` (d): the two-feature high-dimensional configuration
  where nearest-neighbor matching fails; the sweep values are kappa.
- ``custom`` (n, d, sigma or sigma_levels): like uniform-homoscedastic, but
  ``sigma_levels`` may give explicit per-feature noise levels in place of
  sigma; no other scenario accepts the key.

Summaries and plots are keyed by the configured sweep value.  The realized
separation of a trial's templates is not computed during a run; it is
available on request through ``trial_separation``, which rebuilds that
trial's templates from its streams.
"""

from __future__ import annotations

import csv
import functools
import math
import types
import typing
from dataclasses import dataclass

import numpy as np

from . import model
from .estimators import GREEDY, LSL, LSNS, LSS, EstimatorKind, estimate, solve_together
from .metrics import SeparationReport, loss_01, loss_hamming, separation, separation_threshold

__all__ = [
    "SCENARIOS",
    "SWEEP_LABELS",
    "STREAM_SCHEME",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "run_experiment",
    "trial_separation",
    "aggregate",
    "emit",
    "read_summary_csv",
]

# Each scenario: the axis label of its sweep values, and the config keys its
# trials read besides the five every run reads.  Only a tau may be 0.
_SCENARIO_SPECS = {
    "uniform-homoscedastic": ("tau", ("n", "d", "sigma")),
    "identity-heteroscedastic": ("tau", ("n", "d", "sigma_high", "sigma_low", "high_count")),
    "threshold-check": ("threshold multiple", ("n", "d", "sigma", "alpha")),
    "greedy-adversarial": ("kappa", ("d",)),
    "custom": ("tau", ("n", "d", "sigma", "sigma_levels")),
}
SWEEP_LABELS = {scenario: label for scenario, (label, _) in _SCENARIO_SPECS.items()}
SCENARIOS = tuple(SWEEP_LABELS)

# How a trial's random streams derive from (config seed, sweep index, trial
# index); a run manifest records this name.
STREAM_SCHEME = "SeedSequence([seed, sweep_index, trial]).generate_state(3): templates, truth, noise"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n: int = 50
    d: int = 50
    sigma: float = 1.0
    sigma_high: float = 1.0
    sigma_low: float = 0.5
    high_count: int = 0  # 0: use max(2, n // 20)
    alpha: float = 0.1
    sigma_levels: tuple[float, ...] | None = None
    sweep: tuple[float, ...] = ()
    trials: int = 100
    seed: int = 0
    estimators: tuple[EstimatorKind, ...] = (GREEDY, LSS, LSNS, LSL)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sweep:
            raise ValueError("sweep must be a non-empty list of values")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.high_count < 0:
            raise ValueError(f"high_count must be nonnegative, got {self.high_count}")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        # aggregate() keys cells by (sweep value, estimator), so a repeat
        # would merge identical records into one cell and shrink its
        # standard error.
        tags = [kind.tag for kind in self.estimators]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate estimators in {tags}")
        # Checked here so a bad value fails before any trial.
        if not all(math.isfinite(v) and v >= 0 for v in self.sweep):
            raise ValueError(f"sweep values must be finite and nonnegative, got {list(self.sweep)}")
        label = SWEEP_LABELS[self.scenario]
        if label != "tau" and 0.0 in self.sweep:
            raise ValueError(f"{self.scenario} sweep values are {label}s and must be positive")
        if len(set(self.sweep)) != len(self.sweep):
            raise ValueError(f"duplicate sweep values in {list(self.sweep)}")
        if self.scenario == "identity-heteroscedastic":
            if self.d != self.n:
                raise ValueError("identity-heteroscedastic templates need d == n")
            hc = self.resolved_high_count
            if not (0 < hc <= self.n):
                raise ValueError(f"high_count must be in (0, n], got {hc}")
        if self.sigma_levels is not None:
            if "sigma_levels" not in _SCENARIO_SPECS[self.scenario][1]:
                raise ValueError("sigma_levels is read only by the custom scenario")
            if len(self.sigma_levels) != self.n:
                raise ValueError("sigma_levels must have one entry per feature")
            if not all(math.isfinite(v) and v > 0 for v in self.sigma_levels):
                raise ValueError(f"sigma_levels must be positive and finite, got {list(self.sigma_levels)}")

    @property
    def resolved_high_count(self) -> int:
        return self.high_count if self.high_count > 0 else max(2, self.n // 20)

    @property
    def read_keys(self) -> set[str]:
        """The config keys this config's trials read (sigma_levels replaces sigma)."""
        keys = {"scenario", "sweep", "trials", "seed", "estimators", *_SCENARIO_SPECS[self.scenario][1]}
        return keys - {"sigma"} if self.sigma_levels is not None else keys


@dataclass(frozen=True)
class TrialRecord:
    sweep_value: float
    estimator: str
    seed: int  # the config's seed
    global_index: int  # sweep_index * trials + trial
    loss_01: int
    loss_hamming: float


def _trial_streams(seed: int, sweep_index: int, trial: int) -> tuple[int, int, int]:
    """Three independent substream seeds for one trial, order-free."""
    ss = np.random.SeedSequence([seed, sweep_index, trial])
    a, b, c = ss.generate_state(3, np.uint64)
    return int(a), int(b), int(c)


def _trial_templates(config: ExperimentConfig, sweep_value: float, theta_seed: int):
    """(templates, noise spec) of one trial."""
    scenario = config.scenario
    if scenario == "greedy-adversarial":
        return model.adversarial_pair_features(config.d, sweep_value), model.ADVERSARIAL_NOISE
    if scenario in ("uniform-homoscedastic", "custom"):
        theta = model.uniform_box_features(config.n, config.d, sweep_value, theta_seed)
        if config.sigma_levels is not None:
            return theta, model.NoiseSpec.heteroscedastic(config.sigma_levels)
        return theta, model.NoiseSpec.homoscedastic(config.sigma)
    if scenario == "identity-heteroscedastic":
        theta = model.scaled_identity_features(config.n, sweep_value)
        levels = np.full(config.n, config.sigma_low)
        rng = np.random.default_rng(theta_seed)
        high = model.random_permutation(rng, config.n).map[: config.resolved_high_count]
        levels[high] = config.sigma_high
        return theta, model.NoiseSpec.heteroscedastic(levels)
    if scenario == "threshold-check":
        target = sweep_value * separation_threshold(config.alpha, config.n, config.d, config.sigma) / config.sigma
        theta = model.least_favorable_features(np.full(config.n, config.sigma), target, d=config.d)
        return theta, model.NoiseSpec.homoscedastic(config.sigma)
    raise AssertionError(scenario)  # unreachable: config validation covers SCENARIOS


def _build_trial(config: ExperimentConfig, sweep_value: float, seeds: tuple[int, int, int]) -> model.MatchInstance:
    """Draw one trial's instance."""
    theta_seed, truth_seed, noise_seed = seeds
    if config.scenario == "greedy-adversarial":
        return model.greedy_adversarial_instance(config.d, sweep_value, noise_seed)
    theta, noise = _trial_templates(config, sweep_value, theta_seed)
    truth = model.random_permutation(np.random.default_rng(truth_seed), theta.n)
    return model.generate_instance(theta, noise, truth, noise_seed)


def trial_separation(config: ExperimentConfig, sweep_index: int, trial: int) -> SeparationReport:
    """The realized separation of one trial's templates, rebuilt from its streams.

    ``run_experiment`` does not compute it; the trial is the record with
    ``global_index == sweep_index * config.trials + trial``.
    """
    if not (0 <= sweep_index < len(config.sweep) and 0 <= trial < config.trials):
        raise ValueError(
            f"no trial ({sweep_index}, {trial}) in {len(config.sweep)} sweep values x {config.trials} trials"
        )
    theta_seed, _, _ = _trial_streams(config.seed, sweep_index, trial)
    theta, noise = _trial_templates(config, float(config.sweep[sweep_index]), theta_seed)
    return separation(theta, noise)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every (sweep value, trial, estimator) cell and collect records.

    Trials are drawn in order through ``solve_together`` and each
    (instance, estimator) is estimated in record order; see the
    ``permatch.estimators`` module docstring, *Solve-ahead*.
    """
    cells = [(index, float(value), trial) for index, value in enumerate(config.sweep) for trial in range(config.trials)]
    draws = (_build_trial(config, value, _trial_streams(config.seed, index, trial)) for index, value, trial in cells)
    records: list[TrialRecord] = []
    for (index, value, trial), instance in zip(cells, solve_together(draws, config.estimators)):
        for kind in config.estimators:
            estimated = estimate(instance, kind)
            records.append(
                TrialRecord(
                    sweep_value=value,
                    estimator=kind.tag,
                    seed=config.seed,
                    global_index=index * config.trials + trial,
                    loss_01=loss_01(estimated, instance.truth),
                    loss_hamming=loss_hamming(estimated, instance.truth),
                )
            )
    return records


@dataclass(frozen=True)
class SummaryRow:
    """One row of the summary CSV; the fields, in order, are its columns."""

    sweep_value: float
    estimator: str
    mean_01: float
    se_01: float
    mean_hamming: float
    se_hamming: float
    trials: int


class _Welford:
    """Streaming mean and variance; standard error is 0 for a single value."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def aggregate(records: list[TrialRecord]) -> list[SummaryRow]:
    """Per (sweep value, estimator): mean and standard error of both losses."""
    if not records:
        raise ValueError("no records to aggregate")
    cells: dict[tuple[float, str], tuple[_Welford, _Welford]] = {}
    for rec in records:
        key = (rec.sweep_value, rec.estimator)
        if key not in cells:
            cells[key] = (_Welford(), _Welford())
        zero_one, hamming = cells[key]
        zero_one.add(float(rec.loss_01))
        hamming.add(rec.loss_hamming)
    rows = [
        SummaryRow(
            sweep_value=key[0],
            estimator=key[1],
            mean_01=zero_one.mean,
            se_01=zero_one.stderr,
            mean_hamming=hamming.mean,
            se_hamming=hamming.stderr,
            trials=zero_one.count,
        )
        for key, (zero_one, hamming) in cells.items()
    ]
    rows.sort(key=lambda r: (r.sweep_value, r.estimator))
    return rows


def emit(summary: list[SummaryRow], path, fmt: str = "csv", xlabel: str = "sweep value") -> None:
    """Write a summary as CSV (exact schema) or as a line-chart SVG."""
    if not summary:
        raise ValueError("refusing to emit an empty summary")
    if fmt not in ("csv", "svg-plot"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'svg-plot'")
    try:
        if fmt == "csv":
            _emit_csv(summary, path)
        else:
            _emit_svg(summary, path, xlabel)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


@functools.cache
def _field_types(cls) -> types.MappingProxyType:
    """A dataclass's field types by name, in field order, resolved once per process (read-only)."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def _emit_csv(summary: list[SummaryRow], path) -> None:
    columns = list(_field_types(SummaryRow))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in summary:
            cells = (getattr(row, name) for name in columns)
            writer.writerow(repr(v) if isinstance(v, float) else str(v) for v in cells)


def read_summary_csv(path) -> list[SummaryRow]:
    """Parse a summary CSV back; inverse of the CSV emitter."""
    columns = _field_types(SummaryRow)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(columns):
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            if row:
                cells = zip(columns.values(), row, strict=True)
                rows.append(SummaryRow(*(kind(cell) for kind, cell in cells)))
    return rows


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _emit_svg(summary: list[SummaryRow], path, xlabel: str) -> None:
    width, height = 720, 480
    left, right, top, bottom = 70, 170, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    estimators = sorted({row.estimator for row in summary})
    xs = sorted({row.sweep_value for row in summary})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:  # single sweep point: give the axis some width
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_hi = max(1e-9, max(row.mean_hamming for row in summary)) * 1.05

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - y / y_hi * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">mean Hamming error</text>',
    ]
    for x in xs:
        parts.append(
            f'<line x1="{sx(x):.2f}" y1="{top + plot_h}" x2="{sx(x):.2f}" y2="{top + plot_h + 5}" stroke="black"/>'
            f'<text x="{sx(x):.2f}" y="{top + plot_h + 20}" text-anchor="middle" font-size="11">{x:g}</text>'
        )
    for tick in range(5):
        y = y_hi * tick / 4
        parts.append(
            f'<line x1="{left - 5}" y1="{sy(y):.2f}" x2="{left}" y2="{sy(y):.2f}" stroke="black"/>'
            f'<text x="{left - 9}" y="{sy(y) + 4:.2f}" text-anchor="end" font-size="11">{y:.3g}</text>'
        )
    by_est = {
        est: sorted(
            (r for r in summary if r.estimator == est), key=lambda r: r.sweep_value
        )
        for est in estimators
    }
    for index, est in enumerate(estimators):
        color = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        points = " ".join(f"{sx(r.sweep_value):.2f},{sy(r.mean_hamming):.2f}" for r in by_est[est])
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = top + 18 + 18 * index
        lx = left + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{est}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
