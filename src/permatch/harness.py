"""Monte Carlo experiment engine: scenario builders, trial records,
aggregation, and CSV/SVG emission.

The whole pipeline is a pure function of (config, seed).  Each trial's
randomness comes from ``SeedSequence([seed, sweep_index, trial])`` (see
``STREAM_SCHEME``), expanded into three independent substreams (template
draw, truth draw, noise draw), so trials may be executed in any order, or
concurrently, without changing any record, and distinct seeds share no
trial.

Scenarios
---------
- ``uniform-homoscedastic``: templates i.i.d. uniform on [0, tau]^d with a
  shared noise level; the sweep values are tau.
- ``identity-heteroscedastic``: templates tau * e_i with two noise levels;
  a few features (``high_count``, default max(2, n // 20)) are drawn at the
  high level, the rest at the low level; the sweep values are tau.
- ``threshold-check``: least-favorable templates pinned at a multiple of
  the guaranteed-recovery separation threshold for (alpha, n, d, sigma);
  the sweep values are that multiple (1.0 = exactly at the threshold).
- ``greedy-adversarial``: the two-feature high-dimensional configuration
  where nearest-neighbor matching fails; the sweep values are kappa.
- ``custom``: like uniform-homoscedastic, but ``sigma_levels`` may give
  explicit per-feature noise levels; no other scenario accepts the key.

Each record carries the realized separation of the trial's template set;
summaries and plots are keyed by the configured sweep value.
"""

from __future__ import annotations

import csv
import math
import typing
from dataclasses import astuple, dataclass, field

import numpy as np

from . import model
from .estimators import EstimatorKind, estimate
from .metrics import loss_01, loss_hamming, separation, separation_threshold

__all__ = [
    "SCENARIOS",
    "SWEEP_LABELS",
    "STREAM_SCHEME",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "run_experiment",
    "aggregate",
    "emit",
    "read_summary_csv",
]

# Each scenario with the axis label of its sweep values.
SWEEP_LABELS = {
    "uniform-homoscedastic": "tau",
    "identity-heteroscedastic": "tau",
    "threshold-check": "threshold multiple",
    "greedy-adversarial": "kappa",
    "custom": "tau",
}
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
    estimators: tuple[EstimatorKind, ...] = field(
        default_factory=lambda: (
            EstimatorKind("greedy"),
            EstimatorKind("lss"),
            EstimatorKind("lsns"),
            EstimatorKind("lsl"),
        )
    )

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
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
        # Every scenario's sweep value is a tau >= 0, a kappa > 0 or a
        # multiple > 0; checked here so a bad value fails before any trial.
        if not all(math.isfinite(v) and v >= 0 for v in self.sweep):
            raise ValueError(f"sweep values must be finite and nonnegative, got {list(self.sweep)}")
        if len(set(self.sweep)) != len(self.sweep):
            raise ValueError(f"duplicate sweep values in {list(self.sweep)}")
        for kind in self.estimators:
            if kind.tag == "general-lsl":
                raise ValueError("general-lsl is not configurable through experiment configs")
        if self.scenario == "greedy-adversarial":
            if any(v <= 0 for v in self.sweep):
                raise ValueError("greedy-adversarial sweep values are kappa and must be positive")
        if self.scenario == "identity-heteroscedastic":
            if self.d != self.n:
                raise ValueError("identity-heteroscedastic templates need d == n")
            hc = self.resolved_high_count
            if not (0 < hc <= self.n):
                raise ValueError(f"high_count must be in (0, n], got {hc}")
        if self.sigma_levels is not None:
            if self.scenario != "custom":
                raise ValueError("sigma_levels is read only by the custom scenario")
            if len(self.sigma_levels) != self.n:
                raise ValueError("sigma_levels must have one entry per feature")
        if self.scenario == "threshold-check" and any(v <= 0 for v in self.sweep):
            raise ValueError("threshold-check sweep values are threshold multiples and must be positive")

    @property
    def resolved_high_count(self) -> int:
        return self.high_count if self.high_count > 0 else max(2, self.n // 20)


@dataclass(frozen=True)
class TrialRecord:
    sweep_value: float
    estimator: str
    seed: int  # the config's seed
    global_index: int  # sweep_index * trials + trial
    loss_01: int
    loss_hamming: float
    kappa: float
    kappa_bar: float


def _trial_streams(seed: int, sweep_index: int, trial: int) -> tuple[int, int, int]:
    """Three independent substream seeds for one trial, order-free."""
    ss = np.random.SeedSequence([seed, sweep_index, trial])
    a, b, c = ss.generate_state(3, np.uint64)
    return int(a), int(b), int(c)


def _build_trial(config: ExperimentConfig, sweep_value: float, seeds: tuple[int, int, int]):
    """Produce (instance, separation report) for one trial."""
    theta_seed, truth_seed, noise_seed = seeds
    scenario = config.scenario
    if scenario == "greedy-adversarial":
        theta = model.adversarial_pair_features(config.d, sweep_value)
        instance = model.greedy_adversarial_instance(config.d, sweep_value, noise_seed)
        return instance, separation(theta, instance.first_noise)

    if scenario in ("uniform-homoscedastic", "custom"):
        theta = model.uniform_box_features(config.n, config.d, sweep_value, theta_seed)
        if config.sigma_levels is not None:
            noise = model.NoiseSpec.heteroscedastic(config.sigma_levels)
        else:
            noise = model.NoiseSpec.homoscedastic(config.sigma)
    elif scenario == "identity-heteroscedastic":
        theta = model.scaled_identity_features(config.n, sweep_value)
        levels = np.full(config.n, config.sigma_low)
        rng = np.random.default_rng(theta_seed)
        high = model.random_permutation(rng, config.n).map[: config.resolved_high_count]
        levels[high] = config.sigma_high
        noise = model.NoiseSpec.heteroscedastic(levels)
    elif scenario == "threshold-check":
        target = sweep_value * separation_threshold(config.alpha, config.n, config.d, config.sigma) / config.sigma
        theta = model.least_favorable_features(
            np.full(config.n, config.sigma), target, d=config.d
        )
        noise = model.NoiseSpec.homoscedastic(config.sigma)
    else:  # unreachable: config validation covers SCENARIOS
        raise AssertionError(scenario)

    truth = model.random_permutation(np.random.default_rng(truth_seed), theta.n)
    instance = model.generate_instance(theta, noise, truth, noise_seed)
    return instance, separation(theta, noise)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every (sweep value, trial, estimator) cell and collect records."""
    records: list[TrialRecord] = []
    for sweep_index, sweep_value in enumerate(config.sweep):
        for trial in range(config.trials):
            streams = _trial_streams(config.seed, sweep_index, trial)
            instance, report = _build_trial(config, float(sweep_value), streams)
            for kind in config.estimators:
                estimated = estimate(instance, kind)
                records.append(
                    TrialRecord(
                        sweep_value=float(sweep_value),
                        estimator=kind.tag,
                        seed=config.seed,
                        global_index=sweep_index * config.trials + trial,
                        loss_01=loss_01(estimated, instance.truth),
                        loss_hamming=loss_hamming(estimated, instance.truth),
                        kappa=report.kappa,
                        kappa_bar=report.kappa_bar,
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


def _emit_csv(summary: list[SummaryRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(typing.get_type_hints(SummaryRow)))
        for row in summary:
            writer.writerow(repr(v) if isinstance(v, float) else str(v) for v in astuple(row))


def read_summary_csv(path) -> list[SummaryRow]:
    """Parse a summary CSV back; inverse of the CSV emitter."""
    columns = typing.get_type_hints(SummaryRow)
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
