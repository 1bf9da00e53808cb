"""The benchmark's workloads and the inputs it writes for them.

Every input is a pure function of the workload and the ``--seed``: a sweep
gets a flat ``.cfg`` file, a match gets two feature CSVs with a planted
ground truth.  The program under test only ever sees these files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sweep:
    """A ``permatch experiment`` run of the uniform-homoscedastic scenario."""

    n: int
    d: int
    sigma: float
    sweep: tuple[float, ...]
    estimators: tuple[str, ...]
    trials: int  # per sweep value, per invocation
    configs: int = 1  # config seeds per run, invoked in turn

    kind = "sweep"

    @property
    def trials_per_op(self) -> int:
        return self.trials * len(self.sweep)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.d)

    def describe(self) -> dict:
        return {"kind": self.kind, "m": self.n, **asdict(self)}


@dataclass(frozen=True)
class Match:
    """A ``permatch match`` call on one rectangular instance (m >= n)."""

    m: int  # first-set size
    n: int  # second-set size, matched injectively into the first set
    d: int
    sigma: float
    estimator: str

    kind = "match"
    trials_per_op = 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.d)

    def describe(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


ESTIMATORS = ("greedy", "lss", "lsns", "lsl")

WORKLOADS = {
    "homo-n50": Sweep(n=50, d=50, sigma=1.0, sweep=(1.4, 1.9, 2.4, 2.9, 3.5),
                      estimators=ESTIMATORS, trials=4, configs=5),
    "homo-hd": Sweep(n=100, d=2000, sigma=1.0, sweep=(0.6, 0.8, 1.0, 1.2, 1.5),
                     estimators=ESTIMATORS, trials=1),
    "match-kp": Match(m=1000, n=800, d=128, sigma=0.4, estimator="lsl"),
}


def derived_seed(seed: int, name: str) -> int:
    """A 31-bit seed for one workload, distinct across workloads and seeds."""
    key = [seed] + list(name.encode())
    return int(np.random.SeedSequence(key).generate_state(1)[0] >> 1)


@dataclass
class Inputs:
    """Paths the program reads, plus what the checks need to know."""

    files: list[tuple[Path, ...]]  # the input files of each distinct operation
    config_seeds: list[int] | None = None
    first: np.ndarray | None = None  # match only: the features as written
    second: np.ndarray | None = None
    truth: np.ndarray | None = None  # match only: 0-based planted pairing


def write_inputs(name: str, spec, seed: int, workdir: Path) -> Inputs:
    if spec.kind == "sweep":
        return _write_sweep(name, spec, seed, workdir)
    return _write_match(name, spec, seed, workdir)


def _write_sweep(name: str, spec: Sweep, seed: int, workdir: Path) -> Inputs:
    seeds = [derived_seed(seed, f"{name}/{k}") for k in range(spec.configs)]
    files = []
    for k, config_seed in enumerate(seeds):
        cfg = workdir / f"{name}-{k}.cfg"
        cfg.write_text(
            "scenario = uniform-homoscedastic\n"
            f"n = {spec.n}\n"
            f"d = {spec.d}\n"
            f"sigma = {spec.sigma!r}\n"
            f"sweep = {', '.join(repr(v) for v in spec.sweep)}\n"
            f"trials = {spec.trials}\n"
            f"seed = {config_seed}\n"
            f"estimators = {', '.join(spec.estimators)}\n"
        )
        files.append((cfg,))
    return Inputs(files=files, config_seeds=seeds)


def _write_match(name: str, spec: Match, seed: int, workdir: Path) -> Inputs:
    """Keypoint-like sets: templates uniform on [0, 1]^d, noise on both sides."""
    rng = np.random.default_rng(derived_seed(seed, name))
    templates = rng.random((spec.m, spec.d))
    truth = rng.permutation(spec.m)[: spec.n]
    first = templates + spec.sigma * rng.standard_normal((spec.m, spec.d))
    second = templates[truth] + spec.sigma * rng.standard_normal((spec.n, spec.d))
    paths = (workdir / f"{name}-first.csv", workdir / f"{name}-second.csv")
    for path, features in zip(paths, (first, second)):
        _write_features(path, features)
    return Inputs(files=[paths], first=first, second=second, truth=truth)


def _write_features(path: Path, features: np.ndarray) -> None:
    """``id,x1,...,xd`` rows with round-tripping floats, one row at a time so
    that writing adds nothing to the run's peak memory."""
    with open(path, "w") as fh:
        fh.write(",".join(["id"] + [f"x{k}" for k in range(1, features.shape[1] + 1)]) + "\n")
        for i, row in enumerate(features, start=1):
            fh.write(f"{i},{','.join(map(repr, row.tolist()))}\n")
