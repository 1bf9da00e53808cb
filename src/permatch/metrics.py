"""Losses on permutations, separation distances, recovery thresholds, and
probability tail utilities.

All logarithms are natural.  The threshold and rate formulas are exposed in
absolute units (multiplied by sigma); divide by sigma for the dimensionless
noise-normalized versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FeatureSet, NoiseSpec, Permutation, pairwise_sqdist

__all__ = [
    "SeparationReport",
    "loss_01",
    "loss_hamming",
    "l2_distance",
    "separation",
    "minimax_separation_rate",
    "separation_threshold",
    "separation_threshold_conservative",
    "mismatch_probability_bound",
    "mismatch_probability_bound_raw",
    "chi2_tail_bound",
]


def _paired_maps(a: Permutation, b: Permutation) -> tuple[np.ndarray, np.ndarray]:
    if a.n != b.n or a.codomain != b.codomain:
        raise ValueError(
            f"permutation sizes differ: {a.n}->{a.codomain} vs {b.n}->{b.codomain}"
        )
    return a.map, b.map


def loss_01(a: Permutation, b: Permutation) -> int:
    """1 if the two maps differ anywhere, else 0."""
    x, y = _paired_maps(a, b)
    return int(not np.array_equal(x, y))


def loss_hamming(a: Permutation, b: Permutation) -> float:
    """Fraction of positions where the two maps disagree, in [0, 1]."""
    x, y = _paired_maps(a, b)
    return float(np.count_nonzero(x != y)) / x.size


def l2_distance(a: Permutation, b: Permutation) -> float:
    """Normalized l2 distance: sqrt(mean squared index displacement)."""
    x, y = _paired_maps(a, b)
    return math.sqrt(float(np.square(x - y).sum()) / x.size)


@dataclass(frozen=True)
class SeparationReport:
    """Minimal pairwise distances of a template set.

    ``kappa`` is the smallest Euclidean distance between distinct features;
    ``kappa_bar`` is the smallest distance-to-pooled-noise ratio
    ||t_i - t_j|| / sqrt(s_i^2 + s_j^2).  Each comes with its achieving
    index pair (i < j).
    """

    kappa: float
    kappa_bar: float
    argmin_pair: tuple[int, int]
    argmin_pair_rel: tuple[int, int]


def separation(theta: FeatureSet, noise: NoiseSpec) -> SeparationReport:
    """Exact minima over all feature pairs.

    Computes only the pairs i < j, each row against the later rows with the
    shared kernel ``pairwise_sqdist``, in row-major order, so ``argmin``
    picks, on ties, the pair with the smallest i and then the smallest j.
    """
    n = theta.n
    if n < 2:
        raise ValueError("separation needs at least two features")
    levels = noise.levels_for(n)
    v = theta.vectors
    rows, cols = np.triu_indices(n, 1)
    later = [pairwise_sqdist(v[i : i + 1], v[i + 1 :]) for i in range(n - 1)]
    dists = np.sqrt(np.concatenate(later, axis=None))
    ratios = dists / np.sqrt(levels[cols] ** 2 + levels[rows] ** 2)
    k = int(np.argmin(dists))
    k_rel = int(np.argmin(ratios))
    return SeparationReport(
        kappa=float(dists[k]),
        kappa_bar=float(ratios[k_rel]),
        argmin_pair=(int(rows[k]), int(cols[k])),
        argmin_pair_rel=(int(rows[k_rel]), int(cols[k_rel])),
    )


def minimax_separation_rate(sigma: float, n: int, d: float) -> float:
    """The smallest separation any method can perceive, up to constants:
    sigma * max(sqrt(log n), (d log n)^(1/4)).

    The two branches cross at d = log n: below it the rate is dimension
    free, above it grows like d^(1/4).  The branch is selected by comparing
    d against log n directly, so the crossover is exact (at d = log n the
    two expressions agree to the last bit only through the second form).
    """
    if n < 2:
        raise ValueError("need at least two features")
    if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(d) and d > 0):
        raise ValueError("sigma and d must be positive and finite")
    log_n = math.log(n)
    scale = math.sqrt(math.sqrt(d * log_n)) if d >= log_n else math.sqrt(log_n)
    return _finite(sigma * scale, "separation rate")


def _finite(value: float, name: str) -> float:
    """``value``, or a ValueError naming it if it overflowed float64."""
    if math.isinf(value):
        raise ValueError(f"{name} overflows float64")
    return value


def _threshold(alpha: float, n: int, d: int, sigma: float, low: float, high: float) -> float:
    """sigma * 4 * max(sqrt(low log(8 n^2 / alpha)), (high d log(4 n^2 / alpha))^(1/4))."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 2 or not (math.isfinite(d) and d >= 1):
        raise ValueError("need n >= 2 and finite d >= 1")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    branch_low = math.sqrt(low * math.log(8.0 * n * n / alpha))
    branch_high = (high * d * math.log(4.0 * n * n / alpha)) ** 0.25
    return _finite(sigma * 4.0 * max(branch_low, branch_high), "separation threshold")


def separation_threshold(alpha: float, n: int, d: int, sigma: float) -> float:
    """Separation guaranteeing mismatch probability at most alpha:
    sigma * 4 * max(sqrt(2 log(8 n^2 / alpha)), (d log(4 n^2 / alpha))^(1/4)).
    """
    return _threshold(alpha, n, d, sigma, 2.0, 1.0)


def separation_threshold_conservative(alpha: float, n: int, d: int, sigma: float) -> float:
    """Looser variant with doubled log factors:
    sigma * 4 * max(sqrt(4 log(8 n^2 / alpha)), (4 d log(4 n^2 / alpha))^(1/4)).

    This is the threshold whose constants line up exactly with
    mismatch_probability_bound: plugging it in drives the bound to alpha.
    """
    return _threshold(alpha, n, d, sigma, 4.0, 4.0)


def mismatch_probability_bound_raw(kappa: float, sigma: float, n: int, d: int) -> float:
    """Uncapped worst-case mismatch bound at separation kappa:
    max(8 n^2 exp(-kappa^2 / (2^6 sigma^2)), 4 n^2 exp(-kappa^4 / (2^10 d sigma^4))).

    Both terms depend only on q = (kappa / sigma)^2.  It is a float product,
    which overflows to inf (a zero term) where ``**`` would raise.
    """
    if not (kappa > 0 and sigma > 0) or n < 2 or d < 1:
        raise ValueError("kappa and sigma must be positive, n >= 2, d >= 1")
    ratio = kappa / sigma
    q = ratio * ratio
    term_low = 8.0 * n * n * math.exp(-q / 64.0)
    term_high = 4.0 * n * n * math.exp(-q * q / (1024.0 * d))
    return max(term_low, term_high)


def mismatch_probability_bound(kappa: float, sigma: float, n: int, d: int) -> float:
    """The raw bound capped at 1, since it bounds a probability."""
    return min(1.0, mismatch_probability_bound_raw(kappa, sigma, n, d))


def chi2_tail_bound(D: int, x: float) -> tuple[float, float]:
    """Exponential tail bounds for a chi-squared variable Y with D degrees:
    P(Y - D <= -2 sqrt(D x)) <= e^-x  and  P(Y - D >= 2 sqrt(D x) + 2 x) <= e^-x.

    Returns the pair (lower-tail bound, upper-tail bound); both equal e^-x.
    """
    if D < 1:
        raise ValueError("D must be a positive integer")
    if not (x > 0):
        raise ValueError("x must be positive")
    bound = math.exp(-x)
    return (bound, bound)
