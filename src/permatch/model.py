"""Domain types and synthetic generators for noisy feature matching.

Two sets of d-dimensional features are observed under additive Gaussian
noise: the first set holds ``theta_i + sigma_i * xi_i`` and the second set
holds ``theta_{pi(i)} + sigma_{pi(i)} * xi_i^#`` for an unknown permutation
(or injection) ``pi``.  Everything needed to pose and simulate that problem
lives here: feature sets, noise specifications, permutations, match
instances, and the seeded generators used by the experiment harness.

Conventions
-----------
- Feature sets are stored row-major: one feature per row, shape (n, d).
- Permutations are 0-based index arrays; ``pi.map[i]`` is the first-set
  index matched to the i-th second-set feature.
- In the heteroscedastic case the second set's noise level at index i is
  the first set's level at index ``pi(i)`` (levels travel with features).
- All generators are pure functions of their arguments including ``seed``.
  Gaussian draws go through a Box-Muller transform of the PCG64 uniform
  stream so instances are reproducible byte-for-byte across runs.

Distances
---------
``pairwise_sqdist`` is the one exact feature-to-feature distance kernel.
It takes one second-set row at a time: the row is copied across a tile,
and blocks of first-set rows, up to ``_SQDIST_BLOCK`` differences each,
are subtracted from the tile into a buffer beside it.  Each entry is then
one BLAS dot of its difference with itself (``np.vecdot``); a dot longer
than ``_DOT_SEGMENT`` (8192) elements is split into segments added in
index order, so the bits depend on the BLAS core kernel but not on its
thread count.  ``sqdist_entries`` computes the same bits at chosen
entries only.

The estimators do not wait for the kernel.  ``gemm_sqdist`` expands
||a||^2 + ||b||^2 - 2<a, b> with one GEMM, an order of magnitude faster,
and bounds each row's distance from the kernel's entries by the forward
error of a dot product (Higham 2002, section 3.1); an entry whose bound is
not small next to its value is recomputed by the kernel.  The GEMM runs in tiles below
OpenBLAS's threading threshold, so it never wakes a BLAS helper thread.
Costs solve on these values and prove the result on exact entries (the
``permatch.estimators`` and ``permatch.assignment`` module docstrings).
``MatchInstance.bounded_sqdist`` holds them for an instance, and
``MatchInstance.sqdist``, the kernel's matrix, is computed only when read:
by variance-greedy on every call, and by greedy when its margin check
fails.  A cost whose certificate fails runs the kernel itself, and
``permatch.metrics.separation`` runs it on template rows.  Both matrices
are computed on first use and then shared by every estimator run on that
instance.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FeatureSet",
    "NoiseSpec",
    "Permutation",
    "MatchInstance",
    "HypothesisRangeWarning",
    "BoundedSqdist",
    "pairwise_sqdist",
    "sqdist_entries",
    "gemm_sqdist",
    "standard_gaussian",
    "random_permutation",
    "generate_instance",
    "uniform_box_features",
    "scaled_identity_features",
    "least_favorable_features",
    "ADVERSARIAL_NOISE",
    "adversarial_pair_features",
    "greedy_adversarial_instance",
    "read_features_csv",
    "write_features_csv",
    "load_instance_csv",
]


class HypothesisRangeWarning(UserWarning):
    """Parameters fall outside the range where a guarantee is proved.

    Emitted instead of raising so parameter sweeps may cross the boundary.
    """


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def standard_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via Box-Muller on the generator's uniforms.

    Using an explicit transform of ``rng.random()`` pins the exact output
    stream to the PCG64 uniform stream, independent of how the installed
    numpy implements its own normal sampler.  The first half of the output
    is ``r * cos(2 pi u2)`` and the second ``r * sin(2 pi u2)``, with
    ``r = sqrt(-2 log(1 - u1))``.  Each step runs in place, so a call
    allocates its output and two half-length buffers, not a new array per
    step: at (100, 2000) each such array is 800 KB, which glibc may map
    fresh and fault in page by page.  The steps and their operands are
    those of the allocating form, so the bits are too.
    """
    size = int(np.prod(shape))
    half = (size + 1) // 2
    r = rng.random(half)
    np.subtract(1.0, r, out=r)  # (0, 1]: keeps the log finite
    np.log(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    angle = rng.random(half)
    np.multiply(2.0 * np.pi, angle, out=angle)
    z = np.empty(2 * half)
    cos, sin = z[:half], z[half:]
    np.multiply(r, np.cos(angle, out=cos), out=cos)
    np.multiply(r, np.sin(angle, out=sin), out=sin)
    return z[:size].reshape(shape)


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """An ordered collection of n feature vectors in R^d, one per row."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float, copy=True)
        if v.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"need at least one feature and one dimension, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature matrix contains non-finite entries")
        object.__setattr__(self, "vectors", _readonly(v))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Noise levels: a single shared sigma, or one positive level per feature.

    Exactly one of ``sigma`` (homoscedastic) and ``levels`` (heteroscedastic)
    is set.  Use the classmethod constructors.
    """

    sigma: float | None = None
    levels: np.ndarray | None = None

    def __post_init__(self):
        if (self.sigma is None) == (self.levels is None):
            raise ValueError("exactly one of sigma and levels must be given")
        if self.sigma is not None:
            s = float(self.sigma)
            if not (math.isfinite(s) and s > 0):
                raise ValueError(f"noise level must be positive and finite, got {s}")
            object.__setattr__(self, "sigma", s)
        else:
            lv = np.array(self.levels, dtype=float, copy=True)
            if lv.ndim != 1 or lv.size < 1:
                raise ValueError("levels must be a non-empty 1-D vector")
            if not np.all(np.isfinite(lv)) or np.any(lv <= 0):
                raise ValueError("every noise level must be positive and finite")
            object.__setattr__(self, "levels", _readonly(lv))

    @classmethod
    def homoscedastic(cls, sigma: float) -> "NoiseSpec":
        return cls(sigma=sigma)

    @classmethod
    def heteroscedastic(cls, levels) -> "NoiseSpec":
        return cls(levels=levels)

    def levels_for(self, n: int) -> np.ndarray:
        """Per-feature levels as a length-n vector."""
        if self.sigma is not None:
            return np.full(n, self.sigma)
        if self.levels.size != n:
            raise ValueError(f"noise spec has {self.levels.size} levels, expected {n}")
        return self.levels.copy()

    def permuted(self, perm: "Permutation") -> "NoiseSpec":
        """Levels for the second set: level i becomes the level at perm(i)."""
        if self.sigma is not None:
            return self
        return NoiseSpec.heteroscedastic(self.levels[perm.map])


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of {0..m-1}, or an injection {0..n-1} -> {0..m-1}.

    ``map[i]`` is the image of i.  Square (bijective) when n == codomain.
    """

    map: np.ndarray
    codomain: int = -1  # -1: defaults to len(map), i.e. a square permutation

    def __post_init__(self):
        a = np.array(self.map, dtype=np.int64, copy=True)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("permutation map must be a non-empty 1-D index vector")
        m = a.size if self.codomain == -1 else int(self.codomain)
        if m < a.size:
            raise ValueError(f"codomain {m} smaller than domain {a.size}")
        top = int(a.max())
        if a.min() < 0 or top >= m:
            raise ValueError(f"images must lie in [0, {m})")
        seen = np.zeros(top + 1, dtype=bool)  # sized by the largest image, not sorted
        seen[a] = True
        if np.count_nonzero(seen) != a.size:
            raise ValueError("images must be distinct")
        object.__setattr__(self, "map", _readonly(a))
        object.__setattr__(self, "codomain", m)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return self.map.size

    @property
    def is_square(self) -> bool:
        return self.n == self.codomain

    def inverse(self) -> "Permutation":
        if not self.is_square:
            raise ValueError("only square permutations are invertible")
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if other.codomain != self.n or not self.is_square:
            raise ValueError("composition requires a square outer permutation of matching size")
        return Permutation(self.map[other.map], codomain=self.codomain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.codomain == other.codomain and np.array_equal(self.map, other.map)

    def __hash__(self) -> int:
        return hash((self.codomain, self.map.tobytes()))

    def __repr__(self) -> str:
        return f"Permutation({self.map.tolist()}, codomain={self.codomain})"


# Elements per block of pairwise_sqdist (256 KiB of float64): the block
# buffer stays in cache however large d is.
_SQDIST_BLOCK = 2**15
# Longest dot of pairwise_sqdist: OpenBLAS splits a dot of more than 10**4
# elements across its threads, and the split changes the sum's bits.
_DOT_SEGMENT = 8192


def _segmented_dots(diffs: np.ndarray, out: np.ndarray) -> None:
    """``out[k]`` = the squared norm of ``diffs[k]``: one BLAS dot per row, in segments added in index order.

    Each segment of at most ``_DOT_SEGMENT`` elements is one dot on one
    thread, so the bits depend on the BLAS core kernel but not on its
    thread count.
    """
    np.vecdot(diffs[:, :_DOT_SEGMENT], diffs[:, :_DOT_SEGMENT], out=out)
    for k in range(_DOT_SEGMENT, diffs.shape[1], _DOT_SEGMENT):
        out += np.vecdot(diffs[:, k : k + _DOT_SEGMENT], diffs[:, k : k + _DOT_SEGMENT])


def pairwise_sqdist(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Squared distances, entry (i, j) = ||first[j] - second[i]||^2, from the differences.

    For each second-set row the row is copied across a tile, and blocks of
    first-set rows, at most ``_SQDIST_BLOCK`` elements each (one row if d is
    larger), are subtracted from the tile into a buffer beside it; the
    buffer's squared row norms are ``_segmented_dots``.  Tile and buffer
    are one allocation per call, and a subtraction of operands of one
    shape needs no iterator buffer, so no step allocates.  Subtraction is
    exact elementwise, so entry (i, j) is the segmented dots of
    ``first[j] - second[i]`` bit for bit.  For finite features a non-finite
    entry can only be an overflow, which raises ValueError.
    """
    (n, d), m = second.shape, first.shape[0]
    out = np.empty((n, m))
    step = max(1, min(m, _SQDIST_BLOCK // d))
    diffs, tile = np.empty((2, step, d))
    with np.errstate(over="ignore"):
        for i in range(n):
            np.copyto(tile, second[i])
            for j in range(0, m, step):
                block = np.subtract(first[j : j + step], tile[: m - j], out=diffs[: m - j])
                _segmented_dots(block, out[i, j : j + step])
    # entries are sums of squares, so an inf or a NaN shows in the max
    if not np.isfinite(out.max()):
        raise ValueError("squared distances overflow float64; rescale the features")
    return out


def sqdist_entries(second: np.ndarray, first: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``pairwise_sqdist(second, first)[rows, cols]`` bit for bit, computed at those entries only.

    The differences ``first[cols] - second[rows]`` are gathered a block of
    at most ``_SQDIST_BLOCK`` elements (or one entry, if d is larger) at a
    time, and each entry is then the kernel's ``_segmented_dots``: the
    same BLAS dot of the same differences.  Gathering all entries at once
    would allocate k x d floats, 3 MB for 188 entries at d = 2000, and
    freeing a block that large moves glibc's mmap threshold, which changes
    how fast later large temporaries in the process are served.
    """
    step = max(1, _SQDIST_BLOCK // second.shape[1])
    out = np.empty(rows.size)
    for k in range(0, rows.size, step):
        diffs = first.take(cols[k : k + step], axis=0)
        diffs -= second.take(rows[k : k + step], axis=0)
        _segmented_dots(diffs, out[k : k + step])
    return out


# Most multiply-adds in one GEMM call of gemm_sqdist: OpenBLAS runs a dgemm
# of at most SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 on the
# calling thread.  One call of 100 x 100 x 2000 on its two threads had a p50
# of 0.56 ms but a p90 of 56 ms, the helper's wake-up on a sleeping vCPU.
_GEMM_TILE = 2**18
# Columns of a GEMM tile when a full-width tile would hold fewer than four
# rows.  Measured tiles (2-CPU VM, p50 of 21 calls) at 800 x 1000 x 128:
# 2 x 1000 took 44 ms, 16 x 128 9.5 ms, 64 x 32 6.9 ms; at 100 x 100 x 2000,
# 4 x 32 took 1.75 ms and 2 x 64 2.4 ms.
_GEMM_COLS = 32
# An entry of the expansion at most _EXACT_RATIO times its row's bound, or
# at most _EXACT_BELOW, is recomputed by the kernel.  _EXACT_BELOW lies above
# LSL's floor (estimators.DEFAULT_SQDIST_FLOOR, 1e-30), so no entry that
# floor could clamp is left to the expansion.
_EXACT_RATIO = 2.0**20
_EXACT_BELOW = 1e-28
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True, eq=False)
class BoundedSqdist:
    """Squared distances within a per-row bound of the kernel's; ``gemm_sqdist`` builds them.

    ``values[i, j]`` differs from ``pairwise_sqdist``'s entry (i, j) by at
    most ``bound[i, 0]``, and every entry the kernel did not compute is at
    least ``lows[i, 0]``.  ``bound`` and ``lows`` are None when ``values`` is
    the kernel's own matrix.  All three are read-only.
    """

    values: np.ndarray
    bound: np.ndarray | None = None
    lows: np.ndarray | None = None


def _tile_starts(size: int, step: int) -> list[int]:
    """Starts of the tiles of ``step`` along ``size``; a last tile of one is started one earlier.

    A one-row or one-column tile would be a BLAS gemv, which OpenBLAS
    threads at a smaller size than a gemm.  The overlapped row or column is
    computed twice, by tiles of fixed shapes, so the result is deterministic.
    """
    return [min(start, size - 2) if size - start == 1 else start for start in range(0, size, step)]


def gemm_sqdist(second: np.ndarray, first: np.ndarray) -> BoundedSqdist:
    """Squared distances by the GEMM expansion, each within its row's bound of ``pairwise_sqdist``.

    Entry (i, j) is ||b_i||^2 + ||a_j||^2 - 2<b_i, a_j> for b_i = second[i]
    and a_j = first[j]; the products come from tiled ``np.matmul`` calls of
    at most ``_GEMM_TILE`` multiply-adds, so none wakes a BLAS helper
    thread, and the norms from ``np.einsum``, which calls no BLAS.

    The bound rests on Higham 2002, section 3.1: a dot product of length k
    computed in any order, with or without FMA, is within gamma_k |x|.|y|
    of the exact one, gamma_k = k u / (1 - k u), u = 2^-53.  With
    S = ||a||^2 + ||b||^2 and D the exact squared distance:

    - the kernel rounds each difference once and then dots them, so it is
      within gamma_{d+2} D <= 2 gamma_{d+2} S of D;
    - the expansion's two norms and its product are within 2 gamma_d S of
      theirs together, and its two additions, over terms that sum to at
      most 2 S (1 + gamma_d), add at most 2 gamma_2 S (1 + gamma_d), so it
      is within 2 gamma_{d+2} S of D.

    So |expansion - kernel| <= 4 gamma_{d+2} S.  The row bound is
    4 gamma_{d+4} (||b_i||^2 + max_j ||a_j||^2) on the computed norms; the
    slack of gamma_{d+4} over gamma_{d+2}, at least 2/(d+4) relative, covers
    the norms' own rounding and that of the bound's arithmetic.

    An entry at most ``_EXACT_RATIO`` times its row's bound, or at most
    ``_EXACT_BELOW``, is recomputed by ``sqdist_entries``: cancellation
    swamps it, and a coincident pair must read the kernel's value.  If more
    than n + m entries need that, or the norms come near overflow, or a tile
    of two rows and two columns would exceed ``_GEMM_TILE`` (d > 65536), or
    there is one second-set row, the result is the kernel's matrix itself
    (``pairwise_sqdist``, which raises on overflow).
    """
    (n, d), m = second.shape, first.shape[0]
    budget = _GEMM_TILE // d  # most rows x columns of one tile
    if n < 2 or budget < 4:
        return BoundedSqdist(_readonly(pairwise_sqdist(second, first)))
    first_norms = np.einsum("ij,ij->i", first, first)
    second_norms = np.einsum("ij,ij->i", second, second)
    top = first_norms.max()
    if not top + second_norms.max() < 2.0**1020:  # then no sum or product below can overflow
        return BoundedSqdist(_readonly(pairwise_sqdist(second, first)))
    cols = m if budget >= 4 * m else min(m, _GEMM_COLS, budget // 2)
    rows = min(n, budget // cols)
    values = np.empty((n, m))
    scaled = -2.0 * second  # exact: a power of two
    for i in _tile_starts(n, rows):
        for j in _tile_starts(m, cols):
            np.matmul(scaled[i : i + rows], first[j : j + cols].T, out=values[i : i + rows, j : j + cols])
    values += second_norms[:, None]
    values += first_norms
    k = d + 4
    bound = 4.0 * (k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)) * (second_norms + top)
    limit = _EXACT_RATIO * bound + _EXACT_BELOW
    lows = values.min(axis=1)
    near = (lows <= limit).nonzero()[0]
    if near.size:
        at, cols_at = (values[near] <= limit[near, None]).nonzero()
        if at.size > n + m:
            return BoundedSqdist(_readonly(pairwise_sqdist(second, first)))
        rows_at = near[at]
        values[rows_at, cols_at] = sqdist_entries(second, first, rows_at, cols_at)
    # an entry left to the expansion exceeds its row's limit and is at least its row's minimum
    np.maximum(lows, limit, out=lows)
    return BoundedSqdist(_readonly(values), _readonly(bound[:, None]), _readonly(lows[:, None]))


def random_permutation(rng: np.random.Generator, n: int) -> Permutation:
    """Uniform draw from the symmetric group by Fisher-Yates.

    All n - 1 swap indices come from one generator call; numpy draws each
    bounded integer of an array-bounded call exactly as it would draw it
    alone, so the stream is that of one ``rng.integers(0, i + 1)`` per swap.
    """
    a = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        a[i], a[j] = a[j], a[i]
    return Permutation(a)


@dataclass(frozen=True, eq=False)
class MatchInstance:
    """Two observed feature sets plus what is known about their noise/pairing.

    ``second.vectors[i]`` is the noisy copy of ``first``'s feature at index
    ``truth.map[i]`` when the ground truth is known (synthetic data).  Noise
    specs may be None when levels are unknown (e.g. data read from CSV).
    """

    first: FeatureSet
    second: FeatureSet
    first_noise: NoiseSpec | None = None
    second_noise: NoiseSpec | None = None
    truth: Permutation | None = None

    def __post_init__(self):
        if self.first.d != self.second.d:
            raise ValueError(
                f"feature dimensions differ: {self.first.d} vs {self.second.d}"
            )
        if self.second.n > self.first.n:
            raise ValueError(
                "second set may not be larger than the first "
                f"({self.second.n} > {self.first.n}); swap the sides"
            )
        if self.first_noise is not None:
            self.first_noise.levels_for(self.first.n)  # length check
        if self.second_noise is not None:
            self.second_noise.levels_for(self.second.n)
        if self.truth is not None:
            if self.truth.n != self.second.n or self.truth.codomain != self.first.n:
                raise ValueError("truth permutation shape does not match the instance")

    @cached_property
    def sqdist(self) -> np.ndarray:
        """Read-only squared distances from the exact kernel, entry (i, j) = ||first[j] - second[i]||^2.

        Computed on first access and kept; safe on the frozen instance
        because both feature matrices are read-only.  Variance-greedy reads
        it on every call; greedy reads it only when its margin check fails,
        and the other estimators read ``bounded_sqdist``.
        """
        return _readonly(pairwise_sqdist(self.second.vectors, self.first.vectors))

    @cached_property
    def bounded_sqdist(self) -> BoundedSqdist:
        """``gemm_sqdist`` of the instance's features: what its estimators solve on.

        Computed on first access and kept, as ``sqdist`` is.
        """
        return gemm_sqdist(self.second.vectors, self.first.vectors)


def generate_instance(
    theta: FeatureSet, noise: NoiseSpec, truth: Permutation, seed: int
) -> MatchInstance:
    """Draw one noisy matching problem from the observation model.

    The first set observes every template feature once; the second set
    observes the templates reordered by ``truth``, with levels travelling
    along (second level i = first level at truth(i)).  The two Gaussian
    perturbations are independent and fully determined by ``seed``.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    n, d = theta.n, theta.d
    levels = noise.levels_for(n)
    if truth.codomain != n:
        raise ValueError(f"truth permutation codomain {truth.codomain} != n = {n}")
    rng = np.random.default_rng(seed)
    first = standard_gaussian(rng, (n, d))
    second = standard_gaussian(rng, (truth.n, d))
    # theta + level * xi, computed in the noise buffers; a sum's bits do not
    # depend on the order of its two terms
    np.multiply(levels[:, None], first, out=first)
    first += theta.vectors
    np.multiply(levels[truth.map][:, None], second, out=second)
    second += theta.vectors[truth.map]
    return MatchInstance(
        first=FeatureSet(first),
        second=FeatureSet(second),
        first_noise=noise,
        second_noise=noise.permuted(truth),
        truth=truth,
    )


def uniform_box_features(n: int, d: int, tau: float, seed: int) -> FeatureSet:
    """n x d template matrix with i.i.d. entries uniform on [0, tau].

    tau = 0 is allowed and yields the all-zero (fully degenerate) template.
    """
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    return FeatureSet(rng.random((n, d)) * tau)


def scaled_identity_features(n: int, tau: float) -> FeatureSet:
    """Templates tau * e_i: the i-th feature is the i-th scaled basis vector."""
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    return FeatureSet(tau * np.eye(n))


def least_favorable_features(noise_levels, kappa: float, d: int = 1) -> FeatureSet:
    """Templates on a line that make the matching problem as hard as allowed.

    Consecutive features are grouped into pairs (1,2), (3,4), ...; within
    each pair the noise-normalized distance is exactly ``kappa`` while every
    other pair of features is separated by strictly more than
    ``kappa * (1 + r)`` in normalized distance, where r = max level / min
    level.  The inter-pair gap is sized so the strict separation holds for
    every noise scale (gap = kappa*(1+r)*sqrt(2)*max level, plus a hair).

    Levels must be sorted in ascending order.  With an odd count the last
    feature sits alone at one full gap past the final pair.
    """
    levels = np.asarray(noise_levels, dtype=float)
    if levels.ndim != 1 or levels.size < 2:
        raise ValueError("need at least two noise levels")
    if np.any(~np.isfinite(levels)) or np.any(levels <= 0):
        raise ValueError("every noise level must be positive and finite")
    if np.any(np.diff(levels) < 0):
        raise ValueError("noise levels must be sorted in ascending order")
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if d < 1:
        raise ValueError("d must be at least 1")
    n = levels.size
    m = n // 2
    r = float(levels[-1] / levels[0])
    gap = kappa * (1.0 + r) * math.sqrt(2.0) * float(levels[-1]) * (1.0 + 1e-9)
    pos = np.zeros(n)
    cur = 0.0
    for k in range(m):
        a, b = 2 * k, 2 * k + 1
        if k > 0:
            cur += gap
        pos[a] = cur
        pos[b] = cur + kappa * math.hypot(levels[a], levels[b])
        cur = pos[b]
    if n % 2:
        pos[n - 1] = cur + gap
    vectors = np.zeros((n, d))
    vectors[:, 0] = pos
    return FeatureSet(vectors)


# Hypothesis range and noise levels of the adversarial two-feature configuration below.
_ADVERSARIAL_MIN_D = math.ceil(225 * math.log(6))  # = 404
ADVERSARIAL_NOISE = NoiseSpec.heteroscedastic([math.sqrt(3.0), 1.0])


def adversarial_pair_features(d: int, kappa: float) -> FeatureSet:
    """The two templates of the greedy-adversarial configuration.

    theta_1 = 0 and theta_2 = 2*kappa*e_1, so with levels (sqrt(3), 1) the
    noise-normalized separation equals kappa exactly.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    vectors = np.zeros((2, d))
    vectors[1, 0] = 2.0 * kappa
    return FeatureSet(vectors)


def greedy_adversarial_instance(d: int, kappa: float, seed: int) -> MatchInstance:
    """A two-feature instance on which greedy matching provably fails often.

    High-dimensional, with one noisy feature (variance 3) and one clean
    feature (variance 1) at distance 2*kappa; the truth is the identity.
    In the regime d >= 404 and kappa < 0.1*sqrt(2d), nearest-neighbor
    matching errs with probability at least 1/2.  Outside that regime a
    HypothesisRangeWarning is emitted and the instance is produced anyway,
    so sweeps may cross the boundary.
    """
    if d < _ADVERSARIAL_MIN_D:
        warnings.warn(
            f"d = {d} is below {_ADVERSARIAL_MIN_D}; the greedy failure rate "
            "is no longer guaranteed",
            HypothesisRangeWarning,
            stacklevel=2,
        )
    limit = 0.1 * math.sqrt(2.0 * d)
    if kappa >= limit:
        warnings.warn(
            f"kappa = {kappa} is not below 0.1*sqrt(2d) = {limit:.6g}; the "
            "greedy failure rate is no longer guaranteed",
            HypothesisRangeWarning,
            stacklevel=2,
        )
    theta = adversarial_pair_features(d, kappa)
    return generate_instance(theta, ADVERSARIAL_NOISE, Permutation.identity(2), seed)


# ---------------------------------------------------------------------------
# CSV ingestion: one feature per row, schema  id,x1,...,xd[,sigma]
# ---------------------------------------------------------------------------

def _csv_header(d: int, has_sigma: bool) -> list[str]:
    return ["id"] + [f"x{k}" for k in range(1, d + 1)] + (["sigma"] if has_sigma else [])


def _load_body(body: str, ncols: int) -> np.ndarray | None:
    """The body's rows parsed in one ``np.loadtxt`` call, or None if the row loop must decide.

    loadtxt converts each field as float() does, but rejects some strings
    float() accepts (``1_0``, non-ASCII digits) and cannot follow csv
    quoting, which may join lines or hide commas.  So a body with a quote,
    any loadtxt error or warning, or a table that is not ``ncols`` wide
    with at least one row, returns None, and the row loop reads the body
    again and names the offending line.
    """
    if '"' in body:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.StringIO(body), delimiter=",", comments=None, ndmin=2, converters={0: lambda field: 0.0}
            )
    except Exception:
        return None
    if table.shape[0] < 1 or table.shape[1] != ncols:
        return None
    return table


def _allowed_entries(table: np.ndarray, has_sigma: bool) -> np.ndarray:
    """Which entries of a feature table, or of one row, a feature file may hold.

    Every value must be finite (``1e400`` reads as inf), and a sigma must
    also be positive.
    """
    allowed = np.isfinite(table)
    if has_sigma:
        allowed[..., -1] &= table[..., -1] > 0
    return allowed


def read_features_csv(path) -> tuple[FeatureSet, NoiseSpec | None]:
    """Read a feature file; returns the features and, if present, the levels.

    The header row is required.  A trailing ``sigma`` column, when present,
    carries per-feature noise levels.  Ids may be any text; they are not
    read.  The body is parsed in one ``np.loadtxt`` call when it can be,
    and otherwise row by row into the same table layout; both give the same
    values.  A table that holds a non-finite value, or a sigma that is not
    positive, is read again row by row, so that the error names its line.
    Every error, a csv-module one included, is a ValueError that names the
    file and, for a bad row or field, its physical line.  A header needs an
    ``x1`` column (``header must be id,x1``); a field fails with ``could not
    convert string to float``, ``x2 must be finite`` or ``sigma must be
    positive and finite``.
    """
    rows = None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, expected a header row") from None
            header = [h.strip() for h in header]
            if not header or header[0] != "id":
                raise ValueError(f"{path}: first header column must be 'id', got {header[:1]}")
            has_sigma = header[-1] == "sigma"
            ncols = len(header)
            d = ncols - 2 if has_sigma else ncols - 1
            expected = _csv_header(max(d, 1), has_sigma)
            if header != expected:
                raise ValueError(f"{path}: header must be {','.join(expected)}, got {','.join(header)}")
            body = fh.read()
        table = _load_body(body, ncols)
        if table is None or not _allowed_entries(table, has_sigma).all():
            rows, parsed = csv.reader(io.StringIO(body, newline="")), []
            for row in rows:
                if not row:
                    continue
                lineno = reader.line_num + rows.line_num
                if len(row) != ncols:
                    raise ValueError(f"{path}:{lineno}: expected {ncols} columns, got {len(row)}")
                try:
                    # numpy parses each str as float() does, and raises the same ValueError
                    values = np.array(["0", *row[1:]], dtype=float)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                allowed = _allowed_entries(values, has_sigma)
                if not allowed.all():
                    k = int(allowed.argmin())
                    rule = "positive and finite" if header[k] == "sigma" else "finite"
                    raise ValueError(f"{path}:{lineno}: {header[k]} must be {rule}, got {row[k]!r}")
                parsed.append(values)
            if not parsed:
                raise ValueError(f"{path}: no feature rows")
            table = np.array(parsed)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num + (rows.line_num if rows else 0)}: {exc}") from None
    noise = NoiseSpec.heteroscedastic(table[:, -1]) if has_sigma else None
    return FeatureSet(table[:, 1 : d + 1]), noise


def write_features_csv(path, features: FeatureSet, noise: NoiseSpec | None = None) -> None:
    """Write a feature file in the same schema the reader accepts."""
    levels = noise.levels_for(features.n) if noise is not None else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(features.d, levels is not None))
        for i in range(features.n):
            row = [str(i + 1)] + [repr(float(x)) for x in features.vectors[i]]
            if levels is not None:
                row.append(repr(float(levels[i])))
            writer.writerow(row)


def load_instance_csv(first_path, second_path) -> MatchInstance:
    """Build a truth-free match instance from two feature files."""
    first, first_noise = read_features_csv(first_path)
    second, second_noise = read_features_csv(second_path)
    return MatchInstance(
        first=first,
        second=second,
        first_noise=first_noise,
        second_noise=second_noise,
        truth=None,
    )
