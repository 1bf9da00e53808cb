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
``pairwise_sqdist`` is the one feature-to-feature distance kernel: every
estimator cost and the template separation are transforms of its output.
It blocks both sets, up to ``_SQDIST_BLOCK`` differences per block, into
two buffers from one allocation per call: a small instance takes a few
numpy calls, not a few per row, and no step allocates a block, so the kernel's
speed does not depend on the state of the process's heap.
The second buffer holds each second-set block repeated across a first-set
block, so every subtraction runs over contiguous operands in one long
inner loop.  A block takes several second-set rows, so each read of a
first-set block serves all of them.  Each block's squared norms are one
``np.vecdot`` pass, a BLAS dot per entry; a dot longer than
``_DOT_SEGMENT`` (8192) elements is split into segments added in index
order, so the bits depend on the BLAS core kernel but not on its thread
count.
``MatchInstance.sqdist`` holds its result for an instance, computed on
first use and then shared by every estimator run on that instance.
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
    "pairwise_sqdist",
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
# Second-set rows of a pairwise_sqdist block when the first set spans
# several blocks; from a scan of 1, 2, 4 and 8 (see pairwise_sqdist).
_SQDIST_ROWS = 4


def _sqdist_blocks(n: int, m: int, d: int) -> tuple[int, int]:
    """(second-set rows, first-set rows) of one pairwise_sqdist block.

    The whole first set if it fits, with as many second-set rows as fit
    beside it; otherwise ``_SQDIST_ROWS`` second-set rows (fewer above
    d = 2^13) and as many first-set rows as fit.  A block never holds more
    than ``max(_SQDIST_BLOCK, d)`` elements.
    """
    fstep = max(1, min(m, _SQDIST_BLOCK // d))
    if fstep == m:
        return max(1, min(n, _SQDIST_BLOCK // (m * d))), m
    sstep = max(1, min(n, _SQDIST_ROWS, _SQDIST_BLOCK // d))
    return sstep, max(1, min(m, _SQDIST_BLOCK // (sstep * d)))


def pairwise_sqdist(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Squared distances, entry (i, j) = ||first[j] - second[i]||^2.

    Computes blocks of (second-set rows) x (first-set rows) x d differences
    in two buffers of at most ``_SQDIST_BLOCK`` elements each (or d, if d is
    larger), taken from one allocation per call: no cancellation-prone
    ||a||^2 + ||b||^2 - 2 a.b expansion, no (n x m x d) intermediate, and no
    temporary per step, so the kernel's speed does not hang on the
    allocator's state.  Two separate allocations did: glibc then trimmed
    the heap top on every call, and the page faults made 50 x 50 at d = 50
    ~1.5x slower.  Blocking both sets makes a small instance a few numpy
    calls instead of a few per row (50 x 50 at d = 50 takes 4 steps, not
    50).  The second buffer, the tile, is filled once per second-set block
    with that block's rows, each repeated across a first-set block.
    Subtracting a broadcast row would run one d-long inner loop per
    first-set row; subtracting from the tile runs over contiguous operands
    in one loop of the whole block, ~1.4x faster per element at d = 128.
    Subtraction is exact elementwise, so the loop shape does not change a
    bit.  When the first set spans several blocks, a block takes four
    second-set rows (``_SQDIST_ROWS``) and a quarter as many first-set
    rows, so each first-set block is read, and the tile filled, once for
    four rows rather than once per row.  In a scan of 1, 2, 4 and 8 rows
    (2-CPU VM, median of 9), four took 0.83x the one-row time at
    100 x 100 x 2000, 0.86x at 200^3 and 0.97x at 800 x 1000 x 128; eight
    was slower than one on three of the four shapes.  Above d = 2^13 the
    rows are capped so a block still holds at most d elements.  Each entry
    is then one ``np.vecdot`` of its difference with
    itself, a BLAS dot of the same nonnegative squares: bit-equal to
    ``np.vecdot(first[j] - second[i], first[j] - second[i])`` whatever the
    block shape.  Its bits depend on the BLAS core kernel, but not on the
    BLAS thread count: above ``_DOT_SEGMENT`` elements the dot is split into
    segments of that length, each run on one thread, and their dots (a few
    values per step) are added in index order.  For finite features a
    non-finite entry can only be an overflow, which raises ValueError.
    """
    (n, d), m = second.shape, first.shape[0]
    out = np.empty((n, m))
    sstep, fstep = _sqdist_blocks(n, m, d)
    buf, tile = np.empty((2, sstep, fstep, d))
    firsts, diffs = first[None], buf
    if fstep == m:
        # The whole first set is one block: repeat it once into buf and take
        # the differences in the tile, so that no subtraction broadcasts (a
        # broadcasting ufunc allocates iterator buffers on every call).
        # Otherwise each first-set block is broadcast across the block's
        # second-set rows: repeating it would be a copy per step.
        firsts, diffs = buf, tile
        np.copyto(buf, first[None])
    with np.errstate(over="ignore"):
        for i in range(0, n, sstep):
            rows = tile[: n - i]
            np.copyto(rows, second[i : i + sstep, None])
            for j in range(0, m, fstep):
                b = np.subtract(firsts[: n - i, j : j + fstep], rows[:, : m - j], out=diffs[: n - i, : m - j])
                block = out[i : i + sstep, j : j + fstep]
                np.vecdot(b[..., :_DOT_SEGMENT], b[..., :_DOT_SEGMENT], out=block)
                for k in range(_DOT_SEGMENT, d, _DOT_SEGMENT):
                    block += np.vecdot(b[..., k : k + _DOT_SEGMENT], b[..., k : k + _DOT_SEGMENT])
    # entries are sums of squares, so an inf or a NaN shows in the max
    if not np.isfinite(out.max()):
        raise ValueError("squared distances overflow float64; rescale the features")
    return out


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
        """Read-only squared distances, entry (i, j) = ||first[j] - second[i]||^2.

        Computed on first access and kept; safe on the frozen instance
        because both feature matrices are read-only.
        """
        return _readonly(pairwise_sqdist(self.second.vectors, self.first.vectors))


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
