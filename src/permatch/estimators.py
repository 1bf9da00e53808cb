"""Permutation estimators for matching two noisy feature sets.

Cost-matrix orientation — read this before touching anything
------------------------------------------------------------
Rows index the SECOND set, columns index the FIRST set: entry (i, j) is the
cost of matching second-set feature i to first-set feature j.  Solving the
assignment over such a matrix yields pi with pi(i) = the first-set index
matched to the i-th second-set feature, which is exactly how a ground-truth
permutation is stored on a MatchInstance.

Every cost is a transform of one distance matrix, the instance's
``sqdist`` (entry (i, j) = ||X_j - X#_i||^2), which is computed once per
instance and shared by all estimators run on it.

The estimators:

- greedy: sequential nearest neighbor without replacement, second-set
  features processed in index order (the result is order-dependent by
  design; the order is fixed, not configurable).
- LSS (least sum of squares): assignment under squared distances; the
  likelihood maximizer when all noise levels are equal.
- LSNS (least sum of normalized squares): squared distances divided by the
  summed variances of the two features; needs known levels.  When each side
  has one shared level (both noise specs hold a single ``sigma``), that
  divisor is a constant, so LSNS has LSS's minimiser and uses LSS's cost
  and solution: one solve serves both, whichever runs first, and LSNS's
  result does not depend on whether LSS runs.  Per-feature levels, even
  equal ones, get their own LSNS cost and solve.
- LSL (least sum of logarithms): assignment under log squared distances;
  the likelihood maximizer when levels are unknown but travel with the
  features.  A floor on the squared distance keeps the log finite on
  degenerate (coincident) inputs.
- variance-greedy: matches on noise levels alone by comparing per-pair
  mean squared distances to the first set's variances; works even when all
  templates coincide, provided levels differ.

A linear matching criterion A(x - b) = A#(x# - b#) is not an estimator of
its own: ``reduce_criterion`` builds its ``CriterionReduction``, whose
``apply`` maps an instance into the criterion's comparison space, and any
estimator runs on the result.  General LSL is LSL on it.

Solve-ahead
-----------
An instance keeps what its estimators build: the LSS, LSNS and LSL costs
(``_kept_cost``), each of which keeps its solution, and greedy's map.  So
each is built and solved once however often it is asked for, and
``solve_together`` can build and solve them ahead for a stream of
instances.  It builds each arriving instance's distinct costs at once,
while a freshly drawn instance's features are still in cache, and holds
the instance.  The held batch flushes when one more instance like the last
would take the held bytes past ``_BATCH_BYTES`` (32 MiB, counted from what
each instance holds), when an instance of another shape arrives (a batch
holds one shape), and at the end of the stream.  A flush hands the batch's
distinct costs to ``solve_in_lockstep``, which keeps each solution with its
cost, and, when the kinds include greedy, runs greedy on the batch's
stacked distance matrices, one ``argmin`` per row for all of them, keeping
each map with its instance; the held instances are then yielded, before
the next one is taken from the stream (``run_experiment``'s stream may
have drawn it already; see the ``permatch.harness`` module docstring,
*Draws*).  Every result still passes through ``estimate``:
a kept solution through ``solve_hungarian``, which returns it without
solving again, and a kept greedy map through ``estimate_greedy``, which
builds its Permutation.  So the results are those of one instance at a
time, and code that replaces either function, such as the benchmark's
tracer or a test, sees every result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import CostMatrix, solve_hungarian, solve_in_lockstep
from .model import FeatureSet, MatchInstance, Permutation

__all__ = [
    "DEFAULT_SQDIST_FLOOR",
    "EstimatorKind",
    "CriterionReduction",
    "GREEDY",
    "LSS",
    "LSNS",
    "LSL",
    "VARIANCE_GREEDY",
    "ESTIMATOR_NAMES",
    "cost_lss",
    "cost_lsns",
    "cost_lsl",
    "reduce_criterion",
    "solve_together",
    "estimate",
    "estimate_greedy",
    "estimate_variance_greedy",
]

# Floor on squared distances before taking logs.  Gaussian data never
# collides, so this only guards duplicated/degenerate inputs while keeping
# exact matches strongly rewarded.
DEFAULT_SQDIST_FLOOR = 1e-30

_SVD_RANK_RTOL = 1e-10  # relative to the largest singular value
_ORTHONORMAL_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class CriterionReduction:
    """Pre-transforms reducing a linear matching criterion to x̄ = B x̄#.

    ``V`` and ``V_sharp`` have orthonormal rows and map raw features (minus
    the offsets ``b``/``b_sharp``) into the criterion's comparison spaces;
    ``B`` relates the two sides there.  Orthonormal rows keep the
    transformed noise white.  ``apply`` maps an instance through the
    reduction, and every estimator runs on the result.
    """

    B: np.ndarray
    V: np.ndarray
    V_sharp: np.ndarray
    b: np.ndarray
    b_sharp: np.ndarray

    def __post_init__(self):
        B = np.array(self.B, dtype=float, copy=True)
        V = np.array(self.V, dtype=float, copy=True)
        Vs = np.array(self.V_sharp, dtype=float, copy=True)
        if B.ndim != 2 or V.ndim != 2 or Vs.ndim != 2:
            raise ValueError("B, V and V_sharp must be matrices")
        if B.shape != (V.shape[0], Vs.shape[0]):
            raise ValueError(
                f"B must be {V.shape[0]} x {Vs.shape[0]} to match the row spaces, got {B.shape}"
            )
        for name, mat in (("V", V), ("V_sharp", Vs)):
            gram = mat @ mat.T
            if not np.allclose(gram, np.eye(mat.shape[0]), atol=_ORTHONORMAL_ATOL):
                raise ValueError(f"{name} must have orthonormal rows")
        b = np.array(self.b, dtype=float, copy=True).reshape(-1)
        bs = np.array(self.b_sharp, dtype=float, copy=True).reshape(-1)
        if b.size != V.shape[1] or bs.size != Vs.shape[1]:
            raise ValueError("offset lengths must match the ambient dimension")
        for name, arr in (("B", B), ("V", V), ("V_sharp", Vs), ("b", b), ("b_sharp", bs)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls, d: int) -> "CriterionReduction":
        eye = np.eye(d)
        zero = np.zeros(d)
        return cls(B=eye, V=eye, V_sharp=eye, b=zero, b_sharp=zero)

    def apply(self, instance: MatchInstance) -> MatchInstance:
        """The instance in the criterion's comparison space; it keeps the truth and has no noise specs.

        Transforms both sides (x̄ = V(x - b), x̄# = V#(x# - b#)), forms
        M = B(B^T B)^+ B^T + B B^T, and returns first features M^+ x̄_j and
        second features M^+ B x̄#_i, so a pair's squared distance is
        ||M^+ (x̄_j - B x̄#_i)||^2 and LSL on the result is general LSL.  For
        orthogonal B, M = 2I and M^+ halves the residual, a pure rescaling
        of the transformed features.
        """
        if self.V.shape[1] != instance.first.d or self.V_sharp.shape[1] != instance.second.d:
            raise ValueError(
                f"reduction expects ambient dimensions ({self.V.shape[1]}, "
                f"{self.V_sharp.shape[1]}), instance has ({instance.first.d}, {instance.second.d})"
            )
        B = self.B
        first_t = (instance.first.vectors - self.b) @ self.V.T
        second_t = (instance.second.vectors - self.b_sharp) @ self.V_sharp.T
        M = B @ np.linalg.pinv(B.T @ B) @ B.T + B @ B.T
        M_pinv = np.linalg.pinv(M)
        return MatchInstance(
            first=FeatureSet(first_t @ M_pinv.T),
            second=FeatureSet((second_t @ B.T) @ M_pinv.T),
            truth=instance.truth,
        )


# The estimators, by the names the CLI, config files and EstimatorKind take.
ESTIMATOR_NAMES = ("greedy", "lss", "lsns", "lsl", "variance-greedy")


@dataclass(frozen=True)
class EstimatorKind:
    """A named estimator; ``tag`` is one of ESTIMATOR_NAMES."""

    tag: str

    def __post_init__(self):
        if self.tag not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.tag!r}; expected one of {ESTIMATOR_NAMES}")

    @classmethod
    def from_name(cls, name: str) -> "EstimatorKind":
        return cls(tag=name.strip().lower())


GREEDY = EstimatorKind("greedy")
LSS = EstimatorKind("lss")
LSNS = EstimatorKind("lsns")
LSL = EstimatorKind("lsl")
VARIANCE_GREEDY = EstimatorKind("variance-greedy")


def cost_lss(instance: MatchInstance) -> CostMatrix:
    """Squared-distance costs: entry (i, j) = ||X_j - X#_i||^2."""
    return CostMatrix(instance.sqdist)


def _instance_levels(instance: MatchInstance) -> tuple[np.ndarray, np.ndarray]:
    if instance.first_noise is None or instance.second_noise is None:
        raise ValueError("this estimator needs known noise levels on both sides")
    return (
        instance.first_noise.levels_for(instance.first.n),
        instance.second_noise.levels_for(instance.second.n),
    )


def cost_lsns(instance: MatchInstance) -> CostMatrix:
    """Noise-normalized costs: entry (i, j) = ||X_j - X#_i||^2 / (s_j^2 + s#_i^2)."""
    first_levels, second_levels = _instance_levels(instance)
    denom = first_levels[None, :] ** 2 + second_levels[:, None] ** 2
    return CostMatrix(instance.sqdist / denom)


def cost_lsl(instance: MatchInstance) -> CostMatrix:
    """Log squared-distance costs: entry (i, j) = log(max(||X_j - X#_i||^2, DEFAULT_SQDIST_FLOOR))."""
    return CostMatrix(np.log(np.maximum(instance.sqdist, DEFAULT_SQDIST_FLOOR)))


def reduce_criterion(A, A_sharp, b=None, b_sharp=None) -> CriterionReduction:
    """Reduce the criterion A(x - b) = A#(x# - b#) to comparison form.

    Thin SVDs A = U^T Lambda V and A# = U#^T Lambda# V# (singular values
    below 1e-10 of the largest are treated as zero) give row-orthonormal V,
    V# and B = Lambda^{-1} U U#^T Lambda#, so that features transformed by
    x̄ = V(x - b), x̄# = V#(x# - b#) match exactly when x̄ = B x̄#.
    """
    A = np.asarray(A, dtype=float)
    A_sharp = np.asarray(A_sharp, dtype=float)
    if A.ndim != 2 or A_sharp.ndim != 2:
        raise ValueError("A and A_sharp must be matrices")
    if A.shape[0] != A_sharp.shape[0]:
        raise ValueError(f"A and A_sharp must share their row count, got {A.shape[0]} vs {A_sharp.shape[0]}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(A_sharp))):
        raise ValueError("criterion matrices must be finite")
    b = np.zeros(A.shape[1]) if b is None else np.asarray(b, dtype=float).reshape(-1)
    b_sharp = np.zeros(A_sharp.shape[1]) if b_sharp is None else np.asarray(b_sharp, dtype=float).reshape(-1)

    def thin(mat):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        if s.size == 0 or s[0] <= 0:
            raise ValueError("criterion matrix has rank 0")
        # s[0] > 0 exceeds _SVD_RANK_RTOL * s[0], so the rank is at least 1
        rank = int(np.sum(s > _SVD_RANK_RTOL * s[0]))
        return u[:, :rank], s[:rank], vt[:rank]

    u1, s1, v1 = thin(A)
    u2, s2, v2 = thin(A_sharp)
    B = (u1.T @ u2) * s2[None, :] / s1[:, None]
    return CriterionReduction(B=B, V=v1, V_sharp=v2, b=b, b_sharp=b_sharp)


def _greedy_rows(stack: np.ndarray) -> np.ndarray:
    """Greedy maps of a (B, n2, n1) stack of scores, as a (B, n2) index array.

    In each of the B instances, each row in index order takes its smallest
    untaken column; ties go to the lowest index.  Row i of all B instances
    is one ``argmin``.  ``stack`` is overwritten: a taken column becomes
    +inf in the rows below.
    """
    lanes = np.arange(stack.shape[0])
    maps = np.empty(stack.shape[1::-1], dtype=np.intp)  # row i of every instance, contiguous
    for i, taken in enumerate(maps):
        stack[:, i].argmin(axis=1, out=taken)
        stack[lanes, i + 1 :, taken] = np.inf
    return maps.T


# Key in a MatchInstance's __dict__ under which greedy's map is kept, as
# cached_property keeps ``sqdist``.
_GREEDY_KEY = "_greedy"


def _keep_greedy(instances) -> None:
    """Run greedy on the same-shape instances as one stack, and keep each map with its instance.

    The maps stay index rows until ``estimate_greedy`` builds a
    Permutation.  Building the Permutations here, while the batch's buffers
    are live, left a large free block under a live chunk of the heap after
    every other homo-hd sweep, and the benchmark's calibration spin reads
    that heap state (ROADMAP item 1).
    """
    maps = _greedy_rows(np.stack([instance.sqdist for instance in instances]))
    for instance, mapping in zip(instances, maps):
        instance.__dict__[_GREEDY_KEY] = mapping


def estimate_greedy(instance: MatchInstance) -> Permutation:
    """Nearest neighbor without replacement, second-set rows in index order.

    Ties go to the smallest first-set index.  The map is kept with the
    instance, so ``solve_together`` may compute it ahead for a batch.
    """
    if _GREEDY_KEY not in instance.__dict__:
        _keep_greedy([instance])
    return Permutation(instance.__dict__[_GREEDY_KEY], codomain=instance.first.n)


def estimate_variance_greedy(instance: MatchInstance) -> Permutation:
    """Sequential matching on noise levels alone.

    For each second-set feature j in index order, picks the unused
    first-set feature i minimizing |mean squared coordinate gap / 2 - s_i^2|:
    under a correct match that gap estimates s_i^2.  Ties go to the
    smallest i.  Needs the first set's levels.
    """
    if instance.first_noise is None:
        raise ValueError("variance-greedy needs known first-set noise levels")
    levels = instance.first_noise.levels_for(instance.first.n)
    scores = np.abs(instance.sqdist / (2.0 * instance.first.d) - levels[None, :] ** 2)
    return Permutation(_greedy_rows(scores[None])[0], codomain=instance.first.n)


def _one_level_per_side(instance: MatchInstance) -> bool:
    """Whether both noise specs hold a single sigma, so LSNS's divisor is one constant."""
    return (
        getattr(instance.first_noise, "sigma", None) is not None
        and getattr(instance.second_noise, "sigma", None) is not None
    )


# Memory for the instances solve_together holds at once: their features,
# distance matrices and distinct costs, each cost counted three times
# because solve_in_lockstep stacks a copy and gives it a search history,
# plus a copy of each distance matrix when greedy's stack is built.
_BATCH_BYTES = 32 * 2**20

# Key in a MatchInstance's __dict__ under which _kept_cost keeps the
# instance's assignment costs by estimator tag, as cached_property keeps
# ``sqdist``; each cost in turn keeps its solution.
_COSTS_KEY = "_assignment_costs"


def _kept_cost(instance: MatchInstance, tag: str) -> CostMatrix | None:
    """The instance's LSS, LSNS or LSL cost, built on first use and kept with it; None for any other tag.

    These three are the estimators whose cost an instance keeps.  LSNS on
    one level per side gets LSS's cost object (see the module docstring).
    """
    if tag == "lss":
        build = cost_lss
    elif tag == "lsns" and _one_level_per_side(instance):
        tag, build = "lss", cost_lss
    elif tag == "lsns":
        build = cost_lsns
    elif tag == "lsl":
        build = cost_lsl
    else:
        return None
    costs = instance.__dict__.setdefault(_COSTS_KEY, {})
    if tag not in costs:
        costs[tag] = build(instance)
    return costs[tag]


def _solve_held(held, costs, greedy: bool) -> list[MatchInstance]:
    """Solve a held batch's costs in lockstep and, if asked, its greedy maps as one stack; return the batch."""
    solve_in_lockstep(costs)
    if greedy and held:
        _keep_greedy(held)
    return held


def solve_together(instances, kinds):
    """Build the instances' kept costs for ``kinds`` and solve them, and greedy, ahead, batch by batch.

    A generator over any iterable of instances; it yields them in order,
    each after its batch is solved.  ``estimate`` then returns the same
    results as without this call.  See the module docstring, *Solve-ahead*.
    """
    greedy = GREEDY in kinds
    held, costs, held_bytes = [], [], 0
    for instance in instances:
        if held and (instance.second.n, instance.first.n) != (held[-1].second.n, held[-1].first.n):
            yield from _solve_held(held, costs, greedy)
            held, costs, held_bytes = [], [], 0
        kept = [cost for cost in dict.fromkeys(_kept_cost(instance, kind.tag) for kind in kinds) if cost is not None]
        size = (
            instance.first.vectors.nbytes
            + instance.second.vectors.nbytes
            + (1 + greedy) * instance.sqdist.nbytes
            + 3 * sum(cost.entries.nbytes for cost in kept)
        )
        held.append(instance)
        costs += kept
        held_bytes += size
        if held_bytes + size > _BATCH_BYTES:
            yield from _solve_held(held, costs, greedy)
            held, costs, held_bytes = [], [], 0
    yield from _solve_held(held, costs, greedy)


def estimate(instance: MatchInstance, kind: EstimatorKind) -> Permutation:
    """Run one estimator on an instance and return the matched permutation.

    What an instance keeps, and LSNS's use of LSS's solve under one noise
    level per side, are described in the module docstring (*Solve-ahead*
    and the LSNS entry).
    """
    if kind.tag == "greedy":
        return estimate_greedy(instance)
    if kind.tag == "variance-greedy":
        return estimate_variance_greedy(instance)
    return solve_hungarian(_kept_cost(instance, kind.tag)).assignment
