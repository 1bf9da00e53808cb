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
instance and shared by all estimators run on it; general LSL, which
compares transformed features, calls the same kernel, ``pairwise_sqdist``.

The estimators:

- greedy: sequential nearest neighbor without replacement, second-set
  features processed in index order (the result is order-dependent by
  design; the order is fixed, not configurable).
- LSS (least sum of squares): assignment under squared distances; the
  likelihood maximizer when all noise levels are equal.
- LSNS (least sum of normalized squares): squared distances divided by the
  summed variances of the two features; needs known levels.  When each side
  has one shared level (both noise specs hold a single ``sigma``), that
  divisor is a constant, so LSNS has LSS's minimiser and ``estimate``
  returns LSS's solution for it: one solve serves both.
- LSL (least sum of logarithms): assignment under log squared distances;
  the likelihood maximizer when levels are unknown but travel with the
  features.  A floor on the squared distance keeps the log finite on
  degenerate (coincident) inputs.
- variance-greedy: matches on noise levels alone by comparing per-pair
  mean squared distances to the first set's variances; works even when all
  templates coincide, provided levels differ.
- general LSL: LSL after mapping both sides into the comparison space of a
  linear matching criterion A(x - b) = A#(x# - b#); see reduce_criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import AssignmentSolution, CostMatrix, solve_hungarian
from .model import MatchInstance, Permutation, pairwise_sqdist

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
    "cost_general_lsl",
    "reduce_criterion",
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
    transformed noise white, so the plain estimators stay valid after the
    reduction.
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


# Estimators selectable by name (CLI, config files); general-lsl also needs
# a criterion reduction, so it is built only through EstimatorKind.general_lsl.
ESTIMATOR_NAMES = ("greedy", "lss", "lsns", "lsl", "variance-greedy")


@dataclass(frozen=True)
class EstimatorKind:
    """A named estimator; ``general_lsl`` additionally carries its reduction."""

    tag: str
    reduction: CriterionReduction | None = None

    _TAGS = ESTIMATOR_NAMES + ("general-lsl",)

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown estimator {self.tag!r}; expected one of {self._TAGS}")
        if (self.tag == "general-lsl") != (self.reduction is not None):
            raise ValueError("a criterion reduction is required exactly for general-lsl")

    @classmethod
    def general_lsl(cls, reduction: CriterionReduction) -> "EstimatorKind":
        return cls(tag="general-lsl", reduction=reduction)

    @classmethod
    def from_name(cls, name: str) -> "EstimatorKind":
        name = name.strip().lower()
        if name == "general-lsl":
            raise ValueError("general-lsl needs an explicit reduction; build it via EstimatorKind.general_lsl")
        return cls(tag=name)


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


def _floored_log(sq: np.ndarray) -> CostMatrix:
    """Costs log(max(sq, DEFAULT_SQDIST_FLOOR))."""
    return CostMatrix(np.log(np.maximum(sq, DEFAULT_SQDIST_FLOOR)))


def cost_lsl(instance: MatchInstance) -> CostMatrix:
    """Log squared-distance costs: entry (i, j) = log(max(||X_j - X#_i||^2, DEFAULT_SQDIST_FLOOR))."""
    return _floored_log(instance.sqdist)


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


def cost_general_lsl(instance: MatchInstance, reduction: CriterionReduction) -> CostMatrix:
    """LSL costs in the comparison space of a linear matching criterion.

    Transforms both sides (x̄ = V(x - b), x̄# = V#(x# - b#)), forms
    M = B(B^T B)^+ B^T + B B^T, and scores pairs by
    log(max(||M^+ (x̄_j - B x̄#_i)||^2, DEFAULT_SQDIST_FLOOR)).  For
    orthonormal-column B both terms of M coincide and M^+ halves the
    residual, a pure monotone rescaling of plain LSL in the transformed
    space.
    """
    if reduction.V.shape[1] != instance.first.d or reduction.V_sharp.shape[1] != instance.second.d:
        raise ValueError(
            f"reduction expects ambient dimensions ({reduction.V.shape[1]}, "
            f"{reduction.V_sharp.shape[1]}), instance has ({instance.first.d}, {instance.second.d})"
        )
    B = reduction.B
    first_t = (instance.first.vectors - reduction.b) @ reduction.V.T
    second_t = (instance.second.vectors - reduction.b_sharp) @ reduction.V_sharp.T
    M = B @ np.linalg.pinv(B.T @ B) @ B.T + B @ B.T
    M_pinv = np.linalg.pinv(M)
    lhs = first_t @ M_pinv.T
    rhs = (second_t @ B.T) @ M_pinv.T
    return _floored_log(pairwise_sqdist(rhs, lhs))


def _greedy_rows(scores: np.ndarray) -> Permutation:
    """Each row in index order takes its smallest untaken column; ties go to the lowest index."""
    n2, n1 = scores.shape
    work = np.array(scores, dtype=float)  # a taken column becomes +inf
    mapping = np.empty(n2, dtype=np.int64)
    for i in range(n2):
        j = int(work[i].argmin())
        mapping[i] = j
        work[:, j] = np.inf
    return Permutation(mapping, codomain=n1)


def estimate_greedy(instance: MatchInstance) -> Permutation:
    """Nearest neighbor without replacement, second-set rows in index order.

    Ties go to the smallest first-set index.
    """
    return _greedy_rows(instance.sqdist)


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
    return _greedy_rows(np.abs(instance.sqdist / (2.0 * instance.first.d) - levels[None, :] ** 2))


# Key in a MatchInstance's __dict__ under which _lss_solution keeps LSS's
# solution, as cached_property keeps ``sqdist``.
_LSS_SOLUTION_KEY = "_lss_solution"


def _lss_solution(instance: MatchInstance) -> AssignmentSolution:
    """LSS's solution, solved on first use and kept with the instance."""
    solution = instance.__dict__.get(_LSS_SOLUTION_KEY)
    if solution is None:
        solution = instance.__dict__[_LSS_SOLUTION_KEY] = solve_hungarian(cost_lss(instance))
    return solution


def _one_level_per_side(instance: MatchInstance) -> bool:
    """Whether both noise specs hold a single sigma, so LSNS's divisor is one constant."""
    return (
        getattr(instance.first_noise, "sigma", None) is not None
        and getattr(instance.second_noise, "sigma", None) is not None
    )


def estimate(instance: MatchInstance, kind: EstimatorKind) -> Permutation:
    """Run one estimator on an instance and return the matched permutation.

    LSS's solution is kept with the instance.  When both noise specs hold a
    single sigma, LSNS returns that solution too, solving LSS first if it
    has not run: LSNS's costs are LSS's divided by one constant.  One solve
    then serves both, whichever runs first, and LSNS's result does not
    depend on whether LSS runs.  Per-feature levels, even equal ones, get
    their own LSNS solve.
    """
    if kind.tag == "greedy":
        return estimate_greedy(instance)
    if kind.tag == "variance-greedy":
        return estimate_variance_greedy(instance)
    if kind.tag == "lss" or (kind.tag == "lsns" and _one_level_per_side(instance)):
        return _lss_solution(instance).assignment
    if kind.tag == "lsns":
        cost = cost_lsns(instance)
    elif kind.tag == "lsl":
        cost = cost_lsl(instance)
    else:
        cost = cost_general_lsl(instance, kind.reduction)
    return solve_hungarian(cost).assignment
