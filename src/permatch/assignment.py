"""Minimum-cost assignment: an O(n m^2) shortest-augmenting-path solver
that handles n <= m directly, an exhaustive oracle, and an exact
optimality certificate by LP duality.

A cost matrix has one row per item to assign (for us: second-set features)
and one column per candidate (first-set features), n <= m.  A solution
assigns every row to a distinct column, minimizing the selected-entry sum.

Certificate: the assignment LP (every row sums to 1, every column to at
most 1; the Birkhoff polytope when n = m) has the dual max sum(u) + sum(v)
subject to u_i + v_j <= c_ij, and v_j <= 0 when n < m.  The
augmenting-path solver maintains such potentials; ``certify`` checks dual
feasibility and complementary slackness against them in O(n m), which
proves the assignment optimal (Burkard, Dell'Amico & Martello,
*Assignment Problems*, SIAM 2009).

Tie-breaking: the exhaustive solver returns the lexicographically smallest
optimal assignment vector.  The augmenting-path solver is only guaranteed
to agree with it on generic (tie-free) inputs; on ties, compare costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import Permutation

__all__ = [
    "CostMatrix",
    "AssignmentSolution",
    "solve_hungarian",
    "solve_bruteforce",
    "certify",
]

_BRUTEFORCE_MAX_N = 9
_BRUTEFORCE_MAX_COUNT = 2_000_000


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """n x m matrix of finite real assignment costs, n <= m.

    Builders must floor or clamp their entries first; non-finite values are
    rejected here rather than silently propagated into the solvers.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float, copy=True)
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 1:
            raise ValueError(f"cost matrix must be non-empty and 2-D, got shape {e.shape}")
        if e.shape[0] > e.shape[1]:
            raise ValueError(f"more rows than columns ({e.shape[0]} x {e.shape[1]}); transpose the problem")
        if not np.all(np.isfinite(e)):
            raise ValueError("cost matrix contains non-finite entries")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class AssignmentSolution:
    """An assignment (row i -> column assignment.map[i]) and its total cost.

    ``solve_hungarian`` also returns its dual potentials (one per row, one
    per column) for ``certify``; the exhaustive oracle leaves them None.
    They take no part in equality.
    """

    assignment: Permutation
    total_cost: float
    row_potentials: np.ndarray | None = field(default=None, compare=False)
    col_potentials: np.ndarray | None = field(default=None, compare=False)


def _selected_sum(entries: np.ndarray, mapping: np.ndarray) -> float:
    return float(entries[np.arange(mapping.size), mapping].sum())


def solve_hungarian(cost: CostMatrix) -> AssignmentSolution:
    """Exact minimum-cost assignment by shortest augmenting paths.

    Dual potentials are kept in the same floating precision as the input;
    costs are never rescaled to integers, so log- and ratio-valued costs
    are handled as-is.  Rectangular inputs (n < m) are solved directly, not
    padded to square.  Runs in O(n m^2) time for an n x m input (O(n^3) when
    square).  The final potentials are returned for ``certify``.
    """
    entries = cost.entries
    n, m = entries.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j]: 1-based row matched to column j; 0 = free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = entries[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            if better.any():
                minv[1:][better] = cur[better]
                way[1:][better] = j0
            cand = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(cand)) + 1
            delta = cand[j1 - 1]
            u[p[used]] += delta  # rows on the alternating tree are distinct
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    mapping = np.empty(n, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j] > 0:
            mapping[p[j] - 1] = j - 1
    return AssignmentSolution(
        assignment=Permutation(mapping, codomain=m),
        total_cost=_selected_sum(entries, mapping),
        row_potentials=u[1:],
        col_potentials=v[1:],
    )


@lru_cache(maxsize=8)
def _all_injections(n: int, m: int) -> np.ndarray:
    """All injections {0..n-1} -> {0..m-1} as an array, in lexicographic order."""
    return np.array(list(itertools.permutations(range(m), n)), dtype=np.int64)


def solve_bruteforce(cost: CostMatrix) -> AssignmentSolution:
    """Exhaustive oracle: scan every injection, keep the lexicographically
    first one attaining the minimum total cost."""
    n, m = cost.n, cost.m
    count = 1
    for k in range(m, m - n, -1):
        count *= k
    if n > _BRUTEFORCE_MAX_N or count > _BRUTEFORCE_MAX_COUNT:
        raise ValueError(f"{n} x {m} is too large for exhaustive search ({count} injections)")
    injections = _all_injections(n, m)
    totals = cost.entries[np.arange(n)[None, :], injections].sum(axis=1)
    best = int(np.argmin(totals))  # argmin returns the first (lex-smallest) minimizer
    mapping = injections[best]
    return AssignmentSolution(
        assignment=Permutation(mapping, codomain=m),
        total_cost=_selected_sum(cost.entries, mapping),
    )


def certify(cost: CostMatrix, solution: AssignmentSolution) -> bool:
    """Prove ``solution`` optimal for ``cost`` from its dual potentials.

    With tol = 1e-9 * max(1, max |c_ij|), checks in O(n m):

    1. u_i + v_j <= c_ij + tol for every pair (dual feasibility);
    2. |c_ij - u_i - v_j| <= tol on every matched pair (slackness);
    3. when n < m, v_j <= tol on every column (dual feasibility of the
       "at most one row per column" constraints);
    4. when n < m, |v_j| <= tol on every unmatched column (slackness).

    Together they bound the assignment's total cost by the optimum plus
    2 * m * tol.  Returns False if any check fails (non-finite potentials
    fail them all); raises ValueError if the solution carries no
    potentials or their shapes do not match the cost matrix.
    """
    if solution.row_potentials is None or solution.col_potentials is None:
        raise ValueError("solution carries no dual potentials to certify")
    u = np.asarray(solution.row_potentials, dtype=float)
    v = np.asarray(solution.col_potentials, dtype=float)
    n, m = cost.n, cost.m
    mapping = solution.assignment.map
    if u.shape != (n,) or v.shape != (m,) or mapping.shape != (n,) or solution.assignment.codomain != m:
        raise ValueError(
            f"potentials of shapes {u.shape}, {v.shape} and a {mapping.size}-row "
            f"assignment do not fit a {n} x {m} cost matrix"
        )
    entries = cost.entries
    tol = 1e-9 * max(1.0, float(np.abs(entries).max()))
    reduced = entries - u[:, None] - v[None, :]
    if not (np.all(reduced >= -tol) and np.all(np.abs(reduced[np.arange(n), mapping]) <= tol)):
        return False
    if n < m:
        unmatched = np.ones(m, dtype=bool)
        unmatched[mapping] = False
        return bool(np.all(v <= tol) and np.all(np.abs(v[unmatched]) <= tol))
    return True
