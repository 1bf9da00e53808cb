"""Minimum-cost assignment: an O(n m^2) shortest-augmenting-path solver
that handles n <= m directly, an exhaustive oracle, and an exact
optimality certificate by LP duality.

A cost matrix has one row per item to assign (for us: second-set features)
and one column per candidate (first-set features), n <= m.  A solution
assigns every row to a distinct column, minimizing the selected-entry sum.

Solver: Jonker & Volgenant's row reduction (*Computing* 38, 1987) starts
from u_i = min_j c_ij, v = 0, and gives each row in index order its argmin
column if that column is free.  Each row left over is placed by a Dijkstra
search for the shortest augmenting path over reduced costs
c_ij - u_i - v_j, scanning columns by path length (lowest index on ties),
with the duals settled once per augmentation (Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES, 2016).  The search reuses
its buffers and masks a scanned column instead of testing it: its
tentative length becomes +inf and its slot in a copy of v becomes -inf, so
it never relaxes again.  It keeps no predecessor array: each step writes
its reduced row into a history buffer, and when the path is flipped back a
column's predecessor is the row whose step first reached the column's
final length, the first minimum of the column's history.  A step is then
four numpy calls (subtract, add, minimum, argmin).  Every array a solve
allocates has a size fixed by n and m, never by the data (how many rows
share an argmin, how long a path runs): two solves of the same shape make
the same allocations, so the allocator state a solve leaves behind, and
the speed of what runs after it in the process, does not depend on the
instance.  Column reduction is not used: it can leave v_j > 0, which is
dual-infeasible when n < m.

Certificate: the assignment LP (every row sums to 1, every column to at
most 1; the Birkhoff polytope when n = m) has the dual max sum(u) + sum(v)
subject to u_i + v_j <= c_ij, and v_j <= 0 when n < m.  The solver keeps
such potentials; ``certify`` checks dual feasibility and complementary
slackness against them in O(n m), which proves the assignment optimal
(Burkard, Dell'Amico & Martello, *Assignment Problems*, SIAM 2009).

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

    Starts from Jonker & Volgenant's row reduction (*Computing* 38, 1987):
    u_i = min_j c_ij, v = 0, and each row in index order takes its argmin
    column if that column is still free.  Each row left over then runs one
    masked Dijkstra search, starting from u_i = 0.  Search step s writes its
    reduced row into row s of an n x m history allocated once per solve;
    the path flip reads each column's predecessor from that history, and a
    scanned column's path length is the length at which it was scanned.
    The duals are settled and the path flipped one scalar at a time, so no
    temporary array is sized by the path.
    Potentials keep the input's floating precision (log- and ratio-valued
    costs are used as-is) and are returned for ``certify``.
    """
    entries = cost.entries
    n, m = entries.shape
    # row-reduction start: matched pairs are tight and every c_ij - u_i - v_j >= 0
    best = entries.argmin(axis=1)
    u = entries[np.arange(n), best]
    v = np.zeros(m)
    col_of = np.full(n, -1, dtype=np.int64)  # row -> matched column
    row_of = np.full(m, -1, dtype=np.int64)  # column -> matched row; -1 = free
    claim = np.full(m, n, dtype=np.int64)  # a column's first claimant gets it
    np.minimum.at(claim, best, np.arange(n))
    np.copyto(row_of, claim, where=claim < n)
    np.copyto(col_of, best, where=claim[best] == np.arange(n))
    u[col_of < 0] = 0.0
    # Per-search buffers, reused: a scanned column has tent = +inf and
    # v_masked = -inf, so c_ij - v_masked_j = +inf never relaxes it.
    tent = np.empty(m)  # tentative path length to each unscanned column
    v_masked = np.empty(m)
    # Step s of a search writes its reduced row into hist[s] and records the
    # row it expanded, the column it scanned and that column's path length;
    # a search expands at most n rows, one per step.
    hist = np.empty((n, m))
    tree, scanned, lows = [0] * n, [0] * n, [0.0] * n
    column = np.empty(n)  # one column of hist, made contiguous for argmin
    for start in [i for i, c in enumerate(col_of.tolist()) if c < 0]:
        tent.fill(np.inf)
        np.copyto(v_masked, v)
        i, low, step = start, 0.0, 0
        while True:
            reduced = hist[step]
            np.subtract(entries[i], v_masked, out=reduced)
            reduced += low - u[i]
            np.minimum(tent, reduced, out=tent)
            j = int(tent.argmin())
            low = tent[j]
            tent[j] = np.inf
            v_masked[j] = -np.inf
            tree[step], scanned[step], lows[step] = i, j, low
            i = int(row_of[j])
            if i < 0:
                break
            step += 1
        # lows <= low, so v only falls; never-scanned (unmatched) columns keep v = 0
        u[start] += low
        for k in range(step + 1):
            settle = low - lows[k]
            v[scanned[k]] -= settle
            if k < step:  # scanned[k] is matched to the row expanded next
                u[tree[k + 1]] += settle
        while step >= 0:  # flip the path back, from the free column to start
            j = scanned[step]
            # j's predecessor is the first row that reached it at its final
            # length: the first minimum of its history up to its scan
            np.copyto(column[: step + 1], hist[: step + 1, j])
            k = int(column[: step + 1].argmin())
            row_of[j] = tree[k]
            col_of[tree[k]] = j
            step = k - 1  # tree[k] was reached through the column scanned at step k - 1
    return AssignmentSolution(
        assignment=Permutation(col_of, codomain=m),
        total_cost=_selected_sum(entries, col_of),
        row_potentials=u,
        col_potentials=v,
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
