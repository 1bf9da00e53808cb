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
four numpy calls (subtract, add, minimum, argmin).  When a search ends,
its duals are settled by array operations over the scanned columns and
the path is flipped one column at a time, with one argmin over the
column's strided history per edge.  Every array ``solve_hungarian``
allocates has a size fixed by n and m, never by the data (how many rows
share an argmin, how long a path runs): two solves of the same shape make
the same allocations, so the allocator state a solve leaves behind, and
the speed of what runs after it in the process, does not depend on the
instance.  The one path-sized buffer is the contiguous copy numpy's
argmin makes of a strided history column: at most n floats, which numpy
serves from its own small-block cache below 1 KiB (n <= 128) and which
stays far below glibc's 128 KiB mmap threshold.  Column reduction is not
used: it can leave v_j > 0, which is dual-infeasible when n < m.

Lockstep: a search step costs a few microseconds of numpy call overhead on
rows of a few hundred entries, so ``solve_in_lockstep`` runs the searches
of a batch of same-shape matrices together, one step of every matrix per
round on (lanes, m) arrays; a matrix whose search ends starts its next
leftover row at once, so no round waits for the longest search.  Each
matrix gets exactly the arithmetic of its sequential solve, so assignments
and potentials are bit for bit ``solve_hungarian``'s.  A round makes about
19 numpy calls, against a step's four, so the lockstep pays only on a deep
stack.  Its calls are ndarray methods and ufuncs (``a.take``, ``a.put``,
``a.nonzero()``, ``a[a.argmin()]``), because numpy's function wrappers
(``np.take``, ``np.put``, ``np.flatnonzero``, ``a.min()``) cost ~1-2 us a
call here, up to three times the method's time on a round's arrays;
``_augment`` does the same.  The time of one ``solve_in_lockstep`` call,
fresh stack and history included, over ``solve_hungarian``'s on each of
the same sweep costs (LSS and LSL of the same instances; 2-CPU VM,
median of three scans, each the minimum of 15 repetitions) was, at 4, 6,
8, 10 and 16 matrices: 1.11, 0.84, 0.79, 0.79 and 0.57 at 50 x 50 (mixed
tau); 1.08, 0.98, 0.98, 0.99 and 0.63 at 100 x 100 (d = 2000); 1.05,
0.82, 0.72, 0.63 and 0.54 at 200 x 200 (tau = 1.4); and 1.05, 0.97,
0.91, 0.88 and 1.14 at 200 x 200 (tau = 2.4), where searches are short.
Batches of fewer than ``_LOCKSTEP_MIN`` = 6, the shallowest depth scanned
at which the lockstep won on every shape, are left to
``solve_hungarian``.  The caller forms
the batches (``permatch.estimators.solve_together``); the lockstep holds
each matrix three times, as the matrix, its slice of the stack and its
search history.  Its lane arrays shrink as matrices finish, so it
allocates by the data; the sequential solve does not.

Kept solutions: a ``CostMatrix`` keeps the solution found for it, and
``solve_hungarian`` returns a kept solution instead of solving again; the
entries and the kept potentials are read-only, so it stays valid.

Certificate: the assignment LP (every row sums to 1, every column to at
most 1; the Birkhoff polytope when n = m) has the dual max sum(u) + sum(v)
subject to u_i + v_j <= c_ij, and v_j <= 0 when n < m.  The solver keeps
such potentials; ``certify`` checks dual feasibility and complementary
slackness against them in O(n m), which proves the assignment optimal
(Burkard, Dell'Amico & Martello, *Assignment Problems*, SIAM 2009, section
4).  ``_keep`` certifies every distinct solve, sequential and lockstep
alike, before it keeps the solution.  An exact cost goes to ``certify``,
and a failure there is a solver bug, not bad input: it raises
``CertificateError``.  A bounded cost (``CostMatrix.bound``, built on GEMM
distances) is solved on its approximate entries c~, within bound E_i of the
exact c on row i, and certified on exact entries instead:

1. flag every entry whose reduced cost r~_ij = c~_ij - u_i - v_j is at most
   2 E_i + |r~_i,sigma(i)|; the matched entries are among them;
2. compute the flagged entries exactly (``CostMatrix.exact``);
3. move each u_i so that its matched pair is tight on its exact entry, and
   check r >= -tol on the flagged entries with ``certify``'s tol.

An unflagged entry then has r_ij >= r~_ij - E_i - |r~_i,sigma(i)| - E_i > 0
on the exact cost, up to the rounding of r~, far below tol.  So the
solution, with the moved potentials and ``total_cost`` summed from the
exact matched entries, is certified optimal for the exact cost.  If the
check fails, the exact matrix is built and solved, and that solution is
kept.

Tie-breaking: the exhaustive solver returns the lexicographically smallest
optimal assignment vector.  The augmenting-path solver is only guaranteed
to agree with it on generic (tie-free) inputs; on ties, compare costs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import Permutation

__all__ = [
    "CostMatrix",
    "AssignmentSolution",
    "solve_hungarian",
    "solve_in_lockstep",
    "solve_bruteforce",
    "certify",
    "CertificateError",
]

_BRUTEFORCE_MAX_N = 9
_BRUTEFORCE_MAX_COUNT = 2_000_000
# Fewest matrices solve_in_lockstep runs as one stack; see the depth scan in
# the module docstring.
_LOCKSTEP_MIN = 6


class CertificateError(RuntimeError):
    """A solution failed its optimality certificate: a solver bug, not bad input."""


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """n x m matrix of finite real assignment costs, n <= m.

    Builders must floor or clamp their entries first; non-finite values are
    rejected here rather than silently propagated into the solvers.  The
    entries are read-only, so the solution ``solve_hungarian`` or
    ``solve_in_lockstep`` keeps with the matrix stays valid.

    A bounded cost approximates an exact one: ``bound`` is an (n, 1) array
    with |entries[i, j] - exact[i, j]| <= bound[i, 0] on every entry, and
    ``exact(rows, cols)`` returns the exact entries at those index pairs,
    or the whole exact matrix when called with no arguments.  Its solution
    is certified on exact entries (see the module docstring, *Certificate*).
    """

    entries: np.ndarray
    bound: np.ndarray | None = None
    exact: Callable[..., np.ndarray] | None = field(default=None, repr=False)
    _solution: AssignmentSolution | None = field(default=None, init=False, repr=False)

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
        if (self.bound is None) != (self.exact is None):
            raise ValueError("a bounded cost needs both a bound and its exact entries")
        if self.bound is not None:
            bound = np.array(self.bound, dtype=float, copy=True)
            if bound.shape != (e.shape[0], 1) or not 0.0 <= bound.min() <= bound.max() < np.inf:  # NaN fails
                raise ValueError(f"bound must be finite, nonnegative and of shape ({e.shape[0]}, 1)")
            bound.setflags(write=False)
            object.__setattr__(self, "bound", bound)

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


def _start(stack: np.ndarray):
    """Row-reduction start of a (B, n, m) stack: (u, v, col_of, row_of).

    u_i = min_j c_ij and v = 0, and each row in index order takes its argmin
    column if that column is still free; a row left over gets u_i = 0 and
    col_of = -1, a free column row_of = -1.  Matched pairs are tight and
    every c_ij - u_i - v_j >= 0.
    """
    count, n, m = stack.shape
    rows = np.arange(n)
    best = stack.argmin(axis=2)
    u = np.take_along_axis(stack, best[:, :, None], axis=2).reshape(count, n)
    claim = np.full((count, m), n, dtype=np.int64)  # a column's first claimant gets it
    np.minimum.at(claim, (np.arange(count)[:, None], best), rows)
    row_of = np.where(claim < n, claim, -1)
    col_of = np.where(np.take_along_axis(claim, best, axis=1) == rows, best, -1)
    u[col_of < 0] = 0.0
    return u, np.zeros((count, m)), col_of, row_of


def _leftover(col_of: np.ndarray) -> list[int]:
    """The rows the start left unmatched, in index order."""
    return [i for i, c in enumerate(col_of.tolist()) if c < 0]


def _augment(hist, u, v, col_of, row_of, scanned, lows, start, low, step, tree) -> None:
    """End the search from row ``start``: settle its duals, flip its path.

    The search scanned column scanned[k] at path length lows[k], k <= step,
    and the last one, at length ``low``, is free.  hist[k] is the reduced
    row expanded at step k.  The row expanded at step k + 1 is the one
    matched to scanned[k]; the scanned columns are distinct and so are
    those rows, so each dual moves once and array updates over the path
    give the same bits as one scalar update per column.  ``tree`` is an
    n-long scratch array for those rows, and the settle amounts overwrite
    lows[:k], which no later search reads.  The updates use ``ufunc.at``:
    a fancy-index update such as ``v[scanned] -= settle`` would allocate
    temporaries sized by the path.
    """
    tree[0] = start
    u[start] += low
    k = step + 1
    if step:  # a one-step search scanned its free column at length low: nothing else moves
        row_of.take(scanned[:step], out=tree[1:k], mode="clip")
        # lows <= low, so v only falls; never-scanned (unmatched) columns keep v = 0
        settle = np.subtract(low, lows[:k], out=lows[:k])
        np.subtract.at(v, scanned[:k], settle)
        np.add.at(u, tree[1:k], settle[:step])
    columns, rows = scanned[:k].tolist(), tree[:k].tolist()
    while step >= 0:  # flip the path back, from the free column to start
        j = columns[step]
        # j's predecessor is the first row that reached it at its final
        # length: the first minimum of its history up to its scan (step 0
        # had only start), taken on the strided column in one call
        k = int(hist[: step + 1, j].argmin()) if step else 0
        row_of[j] = rows[k]
        col_of[rows[k]] = j
        step = k - 1  # rows[k] was reached through the column scanned at step k - 1


def _keep(cost: CostMatrix, u: np.ndarray, v: np.ndarray, col_of: np.ndarray) -> AssignmentSolution:
    """Certify the solution, store it with its (read-only) cost matrix and return it.

    See the module docstring, *Certificate*: an exact cost that fails
    ``certify`` raises CertificateError; a bounded cost that fails its
    certificate keeps the solution of its exact matrix instead.
    """
    u.setflags(write=False)
    v.setflags(write=False)
    if cost.bound is None:
        solution = AssignmentSolution(
            assignment=Permutation(col_of, codomain=cost.m),
            total_cost=_selected_sum(cost.entries, col_of),
            row_potentials=u,
            col_potentials=v,
        )
        if not certify(cost, solution):
            raise CertificateError(f"a {cost.n} x {cost.m} solution failed its optimality certificate")
    else:
        solution = _certified(cost, u, v, col_of) or solve_hungarian(CostMatrix(cost.exact()))
    object.__setattr__(cost, "_solution", solution)
    return solution


def _tol(entries: np.ndarray) -> float:
    """``certify``'s tolerance for a matrix: 1e-9 * max(1, max |c_ij|)."""
    return 1e-9 * max(1.0, -float(entries.min()), float(entries.max()))


def _certified(cost: CostMatrix, u: np.ndarray, v: np.ndarray, col_of: np.ndarray) -> AssignmentSolution | None:
    """The bounded cost's solution certified on exact entries, or None if the certificate fails.

    Steps 1-3 of the module docstring's *Certificate*.
    """
    entries, n, m = cost.entries, cost.n, cost.m
    matched_at = np.arange(0, n * m, m) + col_of  # flat index of each row's matched entry
    # r~_ij <= |r~_i,sigma(i)| + 2 E_i, tested as c~_ij - v_j <= reach_i, the
    # right side plus u_i: one pass less over the matrix
    reach = entries.take(matched_at) - u
    reach -= v[col_of]
    np.abs(reach, out=reach)
    reach += 2.0 * cost.bound[:, 0]
    reach += u
    flagged = entries - v <= reach[:, None]
    flagged.put(matched_at, True)  # flagged already, up to rounding
    flat = flagged.reshape(-1).nonzero()[0]
    rows, cols = np.divmod(flat, m)
    exact = cost.exact(rows, cols)
    matched = exact[flat.searchsorted(matched_at)]
    moved = matched - v[col_of]
    exact -= moved[rows]
    exact -= v[cols]
    lowest = exact.min()

    def holds(tol: float) -> bool:
        return lowest >= -tol and (n == m or _free_columns_hold(v, col_of, tol))

    if not (holds(1e-9) or holds(_tol(entries))):  # certify's tol is at least 1e-9
        return None
    moved.setflags(write=False)
    return AssignmentSolution(
        assignment=Permutation(col_of, codomain=m),
        total_cost=float(matched.sum()),
        row_potentials=moved,
        col_potentials=v,
    )


def solve_hungarian(cost: CostMatrix) -> AssignmentSolution:
    """Exact minimum-cost assignment by shortest augmenting paths.

    Returns the solution kept with ``cost`` if it has one (from an earlier
    call or from ``solve_in_lockstep``); otherwise solves it and keeps it.
    Starts from Jonker & Volgenant's row reduction (*Computing* 38, 1987):
    u_i = min_j c_ij, v = 0, and each row in index order takes its argmin
    column if that column is still free.  Each row left over then runs one
    masked Dijkstra search, starting from u_i = 0.  Search step s writes its
    reduced row into row s of an n x m history allocated once per solve;
    the path flip reads each column's predecessor from that history, and a
    scanned column's path length is the length at which it was scanned.
    Every temporary is sized by n or m, never by the path, except numpy's
    internal copy of at most n floats in the flip's strided argmin.
    Potentials keep the input's floating precision (log- and ratio-valued
    costs are used as-is) and are returned, read-only, for ``certify``.
    """
    if cost._solution is not None:
        return cost._solution
    entries = cost.entries
    n, m = entries.shape
    u, v, col_of, row_of = (a[0] for a in _start(entries[None]))
    # Per-search buffers, reused: a scanned column has tent = +inf and
    # v_masked = -inf, so c_ij - v_masked_j = +inf never relaxes it.
    tent = np.empty(m)  # tentative path length to each unscanned column
    v_masked = np.empty(m)
    # Step s of a search writes its reduced row into hist[s] and records the
    # column it scanned and that column's path length; a search expands at
    # most n rows, one per step.
    hist = np.empty((n, m))
    scanned = np.empty(n, dtype=np.int64)
    lows = np.empty(n)
    tree = np.empty(n, dtype=np.int64)  # the rows on the path _augment flips
    for start in _leftover(col_of):
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
            scanned[step], lows[step] = j, low
            i = int(row_of[j])
            if i < 0:
                break
            step += 1
        _augment(hist, u, v, col_of, row_of, scanned, lows, start, low, step, tree)
    return _keep(cost, u, v, col_of)


def solve_in_lockstep(costs) -> None:
    """Solve a batch of distinct same-shape cost matrices together and keep each solution.

    A batch of fewer than ``_LOCKSTEP_MIN`` matrices is left unsolved, and
    ``solve_hungarian`` solves each of its matrices on demand.  A deeper
    batch runs ``solve_hungarian``'s searches in lockstep, with one lane per
    active matrix.  A round takes one search step in every lane: it gathers
    each lane's cost row and u by flat index, keeps the lanes' tentative
    lengths and masked v as (L, m) arrays, and writes each reduced row into
    its matrix's history by flat index.  A lane whose search reaches a free
    column is settled and flipped by ``_augment``, as in
    ``solve_hungarian``, and starts its matrix's next leftover row in the
    same round; a lane with no row left retires.  Each lane does exactly the
    arithmetic of its matrix's sequential solve, so every solution is bit
    for bit the one ``solve_hungarian`` would find.
    """
    if len(costs) < _LOCKSTEP_MIN:
        return
    stack = np.stack([cost.entries for cost in costs])
    count, n, m = stack.shape
    flat_costs = stack.reshape(count * n, m)
    u, v, col_of, row_of = _start(stack)
    flat_u, flat_row_of = u.reshape(-1), row_of.reshape(-1)
    hist = np.empty((count * n, m))  # matrix b's step s writes row b * n + s
    scanned = np.empty((count, n), dtype=np.int64)
    lows = np.empty((count, n))
    # each matrix's own arrays, as _augment takes them
    views = [(hist[b * n : (b + 1) * n], u[b], v[b], col_of[b], row_of[b], scanned[b], lows[b]) for b in range(count)]
    tree = np.empty(n, dtype=np.int64)  # the rows on the path _augment flips
    pending = [_leftover(col_of[b])[::-1] for b in range(count)]  # popped from the end
    matrix = [b for b in range(count) if pending[b]]  # lane -> matrix
    starts = [pending[b].pop() for b in matrix]  # lane -> row its search started from
    lane_matrix = np.array(matrix, dtype=np.int64)
    base = lane_matrix * n  # flat index of each lane's matrix's row 0
    columns = lane_matrix * m  # flat index of each lane's matrix's column 0
    cur = base + np.array(starts, dtype=np.int64)  # flat index of the row each lane expands
    at = base.copy()  # flat history row of each lane's next step
    ones = np.ones_like(at)  # at's per-round step, added without a scalar cast
    low = np.zeros(len(matrix))
    tent = np.full((len(matrix), m), np.inf)
    v_masked = v[lane_matrix]
    reduced = np.empty_like(tent)
    lane_cells = np.arange(0, len(matrix) * m, m)  # flat index of each lane's row in tent
    while matrix:
        flat_costs.take(cur, axis=0, out=reduced, mode="clip")
        reduced -= v_masked
        reduced += (low - flat_u.take(cur))[:, None]
        np.minimum(tent, reduced, out=tent)
        j = tent.argmin(axis=1)
        cells = lane_cells + j
        low = tent.take(cells)
        tent.put(cells, np.inf)
        v_masked.put(cells, -np.inf)
        hist[at] = reduced
        scanned.put(at, j)
        lows.put(at, low)
        nxt = flat_row_of.take(columns + j)
        cur = base + nxt
        at += ones
        if nxt[nxt.argmin()] >= 0:
            continue
        retired = []
        for lane in (nxt < 0).nonzero()[0].tolist():
            b = matrix[lane]
            _augment(*views[b], starts[lane], low[lane], int(at[lane]) - b * n - 1, tree)
            if not pending[b]:
                retired.append(lane)
                continue
            starts[lane] = start = pending[b].pop()
            cur[lane] = b * n + start
            at[lane] = b * n
            low[lane] = 0.0
            tent[lane] = np.inf
            v_masked[lane] = v[b]
        if retired:
            keep = np.ones(len(matrix), dtype=bool)
            keep[retired] = False
            for lane in reversed(retired):
                del matrix[lane], starts[lane]
            base, columns, cur, at, low, tent, v_masked = (
                a[keep] for a in (base, columns, cur, at, low, tent, v_masked)
            )
            reduced, lane_cells, ones = (a[: len(matrix)] for a in (reduced, lane_cells, ones))
    for b, cost in enumerate(costs):
        _keep(cost, u[b], v[b], col_of[b])


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
    tol = _tol(entries)
    reduced = entries - u[:, None] - v[None, :]
    if not (np.all(reduced >= -tol) and np.all(np.abs(reduced[np.arange(n), mapping]) <= tol)):
        return False
    return n == m or _free_columns_hold(v, mapping, tol)


def _free_columns_hold(v: np.ndarray, mapping: np.ndarray, tol: float) -> bool:
    """Checks 3 and 4 of ``certify``, for n < m: v_j <= tol on every column, |v_j| <= tol on every unmatched one."""
    unmatched = np.ones(v.size, dtype=bool)
    unmatched[mapping] = False
    return bool(np.all(v <= tol) and np.all(np.abs(v[unmatched]) <= tol))
