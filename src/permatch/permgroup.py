"""Combinatorics on the symmetric group: l2-ball enumeration, Hamming
packings, well-separated transposition families, and derangement counts.

Ball convention
---------------
The l2 ball of radius R around the identity contains the permutations with
sqrt(mean squared displacement) STRICTLY below R; membership is decided in
exact integer arithmetic as sum (pi(k) - k)^2 < R^2 n, never in floats.
Under this convention the R = 2 ball counts 19, 57, 179, 594, 1939
permutations for n = 4..8, and for eps <= 2/n the whole ball is already an
eps-separated Hamming packing.  A radius-0 ball is the center alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Permutation, random_permutation

__all__ = [
    "PackingResult",
    "ball_cardinality",
    "pack_greedy",
    "separated_family",
    "derangement_count",
    "verify_near_identity_bound",
    "write_packing_csv",
]

_BALL_ENUM_MAX_N = 10
_PACK_ENUM_MAX_N = 12
_PACK_SAMPLE_TARGET = 6_000
_INNER_ENUM_MAX_M = 7
_INNER_SAMPLE_COUNT = 4_000
_DERANGEMENT_MAX_N = 20


@dataclass(frozen=True, eq=False)
class PackingResult:
    """A family of permutations with certified spread.

    Every member lies within ``radius_l2`` of the identity (strictly, per
    the ball convention above, except for families not built from a ball)
    and every distinct pair is at Hamming distance at least
    ``min_pairwise_hamming``.  ``is_exhaustive`` marks the regime where the
    packing provably equals the entire ball.
    """

    permutations: tuple[Permutation, ...]
    radius_l2: float
    min_pairwise_hamming: float
    is_exhaustive: bool

    @property
    def size(self) -> int:
        return len(self.permutations)


def _strict_budget(n: int, R: float) -> int:
    """Largest integer displacement sum strictly below R^2 n (exact).

    Clamped at 0 so a radius-0 ball means the center alone rather than the
    empty set.
    """
    if not (math.isfinite(R) and R >= 0):
        raise ValueError("radius must be finite and nonnegative")
    limit = Fraction(R) ** 2 * n
    ceil = math.ceil(limit)
    budget = ceil - 1 if ceil == limit else math.floor(limit)
    return max(budget, 0)


def _ball_members(n: int, budget: int) -> list[tuple[int, ...]]:
    """All permutations with sum (pi(k) - k)^2 <= budget, in lexicographic
    order, by depth-first search with displacement pruning."""
    if budget < 0:
        return []
    out: list[tuple[int, ...]] = []
    used = [False] * n
    cur = [0] * n

    def rec(k: int, left: int) -> None:
        if k == n:
            out.append(tuple(cur))
            return
        for v in range(n):
            if used[v]:
                continue
            c = (v - k) * (v - k)
            if c > left:
                continue
            used[v] = True
            cur[k] = v
            rec(k + 1, left - c)
            used[v] = False

    rec(0, budget)
    return out


def ball_cardinality(n: int, R: float) -> int:
    """Exact number of permutations of n elements in the l2 ball of radius R."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > _BALL_ENUM_MAX_N:
        raise ValueError(f"n = {n} too large for exhaustive ball enumeration (max {_BALL_ENUM_MAX_N})")
    return len(_ball_members(n, _strict_budget(n, R)))


def _min_diff_count(eps: float, n: int) -> int:
    """Smallest difference count k with k/n >= eps, decided exactly."""
    if not (0 < eps <= 1):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return math.ceil(Fraction(eps) * n)


def _sample_ball(n: int, budget: int, seed: int) -> list[tuple[int, ...]]:
    """Random walk over in-ball permutations via budget-respecting swaps.

    Covers the large-n regime where full enumeration is off the table; the
    result is a deduplicated sample, not the whole ball.
    """
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    cost = 0
    seen: dict[tuple[int, ...], None] = {tuple(perm): None}
    window = max(2, int(math.isqrt(budget // max(1, n))) + 2)
    attempts = _PACK_SAMPLE_TARGET * 4
    for _ in range(attempts):
        i = int(rng.integers(0, n))
        j = int(rng.integers(max(0, i - window), min(n, i + window)))
        if i == j:
            continue
        a, b = perm[i], perm[j]
        delta = (b - i) ** 2 + (a - j) ** 2 - (a - i) ** 2 - (b - j) ** 2
        if cost + delta <= budget:
            perm[i], perm[j] = b, a
            cost += delta
            seen.setdefault(tuple(perm), None)
            if len(seen) >= _PACK_SAMPLE_TARGET:
                break
    return sorted(seen)


def _greedy_select(members: np.ndarray, order: np.ndarray, min_diffs: int) -> tuple[np.ndarray, int]:
    """First-fit scan: accept a candidate, then lower each later candidate's
    fewest differences to an accepted row (one vectorized sweep per accept).
    Also returns the fewest differences between two accepted rows (n for one
    row), exact because each accepted pair meets in one sweep."""
    ordered = members[order]
    count, n = ordered.shape
    fewest = np.full(count, n, dtype=np.int64)
    kept: list[int] = []
    for pos in range(count):
        if fewest[pos] >= min_diffs:
            kept.append(pos)
            later = fewest[pos + 1 :]
            np.minimum(later, (ordered[pos + 1 :] != ordered[pos]).sum(axis=1), out=later)
    return order[kept], int(fewest[kept].min())


def pack_greedy(n: int, R: float, eps: float, restarts: int = 0, seed: int = 0) -> PackingResult:
    """Greedy Hamming packing of the l2 ball of radius R.

    Ball members are enumerated exhaustively (n <= 12) or sampled by a
    seeded in-ball random walk beyond that, then scanned greedily keeping
    permutations pairwise at Hamming distance >= eps.  The scan runs once
    in lexicographic order plus ``restarts`` seeded shuffles, and the
    largest packing found wins.

    When eps <= 2/n on an enumerated ball, the whole ball is the packing and
    the result is marked exhaustive: any two distinct permutations differ in
    at least 2 of n positions, and a ball with two or more members holds the
    identity and a swap of two neighbours, which differ in exactly 2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    min_diffs = _min_diff_count(eps, n)
    budget = _strict_budget(n, R)
    enumerated = n <= _PACK_ENUM_MAX_N
    members_list = _ball_members(n, budget) if enumerated else _sample_ball(n, budget, seed)
    members = np.array(members_list, dtype=np.int64).reshape(len(members_list), n)

    exhaustive = enumerated and min_diffs <= 2
    if exhaustive:
        rows, spread = members, (2 if len(members) > 1 else n)
    else:
        rng = np.random.default_rng(seed)
        orders = [np.arange(len(members))] + [rng.permutation(len(members)) for _ in range(restarts)]
        # max keeps the first of the largest, so a tie goes to the earlier scan
        scans = [_greedy_select(members, order, min_diffs) for order in orders]
        chosen, spread = max(scans, key=lambda scan: len(scan[0]))
        rows = members[chosen]
    return PackingResult(
        permutations=tuple(Permutation(r) for r in rows),
        radius_l2=float(R),
        min_pairwise_hamming=spread / n,
        is_exhaustive=exhaustive,
    )


def _inner_separated(m: int) -> tuple[np.ndarray, int]:
    """Greedy family in the symmetric group on m symbols, pairwise differing
    in at least ceil(m/2) positions, identity first, one row per member, and
    the fewest differences between two of its members.

    Small m scans all m! permutations in lexicographic order; larger m
    scans the identity and then a fixed-seed random sample.  A repeated
    sample differs from its first copy in 0 < ceil(m/2) positions, so the
    scan skips it.  A family of size >= 2 always exists (the reversal
    differs from the identity everywhere for m >= 2).
    """
    if m <= _INNER_ENUM_MAX_M:
        cands = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    else:
        rng = np.random.default_rng(20_000 + m)
        cands = np.stack(
            [np.arange(m, dtype=np.int64)]
            + [random_permutation(rng, m).map for _ in range(_INNER_SAMPLE_COUNT)]
        )
    chosen, spread = _greedy_select(cands, np.arange(len(cands)), (m + 1) // 2)
    return cands[chosen], spread


def _lift(inner: np.ndarray, n: int) -> np.ndarray:
    """Turn a permutation of m = n//2 symbols into a product of m disjoint
    transpositions on n symbols, each swapping an odd position with an even
    value: position 2k-1 <-> value 2*inner(k) (1-based)."""
    mapping = np.arange(n, dtype=np.int64)
    for k0, v in enumerate(inner):
        a = 2 * k0
        b = 2 * v + 1
        mapping[a] = b
        mapping[b] = a
    return mapping


def separated_family(n: int) -> PackingResult:
    """A family of permutations pairwise at Hamming distance >= 3/8, each a
    product of at most n/2 disjoint transpositions, identity included.

    Built by lifting a half-size family (pairwise >= 1/2) through disjoint
    odd-even transpositions; the lift exactly doubles every pairwise
    difference count, which preserves the separation at scale 3/8.  Every
    lift moves all 2m lifted positions, at least twice the inner spread, so
    the identity added on n symbols leaves the spread at twice the inner one.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    m = n // 2
    inner, inner_spread = _inner_separated(m)
    rows = np.vstack(
        [np.arange(n, dtype=np.int64)[None, :]] + [_lift(t, n)[None, :] for t in inner]
    )
    ident = np.arange(n)
    radius = max(
        math.sqrt(float(np.square(r - ident).sum()) / n) for r in rows
    )
    return PackingResult(
        permutations=tuple(Permutation(r) for r in rows),
        radius_l2=radius,
        min_pairwise_hamming=2 * inner_spread / n,
        is_exhaustive=False,
    )


def derangement_count(n: int) -> int:
    """Number of fixed-point-free permutations of n elements, exactly.

    Uses the recurrence D(l) = (l-1) (D(l-1) + D(l-2)) with D(0) = 1 and
    D(1) = 0, entirely in integer arithmetic.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _DERANGEMENT_MAX_N:
        raise ValueError(f"n = {n} exceeds the supported exact range ({_DERANGEMENT_MAX_N})")
    if n == 0:
        return 1
    if n == 1:
        return 0
    prev2, prev1 = 1, 0
    for length in range(2, n + 1):
        prev2, prev1 = prev1, (length - 1) * (prev1 + prev2)
    return prev1


def verify_near_identity_bound(n: int) -> bool:
    """Check by enumeration that permutations agreeing with the identity on
    more than half the positions number at most 4 n!/m!, m = ceil(n/2)."""
    if not (2 <= n <= 8):
        raise ValueError("exhaustive check supported for 2 <= n <= 8")
    close = 0
    for p in itertools.permutations(range(n)):
        diffs = sum(1 for k, v in enumerate(p) if k != v)
        if 2 * diffs < n:
            close += 1
    m = (n + 1) // 2
    return close * math.factorial(m) <= 4 * math.factorial(n)


def write_packing_csv(result: PackingResult, path) -> None:
    """One permutation per row, 1-based images, no header."""
    with open(path, "w", newline="") as fh:
        for perm in result.permutations:
            fh.write(",".join(str(v + 1) for v in perm.map.tolist()) + "\n")
