import hashlib
import itertools
import math

import numpy as np
import pytest

from permatch import (
    Permutation,
    ball_cardinality,
    derangement_count,
    pack_greedy,
    separated_family,
    verify_near_identity_bound,
)
from permatch.permgroup import write_packing_csv


def _hamming_count(a, b):
    return int(np.count_nonzero(np.asarray(a) != np.asarray(b)))


def _verify_packing(result, eps=None):
    """Independent O(M^2 n) scan of the ball and spread constraints."""
    arr = np.stack([p.map for p in result.permutations])
    n = arr.shape[1]
    displacement = np.square(arr - np.arange(n)).sum(axis=1)
    assert np.all(displacement <= result.radius_l2**2 * n * (1 + 1e-12))
    floor = result.min_pairwise_hamming if eps is None else max(result.min_pairwise_hamming, eps)
    for i in range(arr.shape[0] - 1):
        frac = (arr[i + 1 :] != arr[i]).sum(axis=1) / n
        assert frac.min() >= floor - 1e-12


# ------------------------------------------------------------------------ ball

def test_ball_cardinality_published_small_values():
    assert ball_cardinality(4, 2.0) == 19
    assert ball_cardinality(5, 2.0) == 57


def test_ball_radius_zero_and_validation():
    assert ball_cardinality(2, 0.0) == 1  # identity only
    assert ball_cardinality(1, 5.0) == 1
    with pytest.raises(ValueError):
        ball_cardinality(11, 2.0)
    with pytest.raises(ValueError):
        ball_cardinality(0, 2.0)


def test_ball_monotone_in_radius_and_caps_at_factorial():
    n = 5
    counts = [ball_cardinality(n, r) for r in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    reversal_radius = math.sqrt(sum((n - 1 - k - k) ** 2 for k in range(n)) / n)
    assert ball_cardinality(n, reversal_radius + 1e-9) == math.factorial(n)
    # strict convention: just under the extreme radius the reversal is excluded
    assert ball_cardinality(n, reversal_radius - 1e-9) < math.factorial(n)


def test_ball_matches_direct_scan():
    for n in (2, 3, 4, 5, 6):
        for R in (1.0, 1.5, 2.0):
            direct = sum(
                1
                for p in itertools.permutations(range(n))
                if sum((p[k] - k) ** 2 for k in range(n)) < R * R * n
            )
            assert ball_cardinality(n, R) == direct


def test_ball_translation_invariance():
    # recentring the ball at any permutation leaves its cardinality unchanged
    for n in (4, 5, 6):
        base = ball_cardinality(n, 2.0)
        for center in [(1, 0, 3, 2), (2, 0, 1, 3)]:
            c = list(center) + list(range(4, n))
            count = sum(
                1
                for p in itertools.permutations(range(n))
                if sum((p[k] - c[k]) ** 2 for k in range(n)) < 4 * n
            )
            assert count == base


# --------------------------------------------------------------------- packing

def test_pack_greedy_exhaustive_regime():
    # n = 9 pins the rule eps <= 2/n without a bound on n: the whole ball,
    # in lexicographic order, is the packing
    for n, eps, size in [(4, 0.25, 19), (9, 0.2, 6689)]:
        result = pack_greedy(n, 2.0, eps)
        assert result.is_exhaustive
        assert result.size == size == ball_cardinality(n, 2.0)
        rows = [tuple(p.map.tolist()) for p in result.permutations]
        assert rows == sorted(rows)
        assert result.min_pairwise_hamming == 2 / n
        _verify_packing(result, eps=eps)


def test_pack_greedy_beyond_exhaustive_regime():
    result = pack_greedy(9, 2.0, 0.25, restarts=2, seed=3)
    assert not result.is_exhaustive
    assert result.size >= 2
    _verify_packing(result, eps=0.25)


def test_pack_greedy_respects_large_eps():
    result = pack_greedy(6, 2.0, 0.9)
    assert result.min_pairwise_hamming >= 0.9
    _verify_packing(result, eps=0.9)
    assert result.size < ball_cardinality(6, 2.0)


def test_pack_greedy_restarts_never_hurt():
    base = pack_greedy(9, 2.0, 0.5, restarts=0, seed=1)
    more = pack_greedy(9, 2.0, 0.5, restarts=4, seed=1)
    assert more.size >= base.size
    _verify_packing(more, eps=0.5)


@pytest.mark.parametrize(
    "args, size, last, digest",
    [
        # a restart wins (140 members from the lexicographic scan alone)
        ((9, 2.0, 0.5, 4, 1), 150, [0, 1, 3, 2, 5, 6, 8, 4, 7],
         "ffb19baa3c191a68ddc23b6a31ff8831ee802ef18d83aa6aa51eb0dcff52c682"),
        # the scans find 3, 5, 4, 5 and 4 members; the two 5-member
        # packings differ, and the earlier scan's wins the tie
        ((5, 1.5, 0.75, 4, 0), 5, [2, 0, 3, 1, 4],
         "cde479bd9ca524ef602848ae546063cba2032e8ff3578bb45df00d0f4bc9b3c1"),
    ],
)
def test_pack_greedy_exact_output(args, size, last, digest):
    # the digest covers every map, in order, as little-endian int64
    n, R, eps, restarts, seed = args
    result = pack_greedy(n, R, eps, restarts=restarts, seed=seed)
    rows = np.stack([p.map for p in result.permutations]).astype("<i8")
    assert rows.shape == (size, n)
    assert rows[-1].tolist() == last
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_pack_greedy_sampled_mode_is_valid():
    result = pack_greedy(16, 2.0, 0.25, seed=5)
    assert not result.is_exhaustive
    assert result.size >= 2
    _verify_packing(result, eps=0.25)


def _brute_force_spread(result):
    """Fewest differing positions over every pair of members,
    as a fraction of n; 1.0 (vacuous) for a family of one."""
    arr = np.stack([p.map for p in result.permutations])
    count, n = arr.shape
    best = n
    for i in range(count):
        diffs = (arr != arr[i]).sum(axis=1)
        diffs[i] = n
        best = min(best, int(diffs.min()))
    return best / n


@pytest.mark.parametrize(
    "build",
    [
        lambda: pack_greedy(5, 2.0, 0.25),  # exhaustive
        lambda: pack_greedy(9, 2.0, 0.5, restarts=2, seed=1),  # greedy scans
        lambda: pack_greedy(16, 2.0, 0.25, seed=5),  # sampled ball
        lambda: separated_family(4),
        lambda: separated_family(5),
        lambda: separated_family(12),
        lambda: separated_family(20),
    ],
    ids=["pack-5-exhaustive", "pack-9-restarts", "pack-16-sampled",
         "family-4", "family-5", "family-12", "family-20"],
)
def test_min_pairwise_hamming_is_exact(build):
    result = build()
    assert result.min_pairwise_hamming == _brute_force_spread(result)


def test_pack_greedy_validation():
    with pytest.raises(ValueError):
        pack_greedy(4, 2.0, 0.0)
    with pytest.raises(ValueError):
        pack_greedy(4, 2.0, 1.5)
    with pytest.raises(ValueError):
        pack_greedy(4, -1.0, 0.25)
    with pytest.raises(ValueError):
        pack_greedy(4, 2.0, 0.25, restarts=-1)


# ------------------------------------------------------------ separated family

@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_separated_family_properties(n):
    family = separated_family(n)
    perms = [p.map for p in family.permutations]
    assert perms[0].tolist() == list(range(n))  # identity included
    assert len(perms) >= 2
    ident = np.arange(n)
    for p in perms[1:]:
        moved = np.flatnonzero(p != ident)
        assert moved.size % 2 == 0 and moved.size // 2 <= n // 2
        for k in moved:
            assert p[p[k]] == k  # an involution: disjoint transpositions
        # every odd position maps to an even value (1-based convention)
        for k0 in range(n // 2):
            assert p[2 * k0] % 2 == 1
    for a, b in itertools.combinations(perms, 2):
        assert _hamming_count(a, b) / n >= 3 / 8


def test_separated_family_lift_doubles_differences():
    n = 12
    m = n // 2
    family = separated_family(n)
    lifted = [p.map for p in family.permutations[1:]]
    # recover each inner half-size permutation from its lift
    inners = []
    for p in lifted:
        inner = [(p[2 * k0] - 1) // 2 for k0 in range(m)]
        assert sorted(inner) == list(range(m))
        inners.append(np.array(inner))
    for (pa, ia), (pb, ib) in itertools.combinations(zip(lifted, inners), 2):
        assert _hamming_count(pa, pb) == 2 * _hamming_count(ia, ib)


def test_separated_family_validation_and_determinism():
    with pytest.raises(ValueError):
        separated_family(3)
    a = separated_family(20)
    b = separated_family(20)
    assert [p.map.tolist() for p in a.permutations] == [p.map.tolist() for p in b.permutations]
    assert a.size >= 2


@pytest.mark.parametrize(
    "n, size, last, digest",
    [
        # m = 6: all 6! inner candidates, enumerated
        (12, 361, [11, 8, 9, 10, 7, 6, 5, 4, 1, 2, 3, 0],
         "6fba95ab2e3e7f6318e56f5a622435b2910538c644f1851f00415c6a9e081c83"),
        # m = 8 and m = 10: the identity plus a fixed-seed random sample
        (16, 709, [15, 6, 13, 12, 9, 14, 1, 8, 7, 4, 11, 10, 3, 2, 5, 0],
         "d29ba7d049240ca5a98208749f1610a67ddde0a96944e5da521e0eddcf2293d2"),
        (20, 2036, [17, 14, 7, 16, 11, 12, 19, 2, 9, 8, 15, 4, 5, 18, 1, 10, 3, 0, 13, 6],
         "dec20821b3fc72d79b3ec614c4b7c37c1345c24e7a588fd138c8ac7b693820c2"),
    ],
)
def test_separated_family_exact_output(n, size, last, digest):
    # the selection order is part of the output: the digest covers every
    # map, in order, as little-endian int64
    rows = np.stack([p.map for p in separated_family(n).permutations]).astype("<i8")
    assert rows.shape == (size, n)
    assert rows[-1].tolist() == last
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


# ----------------------------------------------------------------- derangement

def test_derangement_conventions():
    assert derangement_count(0) == 1
    assert derangement_count(1) == 0
    assert derangement_count(4) == 9
    assert derangement_count(7) == 1854


def test_derangement_matches_enumeration():
    for n in range(2, 9):
        direct = sum(
            1
            for p in itertools.permutations(range(n))
            if all(p[k] != k for k in range(n))
        )
        assert derangement_count(n) == direct


def test_derangement_matches_alternating_series():
    for n in range(2, 15):
        series = round(math.factorial(n) * sum((-1) ** j / math.factorial(j) for j in range(n + 1)))
        assert derangement_count(n) == series


def test_derangement_guard():
    with pytest.raises(ValueError):
        derangement_count(-1)
    with pytest.raises(ValueError):
        derangement_count(21)


# ------------------------------------------------------- near-identity count

@pytest.mark.parametrize("n", list(range(2, 9)))
def test_near_identity_bound_holds(n):
    assert verify_near_identity_bound(n)


def test_near_identity_bound_guard():
    with pytest.raises(ValueError):
        verify_near_identity_bound(1)
    with pytest.raises(ValueError):
        verify_near_identity_bound(9)


def test_near_identity_count_vs_derangement_sum():
    # permutations far from the identity, counted two independent ways
    for n in range(2, 9):
        m = (n + 1) // 2
        far = sum(
            1
            for p in itertools.permutations(range(n))
            if 2 * sum(1 for k in range(n) if p[k] != k) >= n
        )
        series = sum(math.comb(n, l) * derangement_count(l) for l in range(m, n + 1))
        assert far == series


# ------------------------------------------------------------------------- csv

def test_packing_csv_roundtrip(tmp_path):
    result = pack_greedy(5, 2.0, 0.25)
    path = tmp_path / "packing.csv"
    write_packing_csv(result, path)
    lines = path.read_text().splitlines()
    back = [[int(v) - 1 for v in line.split(",")] for line in lines]
    assert back == [p.map.tolist() for p in result.permutations]
    assert lines[0] == "1,2,3,4,5"  # identity, 1-based
