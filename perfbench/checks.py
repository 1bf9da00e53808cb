"""Output checks.  Each returns a list of problems; empty means correct.

Assignment estimators are checked on total cost, not on the assignment,
because ties are allowed: the benchmark builds its own cost matrix and
compares the program's total against the optimum from
``scipy.optimize.linear_sum_assignment`` on that same matrix.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

_LOG_FLOOR = 1e-30  # the floor permatch's LSL puts under squared distances
_RTOL = 1e-9


def cost_matrix(tag: str, first: np.ndarray, second: np.ndarray,
                first_sigma=None, second_sigma=None) -> np.ndarray:
    """Entry (i, j) scores second-set feature i against first-set feature j."""
    sq = cdist(second, first, "sqeuclidean")
    if tag == "lss":
        return sq
    if tag == "lsns":
        return sq / (np.square(first_sigma)[None, :] + np.square(second_sigma)[:, None])
    if tag == "lsl":
        return np.log(np.maximum(sq, _LOG_FLOOR))
    raise ValueError(f"no reference cost for estimator {tag!r}")


def totals(cost: np.ndarray, mapping: np.ndarray) -> tuple[float, float]:
    """(program's total, optimum) on ``cost``."""
    rows, cols = linear_sum_assignment(cost)
    optimum = float(cost[rows, cols].sum())
    total = float(cost[np.arange(mapping.size), mapping].sum())
    return total, optimum


def _is_worse(total: float, optimum: float, cost: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(cost).max()) * cost.shape[0])
    return total > optimum + _RTOL * scale


def _is_injection(mapping: np.ndarray, n: int, m: int) -> bool:
    return (mapping.shape == (n,) and mapping.min(initial=0) >= 0
            and mapping.max(initial=-1) < m and np.unique(mapping).size == n)


def check_estimates(estimates) -> list[str]:
    """Every captured assignment-estimator result must be optimal."""
    problems = []
    for index, (instance, tag, permutation) in enumerate(estimates):
        mapping = np.asarray(permutation.map)
        if not _is_injection(mapping, instance.second.n, instance.first.n):
            problems.append(f"instance {index} {tag}: result is not an injection")
            continue
        if tag == "greedy":
            continue
        sigmas = ()
        if tag == "lsns":
            sigmas = (instance.first_noise.levels_for(instance.first.n),
                      instance.second_noise.levels_for(instance.second.n))
        cost = cost_matrix(tag, instance.first.vectors, instance.second.vectors, *sigmas)
        total, optimum = totals(cost, mapping)
        if _is_worse(total, optimum, cost):
            problems.append(f"instance {index} {tag}: total cost {total!r} > optimum {optimum!r}")
    return problems


def check_summary(path, spec, read_summary_csv) -> list[str]:
    """The summary CSV parses back with one row per (sweep value, estimator)."""
    try:
        rows = read_summary_csv(path)
    except (OSError, ValueError) as exc:
        return [f"summary does not parse: {exc}"]
    expected = sorted((float(v), e) for v in spec.sweep for e in spec.estimators)
    got = sorted((r.sweep_value, r.estimator) for r in rows)
    problems = []
    if got != expected:
        problems.append(f"summary cells {got} != expected {expected}")
    bad = [r for r in rows if r.trials != spec.trials]
    if bad:
        problems.append(f"{len(bad)} summary rows without {spec.trials} trials")
    for r in rows:
        if not (0.0 <= r.mean_01 <= 1.0 and 0.0 <= r.mean_hamming <= 1.0
                and math.isfinite(r.se_01) and math.isfinite(r.se_hamming)):
            problems.append(f"summary row {r} out of range")
            break
    return problems


def check_match(text: str, inputs, estimator: str) -> tuple[list[str], float]:
    """Problems with a ``match`` output, and its Hamming accuracy (not gated)."""
    lines = text.splitlines()
    if not lines or lines[0] != "i,pi_i":
        return [f"match output header {lines[:1]} != ['i,pi_i']"], math.nan
    try:
        pairs = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"match output does not parse: {exc}"], math.nan
    n, m = inputs.second.shape[0], inputs.first.shape[0]
    if pairs.shape != (n, 2) or not np.array_equal(pairs[:, 0], np.arange(1, n + 1)):
        return [f"match output rows are not 1..{n}"], math.nan
    mapping = pairs[:, 1] - 1
    if not _is_injection(mapping, n, m):
        return ["match output is not an injection into the first set"], math.nan
    accuracy = float(np.mean(mapping == inputs.truth))
    cost = cost_matrix(estimator, inputs.first, inputs.second)
    total, optimum = totals(cost, mapping)
    if _is_worse(total, optimum, cost):
        return [f"match total cost {total!r} > optimum {optimum!r}"], accuracy
    return [], accuracy


def reference_solve_s(matrices, repeats: int = 3) -> float:
    """scipy's time on the given cost matrices: sum of per-matrix medians."""
    total = 0.0
    for entries in matrices:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            linear_sum_assignment(entries)
            times.append(time.perf_counter() - start)
        total += sorted(times)[len(times) // 2]
    return total
