"""End-to-end acceptance checks for the package.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (visible with
`pytest -s`) and then asserts, so a red run still reports every measured
number.  Budgets on wall time are part of the checks.

Note on `homoscedastic-sweep-reproduction`: its greedy-gap clause demands a
mean-Hamming gap of at least 0.05 between greedy and LSS at the smallest
sweep point for n = d = 50 with 200 trials.  At that problem size both
methods sit near saturation at the smallest tau: over 13 independent
seeds the measured gap is 0.031 +- 0.003 (mean +- standard deviation,
range 0.026-0.036; 0.030 at this test's seed).  It reaches 0.092 +- 0.005
at n = d = 200, so the qualitative effect is real but the 0.05 margin is
not attainable at this scale.  The clause is asserted as specified and is
expected to fail.
"""

import itertools
import math
import time

import numpy as np
import pytest

from permatch import (
    CostMatrix,
    EstimatorKind,
    ExperimentConfig,
    LSL,
    LSNS,
    LSS,
    Permutation,
    aggregate,
    ball_cardinality,
    certify,
    chi2_tail_bound,
    derangement_count,
    estimate,
    generate_instance,
    loss_01,
    loss_hamming,
    minimax_separation_rate,
    NoiseSpec,
    pack_greedy,
    random_permutation,
    run_experiment,
    separated_family,
    solve_bruteforce,
    solve_hungarian,
    uniform_box_features,
    verify_near_identity_bound,
)

_BALL_SIZES = {4: 19, 5: 57, 6: 179, 7: 594, 8: 1939}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _mean_losses(records, estimator):
    rows = [r for r in aggregate(records) if r.estimator == estimator]
    return {row.sweep_value: row for row in rows}


# ---------------------------------------------------------------------------
# 1. assignment solver vs exhaustive oracle, integer inputs, exact equality,
#    and the solver's own LP-duality certificate on every matrix
# ---------------------------------------------------------------------------

def test_assignment_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20240001)
    mismatches = 0
    uncertified = 0
    for n in range(2, 8):
        for _ in range(1000):
            cost = CostMatrix(rng.integers(0, 100, size=(n, n)).astype(float))
            solution = solve_hungarian(cost)
            if solution.total_cost != solve_bruteforce(cost).total_cost:
                mismatches += 1
            if not certify(cost, solution):
                uncertified += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and uncertified == 0 and elapsed < 60
    _report(
        "assignment-oracle-equivalence",
        ok,
        f"6000 integer matrices, {mismatches} mismatches, {uncertified} uncertified, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert uncertified == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. assignment-based estimators vs exhaustive objective minimizers
# ---------------------------------------------------------------------------

def _naive_cost(inst, kind):
    """Independent double-loop evaluation of each estimator's objective."""
    n = inst.second.n
    first_levels = inst.first_noise.levels_for(n)
    second_levels = inst.second_noise.levels_for(n)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sq = float(np.sum((inst.first.vectors[j] - inst.second.vectors[i]) ** 2))
            if kind is LSS:
                out[i, j] = sq
            elif kind is LSNS:
                out[i, j] = sq / (first_levels[j] ** 2 + second_levels[i] ** 2)
            else:
                out[i, j] = math.log(sq)
    return out


def test_estimator_objective_equivalence():
    start = time.time()
    failures = []
    for n in range(2, 7):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        rng = np.random.default_rng(515 + n)
        for trial in range(200):
            theta = uniform_box_features(n, 3, 2.0, seed=int(rng.integers(2**31)))
            levels = 0.5 + rng.random(n)
            truth = random_permutation(rng, n)
            inst = generate_instance(
                theta, NoiseSpec.heteroscedastic(levels), truth, seed=int(rng.integers(2**31))
            )
            for kind in (LSS, LSNS, LSL):
                got = estimate(inst, kind)
                naive = _naive_cost(inst, kind)
                totals = naive[np.arange(n)[None, :], perms].sum(axis=1)
                best = perms[int(np.argmin(totals))]
                if got.map.tolist() != best.tolist():
                    failures.append((n, trial, kind.tag))
    elapsed = time.time() - start
    ok = not failures and elapsed < 120
    _report(
        "estimator-objective-equivalence",
        ok,
        f"n=2..6 x 200 instances x 3 estimators, {len(failures)} disagreements, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 3. published ball cardinalities and packing sizes, zero tolerance
# ---------------------------------------------------------------------------

def test_ball_and_packing_cardinalities():
    start = time.time()
    balls = {n: ball_cardinality(n, 2.0) for n in range(4, 9)}
    packs = {n: pack_greedy(n, 2.0, 0.25).size for n in range(4, 9)}
    elapsed = time.time() - start
    ok = balls == _BALL_SIZES and packs == _BALL_SIZES and elapsed < 30
    _report(
        "ball-and-packing-cardinalities",
        ok,
        f"balls={balls}, packings={packs}, {elapsed:.1f}s",
    )
    assert balls == _BALL_SIZES
    assert packs == _BALL_SIZES
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 4. at the guaranteed-recovery separation, all estimators err rarely
# ---------------------------------------------------------------------------

def test_threshold_recovery_monte_carlo():
    start = time.time()
    config = ExperimentConfig(
        scenario="threshold-check",
        n=50,
        d=50,
        sigma=1.0,
        alpha=0.1,
        sweep=(1.0,),
        trials=500,
        seed=424242,
        estimators=(
            EstimatorKind("greedy"),
            EstimatorKind("lss"),
            EstimatorKind("lsns"),
            EstimatorKind("lsl"),
        ),
    )
    records = run_experiment(config)
    rates = {
        row.estimator: row.mean_01 for row in aggregate(records)
    }
    elapsed = time.time() - start
    ok = all(rate <= 0.1 for rate in rates.values()) and elapsed < 300
    _report(
        "threshold-recovery-monte-carlo",
        ok,
        f"P(mismatch) by estimator = {rates}, {elapsed:.1f}s",
    )
    for estimator, rate in rates.items():
        assert rate <= 0.1, (estimator, rate)
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 5. the adversarial two-feature configuration defeats greedy, not LSL
# ---------------------------------------------------------------------------

def test_greedy_adversarial_monte_carlo():
    start = time.time()
    config = ExperimentConfig(
        scenario="greedy-adversarial",
        d=404,
        sweep=(2.5,),
        trials=500,
        seed=777,
        estimators=(EstimatorKind("greedy"), EstimatorKind("lsl")),
    )
    records = run_experiment(config)
    rates = {row.estimator: row.mean_01 for row in aggregate(records)}
    elapsed = time.time() - start
    ok = rates["greedy"] >= 0.45 and rates["lsl"] < rates["greedy"] and elapsed < 120
    _report(
        "greedy-adversarial-monte-carlo",
        ok,
        f"greedy={rates['greedy']:.3f} (need >= 0.45), lsl={rates['lsl']:.3f}, {elapsed:.1f}s",
    )
    assert rates["greedy"] >= 0.45
    assert rates["lsl"] < rates["greedy"]
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 6. homoscedastic sweep at desk scale
# ---------------------------------------------------------------------------

def test_homoscedastic_sweep_reproduction():
    start = time.time()
    taus = (1.4, 1.9, 2.4, 2.9, 3.5)
    config = ExperimentConfig(
        scenario="uniform-homoscedastic",
        n=50,
        d=50,
        sigma=1.0,
        sweep=taus,
        trials=200,
        seed=1202,
        estimators=(
            EstimatorKind("greedy"),
            EstimatorKind("lss"),
            EstimatorKind("lsns"),
            EstimatorKind("lsl"),
        ),
    )
    records = run_experiment(config)
    means = {
        est: [_mean_losses(records, est)[tau].mean_hamming for tau in taus]
        for est in ("greedy", "lss", "lsns", "lsl")
    }
    elapsed = time.time() - start

    likelihood_spread = max(
        abs(means[a][k] - means[b][k])
        for k in range(len(taus))
        for a, b in (("lss", "lsns"), ("lss", "lsl"), ("lsns", "lsl"))
    )
    greedy_gap = means["greedy"][0] - means["lss"][0]
    worst_inversion = max(
        means[est][k + 1] - means[est][k]
        for est in means
        for k in range(len(taus) - 1)
    )
    ok = (
        likelihood_spread <= 0.02
        and greedy_gap >= 0.05
        and worst_inversion <= 0.01
        and elapsed < 600
    )
    _report(
        "homoscedastic-sweep-reproduction",
        ok,
        f"likelihood spread={likelihood_spread:.4f} (<=0.02), "
        f"greedy-LSS gap at tau=1.4: {greedy_gap:.4f} (need >=0.05), "
        f"worst inversion={worst_inversion:.4f} (<=0.01), {elapsed:.1f}s",
    )
    assert likelihood_spread <= 0.02
    assert worst_inversion <= 0.01
    assert elapsed < 600
    # Known-unattainable margin at this problem size; see the module docstring.
    assert greedy_gap >= 0.05


# ---------------------------------------------------------------------------
# 7. heteroscedastic sweep at desk scale
# ---------------------------------------------------------------------------

def test_heteroscedastic_sweep_reproduction():
    start = time.time()
    taus = (4.0, 5.5, 7.0, 8.5, 10.0)
    config = ExperimentConfig(
        scenario="identity-heteroscedastic",
        n=50,
        d=50,
        sigma_high=1.0,
        sigma_low=0.5,
        sweep=taus,
        trials=200,
        seed=909,
        estimators=(
            EstimatorKind("greedy"),
            EstimatorKind("lss"),
            EstimatorKind("lsns"),
            EstimatorKind("lsl"),
        ),
    )
    records = run_experiment(config)
    means = {
        est: [_mean_losses(records, est)[tau].mean_hamming for tau in taus]
        for est in ("greedy", "lss", "lsns", "lsl")
    }
    elapsed = time.time() - start

    lsl_close_to_lsns = all(
        means["lsl"][k] <= means["lsns"][k] + 0.02 for k in range(len(taus))
    )
    dominated = True
    for k in range(len(taus)):
        if means["lss"][k] > 0.02:
            dominated &= means["lsl"][k] < means["lss"][k]
            dominated &= means["lsl"][k] < means["greedy"][k]
    ok = lsl_close_to_lsns and dominated and elapsed < 600
    _report(
        "heteroscedastic-sweep-reproduction",
        ok,
        f"lsl={['%.4f' % v for v in means['lsl']]}, lsns={['%.4f' % v for v in means['lsns']]}, "
        f"lss={['%.4f' % v for v in means['lss']]}, greedy={['%.4f' % v for v in means['greedy']]}, "
        f"{elapsed:.1f}s",
    )
    assert lsl_close_to_lsns
    assert dominated
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 8. property suite
# ---------------------------------------------------------------------------

def test_property_suite():
    start = time.time()
    rng = np.random.default_rng(88)
    problems = []

    # argmin invariance under affine cost rescaling
    for _ in range(20):
        entries = rng.normal(size=(8, 8))
        base = solve_hungarian(CostMatrix(entries)).assignment
        for scale, shift in ((2.0, 0.0), (0.125, 3.0), (7.5, -11.0)):
            if solve_hungarian(CostMatrix(entries * scale + shift)).assignment != base:
                problems.append("affine-invariance")

    # homoscedastic LSS and LSNS coincide
    for seed in range(20):
        theta = uniform_box_features(12, 8, 2.0, seed=seed)
        truth = random_permutation(np.random.default_rng(seed), 12)
        inst = generate_instance(theta, NoiseSpec.homoscedastic(0.9), truth, seed=seed + 1)
        if estimate(inst, LSS) != estimate(inst, LSNS):
            problems.append("lss-lsns-identity")

    # Hamming loss never exceeds the 0-1 loss, on 10^4 random pairs
    for _ in range(10_000):
        a = random_permutation(rng, 6)
        b = random_permutation(rng, 6)
        if loss_hamming(a, b) > loss_01(a, b):
            problems.append("loss-inequality")
            break

    # chi-squared tail bounds dominate 10^6-draw empirical tails
    for dof in (1, 5, 10, 100):
        draws = np.random.default_rng(300 + dof).chisquare(dof, size=1_000_000)
        for x in (1.0, 3.0, 5.0):
            lo, hi = chi2_tail_bound(dof, x)
            if np.mean(draws - dof <= -2 * math.sqrt(dof * x)) > lo:
                problems.append(f"chi2-lower-{dof}-{x}")
            if np.mean(draws - dof >= 2 * math.sqrt(dof * x) + 2 * x) > hi:
                problems.append(f"chi2-upper-{dof}-{x}")

    # separated transposition families
    for n in (4, 8, 12, 20):
        family = separated_family(n)
        perms = [p.map for p in family.permutations]
        ident = np.arange(n)
        for p in perms[1:]:
            moved = np.flatnonzero(p != ident)
            if moved.size // 2 > n // 2 or any(p[p[k]] != k for k in moved):
                problems.append(f"family-shape-{n}")
        for a, b in itertools.combinations(perms, 2):
            if int(np.count_nonzero(a != b)) / n < 3 / 8:
                problems.append(f"family-spread-{n}")

    # near-identity counting bound
    for n in range(2, 9):
        if not verify_near_identity_bound(n):
            problems.append(f"near-identity-{n}")

    # derangement recurrence vs exhaustive enumeration
    for n in range(2, 9):
        direct = sum(
            1 for p in itertools.permutations(range(n)) if all(p[k] != k for k in range(n))
        )
        if derangement_count(n) != direct:
            problems.append(f"derangement-{n}")

    elapsed = time.time() - start
    ok = not problems and elapsed < 180
    _report("property-suite", ok, f"violations={problems or 'none'}, {elapsed:.1f}s")
    assert not problems
    assert elapsed < 180


# ---------------------------------------------------------------------------
# 9. dimension phase transition of the separation rate
# ---------------------------------------------------------------------------

def test_rate_phase_transition():
    n = 1000
    log_n = math.log(n)
    plateau = {minimax_separation_rate(1.0, n, d) for d in range(1, int(log_n) + 1)}
    tail = [minimax_separation_rate(1.0, n, d) for d in range(int(log_n) + 1, 200)]
    ratio = minimax_separation_rate(1.0, n, 16 * log_n) / minimax_separation_rate(1.0, n, log_n)
    ok = len(plateau) == 1 and all(a < b for a, b in zip(tail, tail[1:])) and ratio == 2.0
    _report(
        "rate-phase-transition",
        ok,
        f"plateau size={len(plateau)}, strictly increasing beyond, ratio={ratio!r} (exact 2.0 required)",
    )
    assert len(plateau) == 1
    assert all(a < b for a, b in zip(tail, tail[1:]))
    assert ratio == 2.0
