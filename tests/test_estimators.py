import itertools
import math
import warnings

import numpy as np
import pytest

from permatch import (
    GREEDY,
    LSL,
    LSNS,
    LSS,
    VARIANCE_GREEDY,
    AssignmentSolution,
    CriterionReduction,
    CostMatrix,
    EstimatorKind,
    ExperimentConfig,
    FeatureSet,
    MatchInstance,
    NoiseSpec,
    Permutation,
    certify,
    cost_general_lsl,
    cost_lsl,
    cost_lsns,
    cost_lss,
    estimate,
    estimate_greedy,
    estimate_variance_greedy,
    generate_instance,
    random_permutation,
    reduce_criterion,
    solve_hungarian,
    uniform_box_features,
)


def _instance(n, d, sigma, seed, tau=3.0, hetero=None):
    theta = uniform_box_features(n, d, tau, seed=seed)
    noise = NoiseSpec.heteroscedastic(hetero) if hetero is not None else NoiseSpec.homoscedastic(sigma)
    truth = random_permutation(np.random.default_rng(seed + 1), n)
    return generate_instance(theta, noise, truth, seed=seed + 2), truth


def _manual_instance(first, second, first_levels=None, second_levels=None):
    return MatchInstance(
        first=FeatureSet(first),
        second=FeatureSet(second),
        first_noise=NoiseSpec.heteroscedastic(first_levels) if first_levels is not None else None,
        second_noise=NoiseSpec.heteroscedastic(second_levels) if second_levels is not None else None,
    )


# ------------------------------------------------------------- cost matrices

def test_cost_lss_orientation():
    # second-set rows, first-set columns
    inst = _manual_instance([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(cost_lss(inst).entries, [[1.0, 0.0], [0.0, 1.0]])


def test_cost_lss_identical_sets_zero_diagonal():
    vectors = [[0.5, 1.5], [2.0, -1.0], [3.0, 0.0]]
    inst = _manual_instance(vectors, vectors)
    np.testing.assert_array_equal(np.diag(cost_lss(inst).entries), np.zeros(3))


def test_cost_lss_matches_naive_double_loop():
    # d = 5000 streams 13 first-set rows in blocks of 6, 6 and 1; 47 second-set
    # rows against 50 first-set rows at d = 50 take second-set blocks of 13,
    # 13, 13 and 8 rows
    rng = np.random.default_rng(4)
    cases = [
        _instance(7, 5, 1.0, seed=3)[0],
        _manual_instance(rng.normal(size=(13, 5000)), rng.normal(size=(9, 5000))),
        _manual_instance(rng.normal(size=(50, 50)), rng.normal(size=(47, 50))),
    ]
    for inst in cases:
        entries = cost_lss(inst).entries
        for i in range(inst.second.n):
            for j in range(inst.first.n):
                expected = np.sum((inst.first.vectors[j] - inst.second.vectors[i]) ** 2)
                assert entries[i, j] == expected


def test_cost_lsns_homoscedastic_is_half_lss():
    inst, _ = _instance(6, 4, 1.0, seed=5)
    np.testing.assert_allclose(cost_lsns(inst).entries, cost_lss(inst).entries / 2.0, rtol=1e-15)


def test_cost_lsns_formula_oracle():
    levels = [0.3, 0.9, 1.4, 2.0]
    inst, _ = _instance(4, 3, None, seed=8, hetero=levels)
    first_levels = inst.first_noise.levels_for(4)
    second_levels = inst.second_noise.levels_for(4)
    entries = cost_lsns(inst).entries
    for i in range(4):
        for j in range(4):
            expected = float(np.sum((inst.first.vectors[j] - inst.second.vectors[i]) ** 2))
            expected /= first_levels[j] ** 2 + second_levels[i] ** 2
            assert entries[i, j] == pytest.approx(expected, rel=1e-12)


def test_cost_lsns_requires_levels():
    inst = _manual_instance([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        cost_lsns(inst)
    with pytest.raises(ValueError):
        estimate_variance_greedy(inst)


def test_cost_lsl_composition_and_floor():
    inst, _ = _instance(5, 3, 0.5, seed=9)
    np.testing.assert_allclose(
        cost_lsl(inst).entries, np.log(cost_lss(inst).entries), rtol=1e-14
    )
    coincident = _manual_instance([[1.0, 2.0], [5.0, 5.0]], [[1.0, 2.0], [4.0, 4.0]])
    entries = cost_lsl(coincident).entries
    assert entries[0, 0] == pytest.approx(math.log(1e-30))
    assert entries[0, 0] < entries.min(initial=0.0) + 1e-9  # the floor is the smallest value


def test_distances_at_least_one_give_nonnegative_lsl():
    inst = _manual_instance([[0.0], [3.0]], [[1.5], [4.0]])
    assert np.all(cost_lsl(inst).entries >= 0.0)


# ------------------------------------------------------------------ estimate

def test_zero_noise_exactness_all_estimators():
    kinds = (GREEDY, LSS, LSNS, LSL, VARIANCE_GREEDY)
    for seed in range(5):
        theta = uniform_box_features(8, 6, 4.0, seed=seed)
        truth = random_permutation(np.random.default_rng(100 + seed), 8)
        inst = generate_instance(theta, NoiseSpec.homoscedastic(1e-12), truth, seed=seed)
        for kind in kinds:
            assert estimate(inst, kind) == truth, kind.tag


def test_rectangular_instance_estimation():
    # 3 of 7 templates observed on the second side: the estimate is the injection
    theta = uniform_box_features(7, 5, 4.0, seed=19)
    truth = Permutation([5, 0, 3], codomain=7)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1e-6), truth, seed=20)
    assert cost_lss(inst).entries.shape == (3, 7)
    for kind in (GREEDY, LSS, LSL):
        assert estimate(inst, kind) == truth, kind.tag


def test_homoscedastic_lss_equals_lsns():
    for seed in range(10):
        inst, _ = _instance(12, 6, 0.8, seed=seed, tau=2.0)
        assert estimate(inst, LSS) == estimate(inst, LSNS)


def _two_level_instance(n, m, d, first_sigma, second_sigma, seed):
    """n of m templates observed on the second side, one noise level per side.

    The box side 1.5 * sqrt(s^2 + s#^2) gets a fifth to a half of the matches
    wrong at d = 50, so the solves search long augmenting paths.
    """
    rng = np.random.default_rng(seed)
    theta = uniform_box_features(m, d, 1.5 * math.hypot(first_sigma, second_sigma), seed=seed).vectors
    truth = Permutation(random_permutation(rng, m).map[:n], codomain=m)
    return MatchInstance(
        first=FeatureSet(theta + first_sigma * rng.standard_normal((m, d))),
        second=FeatureSet(theta[truth.map] + second_sigma * rng.standard_normal((n, d))),
        first_noise=NoiseSpec.homoscedastic(first_sigma),
        second_noise=NoiseSpec.homoscedastic(second_sigma),
        truth=truth,
    )


def _count_solves_and_lsns_costs(monkeypatch):
    # A cost matrix keeps its solution, so a solve_hungarian call on a cost
    # that already carries one returns it without solving; only the others
    # count as solves.
    from permatch import estimators

    counts = {"solve_hungarian": 0, "cost_lsns": 0}

    def counted(name):
        original = getattr(estimators, name)

        def wrapper(*args):
            counts[name] += name != "solve_hungarian" or args[0]._solution is None
            return original(*args)

        monkeypatch.setattr(estimators, name, wrapper)

    counted("solve_hungarian")
    counted("cost_lsns")
    return counts


@pytest.mark.parametrize("order", [(LSS, LSNS), (LSNS, LSS)], ids=["lss-first", "lsns-first"])
@pytest.mark.parametrize("sigmas", [(0.8, 0.8), (0.5, 1.7)], ids=["equal", "unequal"])
def test_one_level_per_side_solves_lss_and_lsns_once(order, sigmas, monkeypatch):
    inst = _two_level_instance(12, 12, 6, *sigmas, seed=3)
    counts = _count_solves_and_lsns_costs(monkeypatch)
    first, second = (estimate(inst, kind) for kind in order)
    assert first == second
    assert counts == {"solve_hungarian": 1, "cost_lsns": 0}


@pytest.mark.parametrize("order", [(LSS, LSNS), (LSNS, LSS)], ids=["lss-first", "lsns-first"])
@pytest.mark.parametrize("case", ["heteroscedastic", "custom-equal-levels"])
def test_per_feature_levels_keep_their_own_lsns_solve(order, case, monkeypatch):
    from permatch import harness

    if case == "heteroscedastic":
        inst, _ = _instance(12, 6, None, seed=3, tau=2.0, hetero=[0.3, 0.9, 1.4, 2.0] * 3)
    else:
        config = ExperimentConfig(
            scenario="custom", n=12, d=6, sigma_levels=(0.8,) * 12, sweep=(2.0,), trials=1, seed=3,
            estimators=order,
        )
        inst = harness._build_trial(config, 2.0, harness._trial_streams(config.seed, 0, 0))
        assert inst.first_noise.sigma is None
    counts = _count_solves_and_lsns_costs(monkeypatch)
    for kind in order:
        estimate(inst, kind)
    assert counts == {"solve_hungarian": 2, "cost_lsns": 1}


@pytest.mark.parametrize(
    "first_sigma, second_sigma, n, m",
    [(1.0, 1.0, 50, 50), (0.5, 1.7, 50, 50), (1.7, 0.5, 50, 50), (0.3, 2.9, 30, 50)],
)
def test_lsns_result_reused_from_lss_is_certified_for_lsns_costs(first_sigma, second_sigma, n, m):
    # The kept LSS solution's potentials, divided by the constant s^2 + s#^2,
    # are dual potentials for LSNS's own costs: LP duality proves the reused
    # assignment optimal for LSNS, rather than inferring it from the algebra.
    from permatch import estimators

    scale = first_sigma**2 + second_sigma**2
    for seed in range(10):
        inst = _two_level_instance(n, m, m, first_sigma, second_sigma, seed)
        got = estimate(inst, LSNS)
        lss = estimators._kept_cost(inst, "lss")._solution
        assert got is lss.assignment
        reused = AssignmentSolution(
            got, lss.total_cost / scale, lss.row_potentials / scale, lss.col_potentials / scale
        )
        assert certify(cost_lsns(inst), reused)


def test_lss_lsl_positionwise_agreement_at_benign_operating_point():
    # where the error curves are flat and near zero, the squared and log
    # objectives pick (almost) the same matches
    from permatch import loss_hamming

    trials = 200
    disagreement = 0.0
    for t in range(trials):
        theta = uniform_box_features(50, 50, 3.5, seed=5000 + t)
        truth = random_permutation(np.random.default_rng(6000 + t), 50)
        inst = generate_instance(theta, NoiseSpec.homoscedastic(1.0), truth, seed=7000 + t)
        disagreement += loss_hamming(estimate(inst, LSS), estimate(inst, LSL))
    assert 1.0 - disagreement / trials >= 0.99


def test_lsl_exhaustive_oracle_n5():
    inst, _ = _instance(5, 4, 1.0, seed=21, tau=2.5)
    got = estimate(inst, LSL)
    # independent scan of every permutation under the log objective
    best, best_pi = math.inf, None
    for perm in itertools.permutations(range(5)):
        total = 0.0
        for i, j in enumerate(perm):
            total += math.log(
                float(np.sum((inst.first.vectors[j] - inst.second.vectors[i]) ** 2))
            )
        if total < best:
            best, best_pi = total, perm
    assert got.map.tolist() == list(best_pi)


@pytest.mark.parametrize("kind", [LSS, LSNS, LSL])
def test_estimators_match_exhaustive_minimizer(kind):
    for n in (2, 3, 4, 5, 6):
        inst, _ = _instance(n, 3, 1.0, seed=50 + n, tau=2.0)
        got = estimate(inst, kind)
        first_levels = inst.first_noise.levels_for(n)
        second_levels = inst.second_noise.levels_for(n)

        def objective(perm):
            total = 0.0
            for i, j in enumerate(perm):
                sq = float(np.sum((inst.first.vectors[j] - inst.second.vectors[i]) ** 2))
                if kind.tag == "lss":
                    total += sq
                elif kind.tag == "lsns":
                    total += sq / (first_levels[j] ** 2 + second_levels[i] ** 2)
                else:
                    total += math.log(sq)
            return total

        best_pi = min(itertools.permutations(range(n)), key=objective)
        assert got.map.tolist() == list(best_pi)


def test_argmin_invariant_under_affine_cost_maps():
    rng = np.random.default_rng(2)
    entries = rng.normal(size=(6, 6))
    base = solve_hungarian(CostMatrix(entries)).assignment
    assert solve_hungarian(CostMatrix(entries * 3.5)).assignment == base
    assert solve_hungarian(CostMatrix(entries + 11.25)).assignment == base
    assert solve_hungarian(CostMatrix(entries * 0.25 - 2.0)).assignment == base


def test_estimator_equivariance_under_first_set_relabeling():
    inst, _ = _instance(7, 4, 0.3, seed=33)
    rho = random_permutation(np.random.default_rng(4), 7)
    relabeled = MatchInstance(
        first=FeatureSet(inst.first.vectors[rho.map]),
        second=inst.second,
        first_noise=NoiseSpec.heteroscedastic(inst.first_noise.levels_for(7)[rho.map]),
        second_noise=inst.second_noise,
    )
    inv = rho.inverse()
    for kind in (GREEDY, LSS, LSNS, LSL, VARIANCE_GREEDY):
        base = estimate(inst, kind)
        moved = estimate(relabeled, kind)
        # feature j now lives at position inv(j)
        assert moved.map.tolist() == inv.map[base.map].tolist(), kind.tag


# -------------------------------------------------------------------- greedy

def test_greedy_well_separated_pair():
    inst = _manual_instance(
        [[0.0, 0.0], [10.0, 10.0]], [[9.9, 10.1], [0.1, -0.1]]
    )
    assert estimate_greedy(inst).map.tolist() == [1, 0]


def test_greedy_single_feature():
    inst = _manual_instance([[2.0]], [[2.5]])
    assert estimate_greedy(inst).map.tolist() == [0]


def test_greedy_matches_sequential_hand_simulation():
    inst, _ = _instance(4, 3, 1.5, seed=71, tau=1.0)
    got = estimate_greedy(inst)
    taken = set()
    expected = []
    for i in range(4):
        best_j, best_dist = None, math.inf
        for j in range(4):
            if j in taken:
                continue
            dist = math.dist(inst.first.vectors[j], inst.second.vectors[i])
            if dist < best_dist:
                best_j, best_dist = j, dist
        taken.add(best_j)
        expected.append(best_j)
    assert got.map.tolist() == expected


def _greedy_one_instance(scores):
    """Greedy as a per-instance row loop: one argmin per row, a taken column set to +inf."""
    work = np.array(scores, dtype=float)
    mapping = []
    for i in range(work.shape[0]):
        j = int(work[i].argmin())
        mapping.append(j)
        work[:, j] = np.inf
    return mapping


def _greedy_draws(count, n, m, d, seed, ties=False):
    """``count`` instances of n second-set rows against m first-set rows."""
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.integers(0, 3, shape).astype(float)) if ties else rng.standard_normal
    return [_manual_instance(draw((m, d)), draw((n, d))) for _ in range(count)]


def _greedy_stacks(monkeypatch):
    from permatch import estimators

    sizes = []
    rows = estimators._greedy_rows

    def counted(stack):
        sizes.append(stack.shape)
        return rows(stack)

    monkeypatch.setattr(estimators, "_greedy_rows", counted)
    return sizes


@pytest.mark.parametrize(
    "count, n, m, d, ties",
    [(1, 50, 50, 50, False), (9, 50, 50, 50, False), (18, 50, 50, 50, False),
     (9, 12, 20, 5, False), (18, 10, 10, 2, True)],
    ids=["batch-1", "batch-9", "batch-18", "n-below-m", "ties"],
)
def test_batched_greedy_is_bit_for_bit_the_one_instance_loop(count, n, m, d, ties, monkeypatch):
    from permatch.estimators import solve_together

    instances = _greedy_draws(count, n, m, d, seed=count + n + m, ties=ties)
    if ties:  # integer coordinates in {0, 1, 2}: rows repeat distances, and the lowest index must win
        assert sum(np.unique(row).size < m for inst in instances for row in inst.sqdist) > count * n // 2
        instances[0] = _manual_instance(np.zeros((m, d)), np.zeros((n, d)))  # every entry ties
    stacks = _greedy_stacks(monkeypatch)
    assert list(solve_together(instances, (GREEDY, LSS))) == instances
    assert stacks == [(count, n, m)]  # one stack held the whole batch
    for inst in instances:
        expected = _greedy_one_instance(inst.sqdist)
        assert estimate(inst, GREEDY).map.tolist() == expected
        alone = _manual_instance(inst.first.vectors, inst.second.vectors)
        assert estimate_greedy(alone) == Permutation(expected, codomain=m)
    if ties:
        assert estimate_greedy(instances[0]).map.tolist() == list(range(n))
    assert stacks == [(count, n, m)] + [(1, n, m)] * count  # the lone instances ran one at a time


def test_batched_greedy_flushes_at_a_shape_change(monkeypatch):
    from permatch.estimators import solve_together

    instances = _greedy_draws(7, 8, 8, 3, seed=1) + _greedy_draws(5, 9, 9, 3, seed=2)
    stacks = _greedy_stacks(monkeypatch)
    assert list(solve_together(instances, (GREEDY,))) == instances
    assert stacks == [(7, 8, 8), (5, 9, 9)]
    for inst in instances:
        assert estimate_greedy(inst).map.tolist() == _greedy_one_instance(inst.sqdist)
    assert len(stacks) == 2  # every result was kept


def test_only_lss_lsns_and_lsl_keep_a_cost():
    # Every other tag gets None and leaves the instance as it was, not an LSL cost.
    from permatch.estimators import _kept_cost

    inst, _ = _instance(6, 3, 1.0, seed=4)
    for tag in ("greedy", "variance-greedy", "general-lsl"):
        assert _kept_cost(inst, tag) is None
    assert set(vars(inst)) == {"first", "second", "first_noise", "second_noise", "truth"}
    assert _kept_cost(inst, "lsns") is _kept_cost(inst, "lss")  # one level per side
    assert _kept_cost(inst, "lsl").entries.tobytes() == cost_lsl(inst).entries.tobytes()


@pytest.mark.parametrize("n, m", [(6, 6), (5, 9)])
def test_variance_greedy_is_the_one_instance_loop_on_its_scores(n, m):
    rng = np.random.default_rng(n * m)
    for ties in (False, True):
        for inst in _greedy_draws(4, n, m, 3, seed=n + m, ties=ties):
            levels = rng.choice([0.5, 1.0, 1.5], size=m)
            inst = _manual_instance(inst.first.vectors, inst.second.vectors, first_levels=levels)
            scores = np.abs(inst.sqdist / (2.0 * inst.first.d) - levels[None, :] ** 2)
            assert estimate_variance_greedy(inst) == Permutation(_greedy_one_instance(scores), codomain=m)


# ----------------------------------------------------------- variance greedy

def test_variance_greedy_identifies_by_levels_alone():
    # identical templates; only the level gap separates the two features
    d, trials = 500, 200
    hits = 0
    theta = FeatureSet(np.zeros((2, d)))
    for seed in range(trials):
        truth = random_permutation(np.random.default_rng(seed), 2)
        inst = generate_instance(theta, NoiseSpec.heteroscedastic([1.0, 10.0]), truth, seed=1000 + seed)
        hits += int(estimate_variance_greedy(inst) == truth)
    assert hits / trials >= 0.95


def test_variance_greedy_single():
    inst = _manual_instance([[0.0]], [[0.1]], first_levels=[1.0], second_levels=[1.0])
    assert estimate_variance_greedy(inst).map.tolist() == [0]


def test_variance_greedy_matches_sequential_oracle():
    inst, _ = _instance(3, 6, None, seed=77, hetero=[0.4, 1.1, 2.2])
    got = estimate_variance_greedy(inst)
    levels = inst.first_noise.levels_for(3)
    d = inst.first.d
    taken = set()
    expected = []
    for j in range(3):
        best_i, best_val = None, math.inf
        for i in range(3):
            if i in taken:
                continue
            sq = float(np.sum((inst.first.vectors[i] - inst.second.vectors[j]) ** 2))
            val = abs(sq / (2 * d) - levels[i] ** 2)
            if val < best_val:
                best_i, best_val = i, val
        taken.add(best_i)
        expected.append(best_i)
    assert got.map.tolist() == expected


# -------------------------------------------------------- criterion reduction

def test_reduce_criterion_identity():
    red = reduce_criterion(np.eye(4), np.eye(4))
    np.testing.assert_allclose(red.B, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(np.abs(red.V @ red.V_sharp.T), np.eye(4), atol=1e-12)


def test_reduce_criterion_centering_matrix():
    d = 6
    centering = np.eye(d) - np.ones((d, d)) / d  # removes the per-feature mean
    red = reduce_criterion(centering, centering)
    assert red.B.shape == (d - 1, d - 1)
    np.testing.assert_allclose(red.B @ red.B.T, np.eye(d - 1), atol=1e-9)
    np.testing.assert_allclose(red.V @ red.V.T, np.eye(d - 1), atol=1e-10)


def test_block_rotation_reduction_is_norm_preserving():
    d = 5
    angle = 0.7
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    B = np.block([[np.eye(d - 2), np.zeros((d - 2, 2))], [np.zeros((2, d - 2)), rotation]])
    red = CriterionReduction(B=B, V=np.eye(d), V_sharp=np.eye(d), b=np.zeros(d), b_sharp=np.zeros(d))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=d)
        assert np.linalg.norm(red.B @ x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_reduce_criterion_rank_zero_rejected():
    with pytest.raises(ValueError):
        reduce_criterion(np.zeros((3, 3)), np.eye(3))


def test_criterion_reduction_validates_rows():
    with pytest.raises(ValueError):
        CriterionReduction(
            B=np.eye(2), V=np.array([[1.0, 1.0], [0.0, 1.0]]), V_sharp=np.eye(2),
            b=np.zeros(2), b_sharp=np.zeros(2),
        )


def _reduction(**fields):
    """The identity reduction in R^2 with some fields replaced."""
    base = dict(B=np.eye(2), V=np.eye(2), V_sharp=np.eye(2), b=np.zeros(2), b_sharp=np.zeros(2))
    return CriterionReduction(**{**base, **fields})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _reduction(B=np.ones(2)), "B, V and V_sharp must be matrices"),
        (lambda: _reduction(B=np.eye(3)), "B must be 2 x 2 to match the row spaces, got (3, 3)"),
        (lambda: _reduction(b=np.zeros(3)), "offset lengths must match the ambient dimension"),
        (lambda: _reduction(B=[[np.nan, 0.0], [0.0, 1.0]]), "B contains non-finite entries"),
        (lambda: reduce_criterion(np.ones(3), np.eye(3)), "A and A_sharp must be matrices"),
        (lambda: reduce_criterion(np.eye(2), np.eye(3)), "A and A_sharp must share their row count, got 2 vs 3"),
        (lambda: reduce_criterion(np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]), "criterion matrices must be finite"),
        (lambda: cost_general_lsl(_instance(5, 4, 1.0, seed=1)[0], CriterionReduction.identity(3)),
         "reduction expects ambient dimensions (3, 3), instance has (4, 4)"),
    ],
    ids=[
        "reduction-vector-B", "reduction-B-shape", "reduction-offset-length", "reduction-nan-B",
        "criterion-vector", "criterion-row-counts", "criterion-inf", "general-lsl-dimension",
    ],
)
def test_criterion_input_is_checked(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ------------------------------------------------------------- general LSL

def test_general_lsl_identity_reduction_matches_lsl():
    inst, _ = _instance(6, 4, 1.0, seed=12)
    red = CriterionReduction.identity(4)
    general = cost_general_lsl(inst, red)
    plain = cost_lsl(inst)
    # the transform halves all distances: log(x/4) = log x - log 4
    np.testing.assert_allclose(general.entries, plain.entries - math.log(4.0), rtol=1e-9, atol=1e-9)
    assert estimate(inst, EstimatorKind.general_lsl(red)) == estimate(inst, LSL)


def test_general_lsl_orthogonal_b_halves_residual():
    d = 4
    rng = np.random.default_rng(44)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    red = CriterionReduction(B=q, V=np.eye(d), V_sharp=np.eye(d), b=np.zeros(d), b_sharp=np.zeros(d))
    inst, _ = _instance(5, d, 0.7, seed=13)
    entries = cost_general_lsl(inst, red).entries
    for i in range(5):
        for j in range(5):
            residual = inst.first.vectors[j] - q @ inst.second.vectors[i]
            expected = math.log(max(0.25 * float(residual @ residual), 1e-30))
            assert entries[i, j] == pytest.approx(expected, rel=1e-9)


def test_general_lsl_illumination_invariance_hits_floor():
    # matched features that differ only by per-feature constant offsets
    d = 5
    rng = np.random.default_rng(55)
    base = rng.normal(size=(4, d))
    offsets = rng.normal(size=4)
    second = base + offsets[:, None]  # constant shift per feature
    inst = _manual_instance(base, second)
    centering = np.eye(d) - np.ones((d, d)) / d
    red = reduce_criterion(centering, centering)
    entries = cost_general_lsl(inst, red).entries
    for i in range(4):
        assert entries[i, i] == pytest.approx(math.log(1e-30))
    assert estimate(inst, EstimatorKind.general_lsl(red)) == Permutation.identity(4)


def test_general_lsl_overflow_is_named():
    inst = _manual_instance([[0.0], [1e200]], [[0.0], [-1e200]])
    kind = EstimatorKind.general_lsl(reduce_criterion(np.eye(1), np.eye(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            estimate(inst, kind)


def test_estimator_kind_validation():
    with pytest.raises(ValueError):
        EstimatorKind("nearest")
    with pytest.raises(ValueError):
        EstimatorKind("general-lsl")  # reduction missing
    with pytest.raises(ValueError):
        EstimatorKind.from_name("general-lsl")
    assert EstimatorKind.from_name(" LSS ").tag == "lss"
