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
    DEFAULT_SQDIST_FLOOR,
    CostMatrix,
    EstimatorKind,
    ExperimentConfig,
    FeatureSet,
    MatchInstance,
    NoiseSpec,
    Permutation,
    certify,
    cost_lsl,
    cost_lsns,
    cost_lss,
    estimate,
    estimate_greedy,
    estimate_variance_greedy,
    generate_instance,
    loss_hamming,
    pairwise_sqdist,
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
    # at d = 5000 the kernel takes the 13 first-set rows in blocks of 6, 6
    # and a ragged 1; at d = 50 the 50 first-set rows are one block
    rng = np.random.default_rng(4)
    cases = [
        _instance(7, 5, 1.0, seed=3)[0],
        _manual_instance(rng.normal(size=(13, 5000)), rng.normal(size=(9, 5000))),
        _manual_instance(rng.normal(size=(50, 50)), rng.normal(size=(47, 50))),
    ]
    for inst in cases:
        entries = inst.sqdist  # the kernel, which every exact entry and fallback reads
        for i in range(inst.second.n):
            for j in range(inst.first.n):
                diff = inst.first.vectors[j] - inst.second.vectors[i]
                assert entries[i, j] == np.dot(diff, diff)
        cost = cost_lss(inst)  # the GEMM distances, within their row bounds of the kernel
        assert cost.bound is not None
        assert np.all(np.abs(cost.entries - entries) <= cost.bound)
        assert cost.exact().tobytes() == entries.tobytes()


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
    cost, exact = cost_lsl(inst), np.log(inst.sqdist)
    assert cost.exact().tobytes() == exact.tobytes()
    assert np.all(np.abs(cost.entries - exact) <= cost.bound)
    coincident = _manual_instance([[1.0, 2.0], [5.0, 5.0]], [[1.0, 2.0], [4.0, 4.0]])
    assert coincident.sqdist[0, 0] == 0.0
    entries = cost_lsl(coincident).entries
    assert entries[0, 0] == math.log(1e-30)  # the pair is recomputed by the kernel, so it reads the floor
    assert entries[0, 0] < entries.min(initial=0.0) + 1e-9  # the floor is the smallest value


def _hard_instances():
    """(name, instance): inputs on which the GEMM distances alone could mislead."""
    rng = np.random.default_rng(17)
    first = rng.standard_normal((30, 20))
    perm = rng.permutation(30)
    levels = rng.choice([0.5, 1.0, 2.0], size=30)
    noisy = first[perm] + 0.3 * rng.standard_normal((30, 20))
    # ||x||^2 ~ 2e13 against squared distances ~ 10: cancellation swamps the expansion
    yield "offset-1e6", _manual_instance(first + 1e6, noisy + 1e6, levels, levels[perm])
    duplicated = noisy.copy()
    duplicated[::3] = first[perm[::3]]  # every third pair coincides: LSL's floor
    yield "duplicated", _manual_instance(first, duplicated, levels, levels[perm])
    ties = rng.integers(0, 3, (30, 6)).astype(float)  # integer distances, many equal
    yield "integer-ties", _manual_instance(ties, ties[perm[:24]], levels, levels[perm[:24]])


@pytest.mark.parametrize("name", [name for name, _ in _hard_instances()])
def test_hard_inputs_give_the_exact_paths_results(name, monkeypatch):
    from permatch import model

    inst = dict(_hard_instances())[name]
    normal = {kind.tag: estimate(inst, kind) for kind in (GREEDY, LSS, LSNS, LSL)}
    if name == "offset-1e6":
        assert inst.bounded_sqdist.bound is None  # the kernel's matrix itself
    if name == "duplicated":
        rows, cols = (inst.sqdist == 0.0).nonzero()
        assert rows.tolist() == list(range(0, 30, 3))
        assert (cost_lsl(inst).entries[rows, cols] == math.log(DEFAULT_SQDIST_FLOOR)).all()
        assert (normal["lsl"].map[rows] == cols).all()
    monkeypatch.setattr(model, "gemm_sqdist", lambda second, first: model.BoundedSqdist(pairwise_sqdist(second, first)))
    exact = _manual_instance(inst.first.vectors, inst.second.vectors, inst.first_noise.levels, inst.second_noise.levels)
    assert exact.bounded_sqdist.bound is None
    for kind in (GREEDY, LSS, LSNS, LSL):
        assert estimate(exact, kind) == normal[kind.tag], kind.tag


def test_distances_above_the_gemm_tile_width_are_the_kernels_matrix():
    # at d = 65537 a tile of two rows and two columns exceeds model._GEMM_TILE
    rng = np.random.default_rng(65537)
    first = rng.normal(size=(3, 65537))
    inst = _manual_instance(first, first[[2, 0, 1]] + 0.1 * rng.normal(size=(3, 65537)))
    assert inst.bounded_sqdist.bound is None
    for kind in (GREEDY, LSS, LSL):
        assert estimate(inst, kind) == Permutation([2, 0, 1]), kind.tag


def test_gemm_recompute_threshold_lies_above_the_lsl_floor():
    # an entry the expansion keeps is above model._EXACT_BELOW, so LSL never floors it
    from permatch import model

    assert model._EXACT_BELOW > DEFAULT_SQDIST_FLOOR


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
    # one stack held the whole batch; with ties, a second one holds the
    # instances whose margins fail on the GEMM distances, on the kernel's
    redone = _tied_margins(instances)
    assert (redone > 0) == ties
    assert stacks == [(count, n, m)] + [(redone, n, m)] * (redone > 0)
    del stacks[:]
    for inst in instances:
        expected = _greedy_one_instance(inst.sqdist)
        assert estimate(inst, GREEDY).map.tolist() == expected
        alone = _manual_instance(inst.first.vectors, inst.second.vectors)
        assert estimate_greedy(alone) == Permutation(expected, codomain=m)
    if ties:
        assert estimate_greedy(instances[0]).map.tolist() == list(range(n))
    # the lone instances ran one at a time, each failed margin once more on the kernel's distances
    assert stacks == [(1, n, m)] * (count + redone)


def _tied_margins(instances) -> int:
    """How many bounded instances have a greedy pick within twice its row's bound of a free column."""
    failing = 0
    for inst in instances:
        distances = inst.bounded_sqdist
        if distances.bound is None:
            continue
        work = np.array(distances.values)
        for i in range(work.shape[0]):
            j = int(work[i].argmin())
            picked, runner_up = work[i, j], np.delete(work[i], j).min(initial=np.inf)
            work[:, j] = np.inf
            if not runner_up - picked > 2.0 * distances.bound[i, 0]:
                failing += 1
                break
    return failing


def test_greedy_reruns_on_the_kernel_where_margins_fail(monkeypatch):
    # Forcing every bound to +inf fails every margin: each instance's map then
    # comes from a second stack of the kernel's distances, and equals it.
    from permatch import model
    from permatch.estimators import solve_together

    instances = _greedy_draws(9, 50, 50, 50, seed=3)
    expected = [_greedy_one_instance(inst.sqdist) for inst in instances]
    gemm = model.gemm_sqdist

    def unbounded(second, first):
        distances = gemm(second, first)
        return model.BoundedSqdist(distances.values, np.full_like(distances.bound, np.inf), distances.lows)

    monkeypatch.setattr(model, "gemm_sqdist", unbounded)
    forced = [_manual_instance(inst.first.vectors, inst.second.vectors) for inst in instances]
    stacks = _greedy_stacks(monkeypatch)
    assert list(solve_together(forced, (GREEDY,))) == forced
    assert stacks == [(9, 50, 50), (9, 50, 50)]
    assert [estimate_greedy(inst).map.tolist() for inst in forced] == expected


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
    for tag in ("greedy", "variance-greedy"):
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
    # B = I, so W = (2I)^{-1/2} and both maps are I / sqrt(2), up to the SVD's signs
    red = reduce_criterion(np.eye(4), np.eye(4))
    np.testing.assert_allclose(red.first_map @ red.first_map.T, np.eye(4) / 2, atol=1e-12)
    np.testing.assert_allclose(red.second_map, red.first_map, atol=1e-12)


def test_reduce_criterion_centering_matrix():
    d = 6
    centering = np.eye(d) - np.ones((d, d)) / d  # removes the per-feature mean
    red = reduce_criterion(centering, centering)
    assert red.first_map.shape == red.second_map.shape == (d, d - 1)
    np.testing.assert_allclose(red.first_map.T @ red.first_map, np.eye(d - 1) / 2, atol=1e-10)
    np.testing.assert_allclose(red.second_map, red.first_map, atol=1e-10)
    np.testing.assert_allclose(np.ones(d) @ red.first_map, 0.0, atol=1e-12)


def test_block_rotation_reduction_is_norm_preserving():
    # the criterion x = R x#: both maps scale norms by 1/sqrt(2), and a matched pair maps to one point
    d = 5
    angle = 0.7
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    R = np.block([[np.eye(d - 2), np.zeros((d - 2, 2))], [np.zeros((2, d - 2)), rotation]])
    red = reduce_criterion(np.eye(d), R)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=d)
        assert np.linalg.norm(x @ red.first_map) == pytest.approx(np.linalg.norm(x) / math.sqrt(2), rel=1e-12)
        assert np.linalg.norm(x @ red.second_map) == pytest.approx(np.linalg.norm(x) / math.sqrt(2), rel=1e-12)
        np.testing.assert_allclose((x @ R.T) @ red.first_map, x @ red.second_map, atol=1e-12)


def test_reduce_criterion_rank_zero_rejected():
    with pytest.raises(ValueError):
        reduce_criterion(np.zeros((3, 3)), np.eye(3))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: reduce_criterion(np.eye(2), np.eye(2), b=np.zeros(3)),
         "offset lengths must match the ambient dimension"),
        (lambda: reduce_criterion(np.ones(3), np.eye(3)), "A and A_sharp must be matrices"),
        (lambda: reduce_criterion(np.eye(2), np.eye(3)), "A and A_sharp must share their row count, got 2 vs 3"),
        (lambda: reduce_criterion(np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]), "criterion matrices must be finite"),
        (lambda: reduce_criterion(np.eye(2), np.eye(2), b_sharp=[0.0, np.nan]), "criterion offsets must be finite"),
        (lambda: reduce_criterion(1e-300 * np.eye(2), np.eye(2)),
         "criterion overflows float64: A_sharp's singular values are too large against A's"),
        (lambda: reduce_criterion(np.eye(3), np.eye(3)).apply(_instance(5, 4, 1.0, seed=1)[0]),
         "reduction expects ambient dimensions (3, 3), instance has (4, 4)"),
    ],
    ids=[
        "reduction-offset-length", "criterion-vector", "criterion-row-counts", "criterion-inf",
        "criterion-nan-offset", "criterion-overflow", "general-lsl-dimension",
    ],
)
def test_criterion_input_is_checked(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ------------------------------------------------------------- general LSL

def _general_lsl_reference(instance, A, A_sharp, b, b_sharp):
    """General LSL's costs from its model, pair by pair: log(r^T (I + B B^T)^{-1} r) with r = x̄ - B x̄#."""

    def thin(mat):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        return u[:, :rank], s[:rank], vt[:rank]

    (u1, s1, v1), (u2, s2, v2) = thin(A), thin(A_sharp)
    B = np.diag(1 / s1) @ u1.T @ u2 @ np.diag(s2)
    first_t = (instance.first.vectors - b) @ v1.T
    second_t = (instance.second.vectors - b_sharp) @ v2.T @ B.T
    r = first_t[None, :, :] - second_t[:, None, :]  # (second, first, k)
    sqdist = np.einsum("ijk,kl,ijl->ij", r, np.linalg.inv(np.eye(len(s1)) + B @ B.T), r)
    return np.log(np.maximum(sqdist, 1e-30))


def test_general_lsl_identity_reduction_matches_lsl():
    inst, _ = _instance(6, 4, 1.0, seed=12)
    red = reduce_criterion(np.eye(4), np.eye(4))
    general = cost_lsl(red.apply(inst))
    plain = cost_lsl(inst)
    # the residual's covariance is 2 sigma^2 I, so distances halve: log(x/2) = log x - log 2
    np.testing.assert_allclose(general.entries, plain.entries - math.log(2.0), rtol=1e-9, atol=1e-9)
    assert estimate(red.apply(inst), LSL) == estimate(inst, LSL)


@pytest.mark.parametrize("n, m, d", [(6, 6, 4), (5, 9, 7), (1, 3, 2), (40, 40, 40)])
def test_identity_reduction_halves_the_distances(n, m, d):
    # both maps are I / sqrt(2), so each squared distance is half the
    # instance's, to rounding, and every estimator agrees
    rng = np.random.default_rng(n * m + d)
    inst = _manual_instance(rng.normal(size=(m, d)), rng.normal(size=(n, d)))
    reduced = reduce_criterion(np.eye(d), np.eye(d)).apply(inst)
    np.testing.assert_allclose(reduced.sqdist, inst.sqdist / 2, rtol=1e-13)
    for kind in (GREEDY, LSS, LSL):
        assert estimate(reduced, kind) == estimate(inst, kind)


def test_reduction_keeps_the_truth_and_drops_the_noise_specs():
    inst, truth = _instance(5, 3, 1.0, seed=8)
    reduced = reduce_criterion(np.eye(3), 2 * np.eye(3)).apply(inst)
    assert reduced.truth is truth
    assert reduced.first_noise is None and reduced.second_noise is None


def _gain_criterion(d):
    """(A, A_sharp, b, b_sharp) of x = diag(g) x#, gains g geometric from 0.2 to 5."""
    return np.eye(d), np.diag(np.geomspace(0.2, 5.0, d)), np.zeros(d), np.zeros(d)


def _rank_deficient_criterion(d):
    """(A, A_sharp, b, b_sharp) of a rank-2 criterion with offsets."""
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, 2)) @ rng.normal(size=(2, d))  # rank 2
    A_sharp = A @ np.diag(np.geomspace(0.5, 2.0, d))
    return A, A_sharp, rng.normal(size=d), rng.normal(size=d)


@pytest.mark.parametrize("criterion", [_gain_criterion, _rank_deficient_criterion], ids=["gain", "rank-deficient"])
@pytest.mark.parametrize("n, m", [(7, 7), (5, 9)])
def test_general_lsl_on_a_non_orthonormal_b_is_its_reference(criterion, n, m):
    d = 6
    args = criterion(d)
    rng = np.random.default_rng(n + m)
    inst = _manual_instance(rng.normal(size=(m, d)) * 3.0, rng.normal(size=(n, d)) * 3.0)
    reference = _general_lsl_reference(inst, *args)
    reduced = reduce_criterion(*args).apply(inst)
    np.testing.assert_allclose(cost_lsl(reduced).entries, reference, rtol=1e-9, atol=1e-9)
    assert estimate(reduced, LSL) == solve_hungarian(CostMatrix(reference)).assignment


@pytest.mark.parametrize("criterion, d", [(_gain_criterion, 20), (_rank_deficient_criterion, 6)],
                         ids=["gain", "rank-deficient"])
def test_reduced_residual_of_a_matched_pair_is_white(criterion, d):
    # x = b + xi and x# = b# + xi# satisfy the criterion up to unit white
    # noise on both sides; after the reduction the residual's covariance is I
    # (the standard error of each empirical entry is about 0.01)
    pairs = 20_000
    A, A_sharp, b, b_sharp = criterion(d)
    rng = np.random.default_rng(1)
    inst = _manual_instance(b + rng.standard_normal((pairs, d)), b_sharp + rng.standard_normal((pairs, d)))
    reduced = reduce_criterion(A, A_sharp, b, b_sharp).apply(inst)
    residual = reduced.first.vectors - reduced.second.vectors
    cov = residual.T @ residual / pairs
    assert np.max(np.abs(cov - np.eye(cov.shape[0]))) <= 0.06


def test_general_lsl_orthogonal_b_halves_residual():
    d = 4
    rng = np.random.default_rng(44)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    red = reduce_criterion(np.eye(d), q)  # x = q x#
    inst, _ = _instance(5, d, 0.7, seed=13)
    entries = cost_lsl(red.apply(inst)).entries
    for i in range(5):
        for j in range(5):
            residual = inst.first.vectors[j] - q @ inst.second.vectors[i]
            expected = math.log(max(0.5 * float(residual @ residual), 1e-30))
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
    entries = cost_lsl(red.apply(inst)).entries
    # A matched pair's exact residual is 0; what is left is rounding, and its
    # bits depend on the BLAS core kernel.  The maps come from an SVD and an
    # eigh, both backward stable, so each is off its exact value by a modest
    # multiple of d*u in norm (u = 2^-53; the maps' norms are at most 1), and
    # applying a map rounds each entry by at most d*u*||x||.  So the residual
    # is at most c*d*u*max||x|| for a small c; c = 64 is generous, and its
    # square still lies at least 55 nats below every unmatched entry.
    u = np.finfo(float).eps / 2
    bound = 2 * math.log(64 * d * u * np.linalg.norm(np.vstack([base, second]), axis=1).max())
    matched = np.eye(4, dtype=bool)
    assert entries[matched].max() <= bound
    assert entries[~matched].min() >= bound + 55
    assert estimate(red.apply(inst), LSL) == Permutation.identity(4)


def test_general_lsl_beats_lsl_and_lss_under_per_feature_offsets():
    # Fixed before the first run: n = d = 50, tau = 3.5, sigma = 1, 40
    # trials, and every coordinate of second-set feature i shifted by one
    # offset o_i ~ N(0, 3^2), which the centering criterion removes exactly.
    n = d = 50
    centering = np.eye(d) - np.ones((d, d)) / d
    red = reduce_criterion(centering, centering)
    errors = {"general-lsl": 0.0, "lsl": 0.0, "lss": 0.0}
    for t in range(40):
        theta = uniform_box_features(n, d, 3.5, seed=8000 + t)
        truth = random_permutation(np.random.default_rng(9000 + t), n)
        inst = generate_instance(theta, NoiseSpec.homoscedastic(1.0), truth, seed=10000 + t)
        offsets = np.random.default_rng(11000 + t).normal(0.0, 3.0, size=(n, 1))
        shifted = MatchInstance(first=inst.first, second=FeatureSet(inst.second.vectors + offsets), truth=truth)
        errors["general-lsl"] += loss_hamming(estimate(red.apply(shifted), LSL), truth) / 40
        errors["lsl"] += loss_hamming(estimate(shifted, LSL), truth) / 40
        errors["lss"] += loss_hamming(estimate(shifted, LSS), truth) / 40
    assert errors["general-lsl"] < errors["lsl"] and errors["general-lsl"] < errors["lss"], errors


def test_general_lsl_overflow_is_named():
    inst = _manual_instance([[0.0], [1e200]], [[0.0], [-1e200]])
    reduced = reduce_criterion(np.eye(1), np.eye(1)).apply(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            estimate(reduced, LSL)


def test_estimator_kind_validation():
    with pytest.raises(ValueError):
        EstimatorKind("nearest")
    with pytest.raises(ValueError):
        EstimatorKind("general-lsl")  # a criterion reduction maps instances; it is no estimator
    with pytest.raises(ValueError):
        EstimatorKind.from_name("general-lsl")
    assert EstimatorKind.from_name(" LSS ").tag == "lss"
