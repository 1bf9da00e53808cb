import dataclasses
import hashlib

import numpy as np
import pytest

from permatch import (
    DEFAULT_SQDIST_FLOOR,
    AssignmentSolution,
    CostMatrix,
    NoiseSpec,
    Permutation,
    certify,
    cost_lsl,
    generate_instance,
    pairwise_sqdist,
    random_permutation,
    solve_bruteforce,
    solve_hungarian,
    solve_in_lockstep,
    uniform_box_features,
)
from permatch import assignment
from permatch.assignment import _LOCKSTEP_MIN, CertificateError


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        CostMatrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((3, 2)))  # more rows than columns
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((0, 2)))


def test_zero_diagonal_two_by_two():
    sol = solve_hungarian(CostMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert sol.assignment == Permutation([0, 1])
    assert sol.total_cost == 0.0


def test_forced_swap_two_by_two():
    sol = solve_hungarian(CostMatrix([[5.0, 1.0], [1.0, 5.0]]))
    assert sol.assignment == Permutation([1, 0])
    assert sol.total_cost == 2.0


def test_single_entry():
    sol = solve_bruteforce(CostMatrix([[1.0]]))
    assert sol.assignment == Permutation([0])
    assert sol.total_cost == 1.0


def test_bruteforce_matches_hungarian_on_2x2():
    for mat in ([[0.0, 1.0], [1.0, 0.0]], [[5.0, 1.0], [1.0, 5.0]], [[2.0, 2.0], [1.0, 3.0]]):
        cost = CostMatrix(mat)
        assert solve_bruteforce(cost).total_cost == solve_hungarian(cost).total_cost


def test_seeded_integer_matrices_match_bruteforce():
    rng = np.random.default_rng(99)
    for n in (6, 7):
        for _ in range(50):
            cost = CostMatrix(rng.integers(0, 100, size=(n, n)).astype(float))
            h = solve_hungarian(cost)
            b = solve_bruteforce(cost)
            assert h.total_cost == b.total_cost  # exact on integer inputs


def test_seeded_real_matrices_match_bruteforce():
    rng = np.random.default_rng(7)
    for n in range(2, 8):
        for _ in range(200):
            m = int(rng.integers(n, 9))
            cost = CostMatrix(rng.normal(size=(n, m)) * 10.0)
            h = solve_hungarian(cost)
            b = solve_bruteforce(cost)
            assert h.total_cost == pytest.approx(b.total_cost, rel=1e-9, abs=1e-9)
            assert h.assignment == b.assignment  # Gaussian costs: the optimum is unique almost surely
            assert certify(cost, h)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        solve_bruteforce(CostMatrix(np.zeros((10, 10))))


def test_shift_invariance():
    rng = np.random.default_rng(17)
    base = rng.integers(0, 50, size=(5, 5)).astype(float)
    sol = solve_hungarian(CostMatrix(base))
    shifted = base.copy()
    shifted[2] += 7.0
    sol2 = solve_hungarian(CostMatrix(shifted))
    assert sol2.total_cost == sol.total_cost + 7.0
    assert sol2.assignment == sol.assignment


def test_row_permutation_equivariance():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(6, 6))
    sol = solve_hungarian(CostMatrix(base))
    rho = np.array([3, 0, 5, 1, 4, 2])
    permuted = solve_hungarian(CostMatrix(base[rho]))
    # row i of the permuted matrix is row rho[i] of the original
    np.testing.assert_array_equal(permuted.assignment.map, sol.assignment.map[rho])


def test_rectangular_examples():
    sol = solve_hungarian(CostMatrix([[3.0, 1.0, 2.0]]))
    assert sol.assignment == Permutation([1], codomain=3)
    assert sol.total_cost == 1.0
    sol = solve_hungarian(CostMatrix([[0.0, 9.0, 9.0], [9.0, 9.0, 0.0]]))
    assert sol.assignment == Permutation([0, 2], codomain=3)
    assert sol.total_cost == 0.0
    # all ties: each row takes the lowest-index free column
    sol = solve_hungarian(CostMatrix(np.zeros((3, 5))))
    assert sol.assignment == Permutation([0, 1, 2], codomain=5)


def test_row_reduction_start_places_distinct_minima():
    # every row's minimum is in its own column, so no search runs and the
    # potentials are the row minima with v = 0
    rng = np.random.default_rng(3)
    target = np.array([4, 0, 5, 2, 1, 3])
    entries = rng.uniform(1.0, 2.0, size=(6, 6))
    entries[np.arange(6), target] = rng.uniform(-1.0, 0.0, size=6)
    cost = CostMatrix(entries)
    sol = solve_hungarian(cost)
    assert sol.assignment == Permutation(target)
    np.testing.assert_array_equal(sol.row_potentials, entries.min(axis=1))
    np.testing.assert_array_equal(sol.col_potentials, np.zeros(6))
    assert certify(cost, sol)


def test_row_reduction_start_with_one_shared_argmin():
    # every row's argmin is column 2: the start places row 0 only
    rng = np.random.default_rng(8)
    for _ in range(20):
        entries = rng.uniform(1.0, 2.0, size=(6, 6))
        entries[:, 2] = rng.uniform(-1.0, 0.0, size=6)
        cost = CostMatrix(entries)
        sol = solve_hungarian(cost)
        assert sol.assignment == solve_bruteforce(cost).assignment
        assert certify(cost, sol)


def test_row_reduction_start_leaves_columns_unmatched():
    # n < m: columns nobody reaches keep v = 0 exactly, and v <= 0 elsewhere
    rng = np.random.default_rng(12)
    for _ in range(50):
        entries = rng.normal(size=(4, 7))
        entries[1] = entries[0] + rng.uniform(0.0, 0.1, size=7)  # rows 0 and 1 share an argmin
        cost = CostMatrix(entries)
        sol = solve_hungarian(cost)
        assert sol.assignment == solve_bruteforce(cost).assignment
        assert certify(cost, sol)
        unmatched = np.setdiff1d(np.arange(7), sol.assignment.map)
        assert np.all(sol.col_potentials <= 0.0)
        np.testing.assert_array_equal(sol.col_potentials[unmatched], 0.0)


def test_rectangular_matches_exhaustive_injections():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cost = CostMatrix(rng.normal(size=(4, 6)))
        r = solve_hungarian(cost)
        b = solve_bruteforce(cost)  # scans all 360 injections
        assert r.total_cost == pytest.approx(b.total_cost, rel=1e-12, abs=1e-12)


def test_rectangular_consistency_with_blocked_square():
    rng = np.random.default_rng(41)
    large = 1e6
    for _ in range(25):
        block = rng.normal(size=(5, 5))
        padded = np.hstack([block, np.full((5, 3), large)])
        sol_rect = solve_hungarian(CostMatrix(padded))
        sol_square = solve_hungarian(CostMatrix(block))
        assert sol_rect.total_cost == pytest.approx(sol_square.total_cost, rel=1e-12)
        assert sol_rect.assignment.map.tolist() == sol_square.assignment.map.tolist()


def test_certificate_accepts_optimum():
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (6, 6), (5, 9), (40, 40), (30, 70), (200, 200), (300, 400)):
        for scale in (1.0, 1e3, 1e12):  # the tolerance scales with the costs
            cost = CostMatrix(rng.normal(size=shape) * scale)
            sol = solve_hungarian(cost)
            assert sol.row_potentials.shape == (shape[0],) and sol.col_potentials.shape == (shape[1],)
            assert certify(cost, sol), (shape, scale)
    # log costs spanning the default LSL floor, as the LSL estimator builds
    # them; 800 x 1000 is the shape of the benchmark's match workload
    for shape in ((20, 25), (800, 1000)):
        sq = rng.random(shape)
        sq[3, 4] = 0.0
        cost = CostMatrix(np.log(np.maximum(sq, 1e-30)))
        assert certify(cost, solve_hungarian(cost)), shape


def test_certificate_rejects_swapped_rows():
    rng = np.random.default_rng(11)
    for shape in ((2, 2), (6, 6), (4, 7)):
        for _ in range(100):
            cost = CostMatrix(rng.normal(size=shape))
            sol = solve_hungarian(cost)
            swapped = sol.assignment.map.copy()
            swapped[[0, 1]] = swapped[[1, 0]]
            bad = dataclasses.replace(sol, assignment=Permutation(swapped, codomain=shape[1]))
            assert not certify(cost, bad)
            # potentials made tight on the swapped pairs: only dual feasibility fails
            tight = dataclasses.replace(
                bad, row_potentials=cost.entries[np.arange(shape[0]), swapped], col_potentials=np.zeros(shape[1])
            )
            assert not certify(cost, tight)
    cost = CostMatrix([[5.0, 1.0], [1.0, 5.0]])
    bad = dataclasses.replace(solve_hungarian(cost), assignment=Permutation([0, 1]))
    assert not certify(cost, bad)


def test_certificate_needs_nonpositive_column_potentials():
    # Feasible and slack-tight, but column 0's potential is positive: [0] costs
    # 1 while [1] costs 0.  Only the v_j <= 0 clause catches it.
    cost = CostMatrix([[1.0, 0.0]])
    bad = AssignmentSolution(
        assignment=Permutation([0], codomain=2),
        total_cost=1.0,
        row_potentials=np.array([0.0]),
        col_potentials=np.array([1.0, 0.0]),
    )
    assert not certify(cost, bad)
    good = solve_hungarian(cost)
    assert good.assignment == Permutation([1], codomain=2)
    assert certify(cost, good)


def test_certificate_rejects_perturbed_potentials():
    rng = np.random.default_rng(19)
    cost = CostMatrix(rng.normal(size=(6, 8)) * 100.0)
    sol = solve_hungarian(cost)
    tol = 1e-9 * np.abs(cost.entries).max()
    for which in ("row_potentials", "col_potentials"):
        for index in (0, -1):
            for sign in (1.0, -1.0):
                potentials = getattr(sol, which).copy()
                potentials[index] += sign * 10.0 * tol
                perturbed = dataclasses.replace(sol, **{which: potentials})
                assert not certify(cost, perturbed), (which, index, sign)
    nan_rows = dataclasses.replace(sol, row_potentials=np.full(6, np.nan))
    assert not certify(cost, nan_rows)


def test_certificate_errors():
    cost = CostMatrix([[2.0, 1.0], [1.0, 2.0]])
    sol = solve_hungarian(cost)
    with pytest.raises(ValueError):
        certify(cost, solve_bruteforce(cost))  # the oracle carries no potentials
    with pytest.raises(ValueError):
        certify(cost, dataclasses.replace(sol, row_potentials=None))
    with pytest.raises(ValueError):
        certify(cost, dataclasses.replace(sol, col_potentials=np.zeros(3)))
    with pytest.raises(ValueError):
        certify(CostMatrix(np.zeros((2, 3))), sol)


def test_potentials_do_not_affect_equality():
    cost = CostMatrix([[5.0, 1.0], [1.0, 5.0]])
    sol = solve_hungarian(cost)
    bare = AssignmentSolution(assignment=sol.assignment, total_cost=sol.total_cost)
    assert sol == bare
    assert sol == solve_bruteforce(cost)


def test_total_cost_equals_selected_sum():
    rng = np.random.default_rng(13)
    cost = CostMatrix(rng.normal(size=(7, 7)))
    sol = solve_hungarian(cost)
    manual = sum(cost.entries[i, j] for i, j in enumerate(sol.assignment.map))
    assert sol.total_cost == pytest.approx(manual, rel=1e-12)


def _pinned_costs():
    theta = uniform_box_features(50, 50, 1.4, seed=5)
    truth = random_permutation(np.random.default_rng(6), 50)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1.0), truth, 7)
    # cost_lsl's transform of a per-row square-and-sum: the distance kernel's
    # bits vary with the BLAS core kernel, and this pin is the solver's
    sq = np.stack([np.square(inst.first.vectors - row).sum(axis=1) for row in inst.second.vectors])
    yield "lsl-50x50", CostMatrix(np.log(np.maximum(sq, DEFAULT_SQDIST_FLOOR)))
    yield "gaussian-12x20", CostMatrix(np.random.default_rng(12).standard_normal((12, 20)))
    # entries 0-3: several tree rows reach a path column at the same length,
    # and the earliest of them keeps it as predecessor
    yield "ties-8x8", CostMatrix(np.random.default_rng(0).integers(0, 4, size=(8, 8)).astype(float))


_SOLVER_PINS = {
    "lsl-50x50": (
        [21, 45, 29, 27, 37, 1, 0, 6, 44, 38, 32, 42, 33, 12, 9, 18, 24, 46, 10, 15, 17, 28, 26, 23, 39,
         30, 35, 36, 11, 40, 19, 31, 8, 48, 41, 4, 16, 5, 47, 43, 22, 49, 14, 2, 34, 25, 13, 7, 20, 3],
        "8ca1af656996f42e1302a87ca9c8c2437306cc6c6f996f204447c2e015401449",
    ),
    "gaussian-12x20": (
        [12, 13, 7, 9, 5, 0, 10, 4, 17, 1, 3, 19],
        "528e186a8f50b34191b57f4e8d1ce5642dbaa750946e903719c27a90ed40345a",
    ),
    "ties-8x8": (
        [5, 0, 7, 3, 2, 1, 4, 6],
        "3a6098f2992ed9139831c820283ff81d4f98af362b42f7e3bdee92816fdfdbb7",
    ),
}


def _exact_lsl(inst) -> CostMatrix:
    """LSL's cost on the exact kernel's distances, with no bound."""
    distances = pairwise_sqdist(inst.second.vectors, inst.first.vectors)
    return CostMatrix(np.log(np.maximum(distances, DEFAULT_SQDIST_FLOOR)))


def test_pinned_lsl_instance_solves_to_its_pin_on_bounded_gemm_costs():
    # The lsl-50x50 pin's instance through cost_lsl: GEMM entries within
    # their row bounds of the kernel's, and a certified solve that finds
    # the pinned assignment, with potentials tight on the exact entries.
    theta = uniform_box_features(50, 50, 1.4, seed=5)
    truth = random_permutation(np.random.default_rng(6), 50)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1.0), truth, 7)
    cost = cost_lsl(inst)
    exact = _exact_lsl(inst)
    assert cost.bound is not None
    assert np.all(np.abs(cost.entries - exact.entries) <= cost.bound)
    sol = solve_hungarian(cost)
    assert sol.assignment.map.tolist() == _SOLVER_PINS["lsl-50x50"][0]
    assert certify(exact, sol)
    assert sol.total_cost == solve_hungarian(exact).total_cost


@pytest.mark.parametrize("name", list(_SOLVER_PINS))
def test_solver_output_is_pinned_bit_for_bit(name):
    # The assignment and the float.hex of every dual potential; a solver
    # rewrite that changes any last bit fails here.
    sol = solve_hungarian(dict(_pinned_costs())[name])
    potentials = ";".join(",".join(map(float.hex, p)) for p in (sol.row_potentials, sol.col_potentials))
    assignment, digest = _SOLVER_PINS[name]
    assert sol.assignment.map.tolist() == assignment
    assert hashlib.sha256(potentials.encode()).hexdigest() == digest


# ------------------------------------------------------------------ lockstep

def _bits(solution):
    """The assignment and the float.hex of both potentials."""
    return (
        solution.assignment.map.tolist(),
        [float.hex(x) for x in solution.row_potentials],
        [float.hex(x) for x in solution.col_potentials],
    )


def _homo_n50_costs():
    """The 40 LSS and LSL costs of a desk-size homoscedastic config: tau 1.4 to 3.5, 4 trials each."""
    from permatch import ExperimentConfig, cost_lss, harness

    config = ExperimentConfig(
        scenario="uniform-homoscedastic", n=50, d=50, sigma=1.0, sweep=(1.4, 1.9, 2.4, 2.9, 3.5), trials=4, seed=1202
    )
    for index, value in enumerate(config.sweep):
        for trial in range(config.trials):
            instance = harness._build_trial(config, value, harness._trial_streams(config.seed, index, trial))
            yield cost_lss(instance).entries
            yield cost_lsl(instance).entries


def _lockstep_stacks():
    rng = np.random.default_rng(21)
    yield "homo-n50", list(_homo_n50_costs())
    yield "rectangular-12x20", [rng.standard_normal((12, 20)) for _ in range(20)]
    # every row's cheapest column is its own, so the start places every row
    yield "no-search", [np.eye(9)[rng.permutation(9)] * -1.0 + rng.random((9, 9)) * 0.5 for _ in range(16)]
    yield "ties-8x8", [rng.integers(0, 4, size=(8, 8)).astype(float) for _ in range(30)]
    # one matrix 16 times, every row's cheapest column the same, so 9 rows
    # search: every lane steps in unison and all retire in the same round
    shared = rng.random((10, 10))
    shared[:, 3] -= 1.0
    yield "unison-10x10", [shared] * 16


@pytest.mark.parametrize("name", [name for name, _ in _lockstep_stacks()])
def test_lockstep_solutions_equal_solve_hungarian_bit_for_bit(name):
    stack = dict(_lockstep_stacks())[name]
    assert len(stack) >= _LOCKSTEP_MIN
    costs = [CostMatrix(entries) for entries in stack]
    solve_in_lockstep(costs)
    for entries, cost in zip(stack, costs):
        kept = cost._solution
        assert kept is not None and solve_hungarian(cost) is kept
        assert _bits(kept) == _bits(solve_hungarian(CostMatrix(entries)))
        assert certify(cost, kept)
    if name == "no-search":
        assert all(entries.argmin(axis=1).tolist() == cost._solution.assignment.map.tolist()
                   for entries, cost in zip(stack, costs))
    if name == "unison-10x10":
        assert (stack[0].argmin(axis=1) == 3).all()


def test_lockstep_leaves_a_shallow_batch_to_solve_hungarian():
    rng = np.random.default_rng(22)
    deep = [CostMatrix(rng.standard_normal((6, 9))) for _ in range(_LOCKSTEP_MIN)]
    shallow = [CostMatrix(rng.standard_normal((7, 7))) for _ in range(_LOCKSTEP_MIN - 1)]
    solve_in_lockstep(deep)
    solve_in_lockstep(shallow)
    for cost in deep:
        kept = cost._solution
        assert kept is not None and certify(cost, kept)
        assert _bits(kept) == _bits(solve_hungarian(CostMatrix(cost.entries)))
    assert all(cost._solution is None for cost in shallow)
    for cost in shallow:
        solution = solve_hungarian(cost)  # solved on demand, then kept
        assert cost._solution is solution and certify(cost, solution)
        assert _bits(solution) == _bits(solve_hungarian(CostMatrix(cost.entries)))


def test_kept_solution_is_read_only():
    cost = CostMatrix(np.random.default_rng(23).standard_normal((5, 6)))
    solution = solve_hungarian(cost)
    assert solve_hungarian(cost) is solution
    for array in (solution.row_potentials, solution.col_potentials, solution.assignment.map):
        with pytest.raises(ValueError):
            array[0] = 0


# --------------------------------------------------------------- certificate

def _identity_start(stack):
    """A broken row reduction: row i takes column i, tight, whatever the costs."""
    count, n, m = stack.shape
    row_of = np.full((count, m), -1)
    row_of[:, :n] = np.arange(n)
    u = stack[:, np.arange(n), np.arange(n)].copy()
    return u, np.zeros((count, m)), np.tile(np.arange(n), (count, 1)), row_of


def test_failed_certificate_raises_certificate_error(monkeypatch):
    # A solver that returns a wrong assignment is a bug, not bad input:
    # CertificateError, not the ValueError of a validation failure, for an
    # exact cost and for a bounded one, whose exact fallback fails too.
    monkeypatch.setattr(assignment, "_start", _identity_start)
    assert not issubclass(CertificateError, ValueError)
    with pytest.raises(CertificateError):
        solve_hungarian(CostMatrix([[5.0, 1.0], [1.0, 5.0]]))
    with pytest.raises(CertificateError):
        solve_in_lockstep([CostMatrix([[5.0, 1.0], [1.0, 5.0]]) for _ in range(_LOCKSTEP_MIN)])
    inst = generate_instance(
        uniform_box_features(8, 4, 3.0, seed=1), NoiseSpec.homoscedastic(0.1),
        Permutation([1, 0, 3, 2, 5, 4, 7, 6]), seed=2,
    )
    bounded = cost_lsl(inst)
    assert bounded.bound is not None
    with pytest.raises(CertificateError):
        solve_hungarian(bounded)


def test_failed_bounded_certificate_solves_the_exact_matrix(monkeypatch):
    # A bounded cost whose certificate fails keeps the exact matrix's
    # solution: the same assignment, and that solve's potentials.
    inst = generate_instance(
        uniform_box_features(30, 10, 2.0, seed=3), NoiseSpec.homoscedastic(1.0),
        random_permutation(np.random.default_rng(4), 30), seed=5,
    )
    exact = solve_hungarian(_exact_lsl(inst))
    monkeypatch.setattr(assignment, "_certified", lambda cost, u, v, col_of: None)
    fallback = solve_hungarian(cost_lsl(inst))
    assert _bits(fallback) == _bits(exact) and fallback.total_cost == exact.total_cost


def test_bounded_cost_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((2, 3)), bound=np.zeros((2, 1)))  # a bound needs its exact entries
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((2, 3)), bound=np.zeros((3, 1)), exact=lambda *pairs: np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((2, 3)), bound=-np.ones((2, 1)), exact=lambda *pairs: np.zeros((2, 3)))
