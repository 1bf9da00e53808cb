import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from permatch import (
    FeatureSet,
    HypothesisRangeWarning,
    MatchInstance,
    NoiseSpec,
    Permutation,
    adversarial_pair_features,
    generate_instance,
    greedy_adversarial_instance,
    least_favorable_features,
    load_instance_csv,
    pairwise_sqdist,
    random_permutation,
    read_features_csv,
    scaled_identity_features,
    separation,
    standard_gaussian,
    uniform_box_features,
    write_features_csv,
)
from permatch import model


# ---------------------------------------------------------------- permutations

def test_permutation_identity_and_inverse():
    p = Permutation([2, 0, 1])
    assert p.inverse() == Permutation([1, 2, 0])
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert p.inverse().compose(p) == Permutation.identity(3)


def test_permutation_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3], codomain=3)
    with pytest.raises(ValueError):
        Permutation([0, 1, 2], codomain=2)


@pytest.mark.parametrize(
    "images, message",
    [
        ([[0, 1]], "permutation map must be a non-empty 1-D index vector"),
        ([0, 5, 1], "images must lie in [0, 5)"),
        ([0, -1, 1], "images must lie in [0, 5)"),
        ([4, 9, 4], "images must lie in [0, 5)"),  # the range is checked before distinctness
        ([1, 3, 1], "images must be distinct"),
        ([4, 0, 4], "images must be distinct"),  # a repeat of the largest image
    ],
)
def test_injection_errors_are_named_in_order(images, message):
    with pytest.raises(ValueError) as info:
        Permutation(images, codomain=5)
    assert str(info.value) == message


def test_permutation_equality_hash_repr_and_compose_error():
    p = Permutation([2, 0, 1])
    assert p.__eq__([2, 0, 1]) is NotImplemented
    assert p != [2, 0, 1]
    assert Permutation([2, 0], codomain=3) != Permutation([2, 0], codomain=4)
    assert hash(p) == hash(Permutation(np.array([2, 0, 1])))
    assert len({p, Permutation([2, 0, 1]), Permutation.identity(3)}) == 2
    assert repr(Permutation([4, 0], codomain=5)) == "Permutation([4, 0], codomain=5)"
    message = "composition requires a square outer permutation of matching size"
    with pytest.raises(ValueError, match=message):
        p.compose(Permutation.identity(4))
    with pytest.raises(ValueError, match=message):
        Permutation([4, 0], codomain=5).compose(Permutation.identity(2))


def test_injection_is_valid_but_not_invertible():
    p = Permutation([4, 0], codomain=5)
    assert not p.is_square
    with pytest.raises(ValueError):
        p.inverse()


def test_fisher_yates_uniformity_smoke():
    rng = np.random.default_rng(3)
    counts = {}
    for _ in range(6000):
        key = tuple(random_permutation(rng, 3).map.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert min(counts.values()) > 6000 / 6 * 0.8


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_permutation_consumes_the_stream_of_one_draw_per_swap(n, seed):
    # reference: Fisher-Yates with one rng.integers(0, i + 1) call per swap
    ref_rng = np.random.default_rng(seed)
    expected = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(ref_rng.integers(0, i + 1))
        expected[i], expected[j] = expected[j], expected[i]
    rng = np.random.default_rng(seed)
    assert random_permutation(rng, n).map.tolist() == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # includes the 32-bit half buffer


# ----------------------------------------------------------------- noise specs

def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec.homoscedastic(0.0)
    with pytest.raises(ValueError):
        NoiseSpec.homoscedastic(-1.0)
    with pytest.raises(ValueError):
        NoiseSpec.heteroscedastic([1.0, 0.0])
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, levels=np.ones(3))
    for levels in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="levels must be a non-empty 1-D vector"):
            NoiseSpec.heteroscedastic(levels)
    assert NoiseSpec.homoscedastic(2.0).levels_for(4).tolist() == [2.0] * 4


def test_heteroscedastic_levels_travel_with_features():
    levels = np.array([0.5, 1.0, 2.0, 4.0])
    truth = Permutation([2, 0, 3, 1])
    second = NoiseSpec.heteroscedastic(levels).permuted(truth)
    assert second.levels.tolist() == [2.0, 0.5, 4.0, 1.0]


# ------------------------------------------------------------------ generation

def test_generate_instance_vanishing_noise():
    theta = uniform_box_features(8, 3, 5.0, seed=11)
    truth = random_permutation(np.random.default_rng(2), 8)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1e-12), truth, seed=4)
    np.testing.assert_allclose(
        inst.second.vectors, theta.vectors[truth.map], atol=1e-9
    )
    np.testing.assert_allclose(inst.first.vectors, theta.vectors, atol=1e-9)


def test_generate_instance_deterministic():
    theta = uniform_box_features(5, 2, 1.0, seed=0)
    truth = Permutation([3, 1, 4, 0, 2])
    noise = NoiseSpec.heteroscedastic([0.1, 0.2, 0.3, 0.4, 0.5])
    a = generate_instance(theta, noise, truth, seed=123)
    b = generate_instance(theta, noise, truth, seed=123)
    assert a.first.vectors.tobytes() == b.first.vectors.tobytes()
    assert a.second.vectors.tobytes() == b.second.vectors.tobytes()
    c = generate_instance(theta, noise, truth, seed=124)
    assert a.first.vectors.tobytes() != c.first.vectors.tobytes()


def test_generate_instance_gaussian_moments():
    # law-of-large-numbers check on the generator itself
    n = 1000
    theta = FeatureSet(np.zeros((n, 1)))
    truth = Permutation.identity(n)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1.0), truth, seed=77)
    sample = inst.first.vectors[:, 0]
    assert abs(sample.mean()) <= 4 / math.sqrt(n)
    assert abs(sample.var() - 1.0) <= 0.2


def _gaussian_per_step(rng, shape):
    """standard_gaussian's spec: Box-Muller with a new array per step."""
    size = int(np.prod(shape))
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:size].reshape(shape)


@pytest.mark.parametrize("shape", [(1,), (2,), (7, 3), (4, 4), (5, 1, 3), (100, 2000)])
def test_standard_gaussian_is_byte_equal_to_the_per_step_formula(shape):
    for seed in (0, 9):
        got = standard_gaussian(np.random.default_rng(seed), shape)
        want = _gaussian_per_step(np.random.default_rng(seed), shape)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(100, 2000), (2001,)])
def test_standard_gaussian_allocates_only_its_output_and_two_half_buffers(shape):
    half = (int(np.prod(shape)) + 1) // 2
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        standard_gaussian(rng, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an output of 2 * half floats, r and the angle; the 4 KiB covers
    # Python objects, not a temporary of a half
    assert peak <= (2 * half + 2 * half) * 8 + 4096


def test_generate_instance_is_byte_equal_to_templates_plus_scaled_noise():
    theta = uniform_box_features(9, 40, 1.4, seed=5)
    truth = Permutation([4, 0, 8, 2, 6, 1], codomain=9)
    noise = NoiseSpec.heteroscedastic(np.linspace(0.3, 2.1, 9))
    inst = generate_instance(theta, noise, truth, seed=8)
    rng = np.random.default_rng(8)
    xi, xi_sharp = standard_gaussian(rng, (9, 40)), standard_gaussian(rng, (6, 40))
    levels = noise.levels_for(9)
    first = theta.vectors + levels[:, None] * xi
    second = theta.vectors[truth.map] + levels[truth.map][:, None] * xi_sharp
    assert inst.first.vectors.tobytes() == first.tobytes()
    assert inst.second.vectors.tobytes() == second.tobytes()


def test_generate_instance_enforces_level_pairing():
    theta = uniform_box_features(4, 2, 1.0, seed=3)
    levels = np.array([0.5, 1.0, 2.0, 4.0])
    truth = Permutation([1, 3, 0, 2])
    inst = generate_instance(theta, NoiseSpec.heteroscedastic(levels), truth, seed=6)
    assert inst.second_noise.levels.tolist() == levels[truth.map].tolist()


def test_generate_instance_errors():
    theta = uniform_box_features(3, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_instance(theta, NoiseSpec.heteroscedastic([1.0, 1.0]), Permutation.identity(3), 0)
    with pytest.raises(ValueError):
        generate_instance(theta, NoiseSpec.homoscedastic(1.0), Permutation.identity(4), 0)
    with pytest.raises(ValueError):
        generate_instance(theta, NoiseSpec.homoscedastic(1.0), Permutation.identity(3), -1)


def test_rectangular_instance_via_injection_truth():
    theta = uniform_box_features(5, 2, 1.0, seed=8)
    truth = Permutation([4, 1], codomain=5)
    inst = generate_instance(theta, NoiseSpec.homoscedastic(1e-12), truth, seed=1)
    assert inst.second.n == 2 and inst.first.n == 5
    np.testing.assert_allclose(inst.second.vectors, theta.vectors[[4, 1]], atol=1e-9)


# ------------------------------------------------------------------- templates

def test_uniform_box_bounds_and_mean():
    fs = uniform_box_features(200, 200, 1.4, seed=5)
    assert fs.vectors.min() >= 0.0 and fs.vectors.max() <= 1.4
    assert uniform_box_features(3, 2, 0.0, seed=1).vectors.tolist() == [[0, 0], [0, 0], [0, 0]]
    big = uniform_box_features(10_000, 1, 2.0, seed=9)
    assert abs(big.vectors.mean() - 1.0) <= 0.05


def test_uniform_box_deterministic():
    a = uniform_box_features(4, 4, 2.0, seed=10)
    b = uniform_box_features(4, 4, 2.0, seed=10)
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_scaled_identity_geometry():
    fs = scaled_identity_features(3, 4.0)
    np.testing.assert_array_equal(fs.vectors, 4.0 * np.eye(3))
    rep = separation(scaled_identity_features(5, 7.0), NoiseSpec.homoscedastic(1.0))
    assert rep.kappa == pytest.approx(7.0 * math.sqrt(2.0), rel=1e-12)
    zero = scaled_identity_features(4, 0.0)
    assert separation(zero, NoiseSpec.homoscedastic(1.0)).kappa == 0.0


# ------------------------------------------------------- least favorable set

def _pairwise_ratios(theta, levels):
    n = theta.n
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.linalg.norm(theta.vectors[i] - theta.vectors[j]))
            out[(i, j)] = dist / math.hypot(levels[i], levels[j])
    return out


def test_least_favorable_two_features():
    theta = least_favorable_features([1.0, 1.0], 3.0, d=4)
    assert theta.vectors[0].tolist() == [0, 0, 0, 0]
    assert theta.vectors[1, 0] == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
    assert np.all(theta.vectors[1, 1:] == 0)


def test_least_favorable_equal_levels_paired_ratios():
    theta = least_favorable_features([1.0] * 4, 2.0)
    ratios = _pairwise_ratios(theta, [1.0] * 4)
    assert ratios[(0, 1)] == pytest.approx(2.0, rel=1e-12)
    assert ratios[(2, 3)] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "levels,kappa",
    [
        ([1.0, 1.0], 3.0),
        ([1.0] * 6, 0.7),
        ([0.5, 0.7, 1.1, 2.0, 3.0], 1.7),
        ([1.0] * 7, 2.5),  # odd count: the last feature sits alone
        ([2.0, 3.0, 5.0], 0.01),
    ],
)
def test_least_favorable_pairwise_verification(levels, kappa):
    # brute-force oracle over every pair: exactly the paired ratios hit kappa,
    # everything else strictly exceeds kappa * (1 + max/min)
    theta = least_favorable_features(levels, kappa, d=3)
    levels = np.asarray(levels, dtype=float)
    n = levels.size
    target = kappa * (1.0 + levels.max() / levels.min())
    paired = {(2 * k, 2 * k + 1) for k in range(n // 2)}
    ratios = _pairwise_ratios(theta, levels)
    for pair, ratio in ratios.items():
        if pair in paired:
            assert ratio == pytest.approx(kappa, rel=1e-9)
        else:
            assert ratio > target
    rep = separation(theta, NoiseSpec.heteroscedastic(levels))
    assert rep.kappa_bar == pytest.approx(kappa, rel=1e-9)


def test_least_favorable_rejects_unsorted_levels():
    with pytest.raises(ValueError):
        least_favorable_features([2.0, 1.0], 1.0)


def test_least_favorable_pure():
    a = least_favorable_features([1.0, 2.0, 3.0], 1.5, d=2)
    b = least_favorable_features([1.0, 2.0, 3.0], 1.5, d=2)
    assert a.vectors.tobytes() == b.vectors.tobytes()


# ------------------------------------------------- greedy-adversarial instance

def test_adversarial_instance_relative_separation():
    theta = adversarial_pair_features(404, 2.5)
    noise = NoiseSpec.heteroscedastic([math.sqrt(3.0), 1.0])
    rep = separation(theta, noise)
    assert rep.kappa == pytest.approx(5.0, rel=1e-12)
    assert rep.kappa_bar == pytest.approx(2.5, rel=1e-12)


def test_adversarial_pair_needs_a_dimension():
    with pytest.raises(ValueError, match="d must be at least 1, got 0"):
        adversarial_pair_features(0, 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: uniform_box_features(3, 2, -1.0, seed=0), "tau must be finite and nonnegative, got -1.0"),
        (lambda: uniform_box_features(3, 2, math.inf, seed=0), "tau must be finite and nonnegative, got inf"),
        (lambda: uniform_box_features(3, 2, 1.0, seed=-1), "seed must be a nonnegative integer"),
        (lambda: scaled_identity_features(3, -0.5), "tau must be finite and nonnegative, got -0.5"),
        (lambda: scaled_identity_features(3, math.nan), "tau must be finite and nonnegative, got nan"),
        (lambda: least_favorable_features([1.0], 1.0), "need at least two noise levels"),
        (lambda: least_favorable_features([[1.0, 2.0]], 1.0), "need at least two noise levels"),
        (lambda: least_favorable_features([0.0, 1.0], 1.0), "every noise level must be positive and finite"),
        (lambda: least_favorable_features([1.0, math.inf], 1.0), "every noise level must be positive and finite"),
        (lambda: least_favorable_features([1.0, 1.0], 0.0), "kappa must be positive and finite, got 0.0"),
        (lambda: least_favorable_features([1.0, 1.0], math.nan), "kappa must be positive and finite, got nan"),
        (lambda: least_favorable_features([1.0, 1.0], 1.0, d=0), "d must be at least 1"),
        (lambda: adversarial_pair_features(3, -2.0), "kappa must be positive and finite, got -2.0"),
        (lambda: adversarial_pair_features(3, math.inf), "kappa must be positive and finite, got inf"),
    ],
    ids=[
        "box-negative-tau", "box-inf-tau", "box-negative-seed", "identity-negative-tau", "identity-nan-tau",
        "least-favorable-one-level", "least-favorable-matrix", "least-favorable-zero-level",
        "least-favorable-inf-level", "least-favorable-zero-kappa", "least-favorable-nan-kappa",
        "least-favorable-d-zero", "adversarial-negative-kappa", "adversarial-inf-kappa",
    ],
)
def test_template_builders_check_their_arguments(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_adversarial_instance_valid_inside_range():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = greedy_adversarial_instance(404, 2.5, seed=0)
    assert inst.truth == Permutation.identity(2)
    assert inst.first_noise.levels[0] == pytest.approx(math.sqrt(3.0))


def test_adversarial_instance_warns_outside_range():
    with pytest.warns(HypothesisRangeWarning):
        greedy_adversarial_instance(404, 3.0, seed=0)  # 3.0 > 0.1*sqrt(808) ~ 2.842
    with pytest.warns(HypothesisRangeWarning):
        greedy_adversarial_instance(100, 0.5, seed=0)  # dimension too small


def test_adversarial_instance_deterministic():
    a = greedy_adversarial_instance(404, 2.5, seed=42)
    b = greedy_adversarial_instance(404, 2.5, seed=42)
    assert a.first.vectors.tobytes() == b.first.vectors.tobytes()
    assert a.second.vectors.tobytes() == b.second.vectors.tobytes()


# ------------------------------------------------------------------- instances

def test_match_instance_validation():
    small = FeatureSet(np.zeros((2, 3)))
    big = FeatureSet(np.zeros((4, 3)))
    other_d = FeatureSet(np.zeros((2, 2)))
    MatchInstance(first=big, second=small)  # rectangular ok
    with pytest.raises(ValueError):
        MatchInstance(first=small, second=big)
    with pytest.raises(ValueError):
        MatchInstance(first=small, second=other_d)
    with pytest.raises(ValueError):
        MatchInstance(first=big, second=small, truth=Permutation.identity(2))


def test_match_instance_sqdist_is_read_only_and_cached():
    inst = MatchInstance(
        first=FeatureSet([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]),
        second=FeatureSet([[0.0, 0.0], [1.0, 0.0]]),
    )
    sq = inst.sqdist
    np.testing.assert_array_equal(sq, [[0.0, 25.0, 2.0], [1.0, 20.0, 1.0]])
    assert inst.sqdist is sq
    assert not sq.flags.writeable
    with pytest.raises(ValueError):
        sq[0, 0] = 1.0


def _sqdist_per_row(second, first):
    """pairwise_sqdist's spec: each entry one np.vecdot of its difference with
    itself, or above _DOT_SEGMENT elements the dots of its segments added in
    index order."""
    out = np.empty((second.shape[0], first.shape[0]))
    seg = model._DOT_SEGMENT
    with np.errstate(over="ignore"):
        for i, row in enumerate(second):
            diff = first - row
            out[i] = np.vecdot(diff[:, :seg], diff[:, :seg])
            for k in range(seg, diff.shape[1], seg):
                out[i] += np.vecdot(diff[:, k : k + seg], diff[:, k : k + seg])
    return out


@pytest.mark.parametrize(
    "n, m, d",
    [
        (50, 50, 50),  # the whole first set in one block
        (50, 47, 50),  # the same with a 47-row first set
        (200, 200, 200),  # blocks of 163 first-set rows, a ragged last block of 37
        (100, 100, 2000),  # blocks of 16 rows, a ragged last block of 4
        (800, 1000, 128),  # blocks of 256 rows, a ragged last block of 232
        (40, 33, 1),  # the whole first set in one block; one-element dots
        (300, 5000, 7),  # blocks of 4681 rows, a ragged last block of 319
        (50, 300, 8),  # the whole first set in one block
        (70, 3700, 9),  # blocks of 3640 rows, a ragged last block of 60
        (30, 600, 129),  # blocks of 254 rows, a ragged last block of 92
        (1, 250, 300),  # one second-set row; blocks of 109 rows, a ragged last block of 32
        (1, 10, 8),  # one second-set row, one block
        (7, 45, 2000),  # blocks of 16 rows, a ragged last block of 13
        (9, 1001, 128),  # blocks of 256 rows, a ragged last block of 233
        (7, 5, 9000),  # blocks of 3 rows, a ragged last block of 2; two dot segments
        (5, 3, 20001),  # one row per block (d > _SQDIST_BLOCK); three dot segments
    ],
)
def test_pairwise_sqdist_is_hex_equal_to_a_per_row_loop(n, m, d):
    rng = np.random.default_rng(n * m + d)
    second, first = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    got = pairwise_sqdist(second, first)
    assert got.tobytes() == _sqdist_per_row(second, first).tobytes()
    # the certificates' and fallbacks' exact entries are the kernel's bits
    rows, cols = np.divmod(np.arange(n * m), m)
    assert model.sqdist_entries(second, first, rows, cols).tobytes() == got.reshape(-1).tobytes()


def test_pairwise_sqdist_is_hex_equal_on_ties_and_names_an_overflow():
    # integer-valued features: many equal distances, all exact
    rng = np.random.default_rng(11)
    first = rng.integers(-2, 3, size=(61, 30)).astype(float)
    second = first[rng.permutation(61)[:45]]
    got = pairwise_sqdist(second, first)
    assert got.tobytes() == _sqdist_per_row(second, first).tobytes()
    assert np.unique(got).size < got.size // 10
    # (1e200 - -1e200)^2 overflows float64: a ValueError, and no RuntimeWarning escapes
    huge = np.full((14, 3), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            pairwise_sqdist(huge, -huge)


def test_pairwise_sqdist_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10**4 elements across its threads;
    # d = 20001 is three segments, the last of one element
    code = (
        "import numpy as np; from permatch import pairwise_sqdist; "
        "rng = np.random.default_rng(3); "
        "second, first = rng.normal(size=(6, 20001)), rng.normal(size=(7, 20001)); "
        "print(pairwise_sqdist(second, first).tobytes().hex())"
    )
    src = str(pathlib.Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    rng = np.random.default_rng(3)
    second, first = rng.normal(size=(6, 20001)), rng.normal(size=(7, 20001))
    assert pairwise_sqdist(second, first).tobytes().hex() == child.stdout.strip()


@pytest.mark.parametrize(
    "n, m, d",
    [(800, 1000, 128), (100, 100, 2000), (200, 200, 200), (50, 50, 50), (7, 5, 9000), (5, 3, 20001)],
)
def test_pairwise_sqdist_allocates_only_its_output_and_buffers(n, m, d):
    rng = np.random.default_rng(d)
    second, first = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    # the kernel's tile and difference buffer; the 4 KiB below covers the
    # Python objects of its views, not a temporary the size of a block or of
    # the output
    buffers = 2 * max(model._SQDIST_BLOCK, d) * 8
    tracemalloc.start()
    try:
        out = pairwise_sqdist(second, first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + buffers + 4096


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        FeatureSet(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        FeatureSet(np.zeros(3))


# ------------------------------------------------------------------------- csv

def test_features_csv_roundtrip(tmp_path):
    theta = uniform_box_features(5, 3, 2.0, seed=14)
    noise = NoiseSpec.heteroscedastic([0.1, 0.2, 0.3, 0.4, 0.5])
    path = tmp_path / "features.csv"
    write_features_csv(path, theta, noise)
    assert path.read_text().splitlines()[0] == "id,x1,x2,x3,sigma"
    back, back_noise = read_features_csv(path)
    np.testing.assert_array_equal(back.vectors, theta.vectors)
    np.testing.assert_array_equal(back_noise.levels, noise.levels)


def test_features_csv_without_sigma(tmp_path):
    theta = uniform_box_features(3, 2, 1.0, seed=1)
    path = tmp_path / "plain.csv"
    write_features_csv(path, theta)
    back, back_noise = read_features_csv(path)
    np.testing.assert_array_equal(back.vectors, theta.vectors)
    assert back_noise is None
    assert path.read_text().splitlines()[0] == "id,x1,x2"


_H, _HS = "id,x1,x2\n", "id,x1,x2,sigma\n"


@pytest.mark.parametrize(
    "text, fast",
    [
        (_H + "1,0.5,1.5\n\n2,2.5,3.5\n", True),
        (_H + "1,0.5,1.5\n  \n2,2.5,3.5\n", False),
        (_H + "1,0.5,#1.5\n2,2.5,3.5\n", False),
        (_H + '1,"0.5",1.5\n2,2.5,3.5\n', False),
        ('id,x1\n"a,0.5\nb",1.5\n', False),  # loadtxt would read two rows here
        (_H + "1,1_0,1.5\n", False),
        (_H + "1, 2 ,1.5\n", True),
        (_H + "1,,1.5\n", False),
        (_H + "1,abc,1.5\n", False),
        (_H + "1,0x10,1.5\n", False),
        (_H + "1,nan,1.5\n", True),
        (_H + "1,1e400,1.5\n", True),
        (_H + "1,Infinity,1.5\n", True),
        ("id,x1,x2\r\n1,0.5,1.5\r\n2,2.5,3.5\r\n", True),
        ("id,x1,x2\r1,0.5,1.5\r2,2.5,3.5\r", False),
        (_H + "1,0.5,1.5,\n", False),
        (_H + "1,0.5\n2,2.5\n", False),
        (_H + "kp_0001,0.5,1.5\nkp_0002,2.5,3.5\n", True),
        (_H + "1,\u0967,1.5\n", False),  # Devanagari one
        (_H + "1,\uff10,1.5\n", False),  # fullwidth zero
        (_H + "1,0.5,1.5\n2,2.5,3.5", True),
        (_H, False),
        (_HS + "1,0.5,1.5,0.25\n2,2.5,3.5,0.5\n", True),
        (_HS + "1,0.5,1.5,nan\n", True),
    ],
    ids=[
        "blank-line", "whitespace-line", "hash", "quoted", "quoted-newline", "underscore",
        "spaces", "empty-field", "abc", "hex", "nan", "1e400", "Infinity", "crlf", "cr-only",
        "trailing-comma", "short-rows", "text-id", "devanagari-digit", "fullwidth-digit",
        "no-final-newline", "header-only", "sigma", "sigma-nan",
    ],
)
def test_features_csv_loadtxt_agrees_with_the_row_loop(text, fast, tmp_path, monkeypatch):
    # The same features' bytes and levels, or the same error message, with
    # and without the one-call parse; ``fast`` says whether it reads the
    # text.  A table it reads with a non-finite value still goes to the row
    # loop, which names the line.
    path = tmp_path / "features.csv"
    path.write_text(text, newline="")
    load_body, tables = model._load_body, []

    def spy(body, ncols):
        tables.append(load_body(body, ncols))
        return tables[-1]

    def outcome():
        try:
            features, noise = read_features_csv(path)
        except ValueError as exc:
            return str(exc)
        return features.vectors.shape, features.vectors.tobytes(), noise and noise.levels.tobytes()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setattr(model, "_load_body", spy)
        got = outcome()
        monkeypatch.setattr(model, "_load_body", lambda body, ncols: None)
        assert got == outcome()
    assert caught == []
    assert (tables[0] is not None) == fast


def test_features_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.5,0.25\n")
    with pytest.raises(ValueError):
        read_features_csv(path)


def test_load_instance_csv(tmp_path):
    theta = uniform_box_features(4, 2, 1.0, seed=2)
    truth = Permutation([2, 0, 3, 1])
    inst = generate_instance(theta, NoiseSpec.homoscedastic(0.5), truth, seed=3)
    first_path, second_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_features_csv(first_path, inst.first, inst.first_noise)
    write_features_csv(second_path, inst.second, inst.second_noise)
    loaded = load_instance_csv(first_path, second_path)
    assert loaded.truth is None
    np.testing.assert_array_equal(loaded.first.vectors, inst.first.vectors)
    np.testing.assert_array_equal(loaded.second.vectors, inst.second.vectors)
    np.testing.assert_array_equal(
        loaded.second_noise.levels_for(4), inst.second_noise.levels_for(4)
    )


def test_load_instance_csv_dimension_mismatch(tmp_path):
    write_features_csv(tmp_path / "a.csv", uniform_box_features(3, 2, 1.0, seed=0))
    write_features_csv(tmp_path / "b.csv", uniform_box_features(3, 3, 1.0, seed=0))
    with pytest.raises(ValueError):
        load_instance_csv(tmp_path / "a.csv", tmp_path / "b.csv")
