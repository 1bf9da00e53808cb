import math
import warnings

import numpy as np
import pytest

from permatch import (
    FeatureSet,
    NoiseSpec,
    Permutation,
    chi2_tail_bound,
    l2_distance,
    least_favorable_features,
    loss_01,
    loss_hamming,
    minimax_separation_rate,
    mismatch_probability_bound,
    mismatch_probability_bound_raw,
    random_permutation,
    scaled_identity_features,
    separation,
    separation_threshold,
    separation_threshold_conservative,
)


# ---------------------------------------------------------------------- losses

def test_loss_01_examples():
    ident = Permutation.identity(3)
    assert loss_01(ident, ident) == 0
    assert loss_01(Permutation([1, 0, 2]), ident) == 1


def test_loss_hamming_examples():
    ident4 = Permutation.identity(4)
    assert loss_hamming(Permutation([1, 0, 2, 3]), ident4) == 0.5
    assert loss_hamming(ident4, ident4) == 0.0
    derangement = Permutation([1, 2, 3, 4, 0])
    assert loss_hamming(derangement, Permutation.identity(5)) == 1.0


def test_l2_distance_examples():
    ident4 = Permutation.identity(4)
    assert l2_distance(Permutation([1, 0, 2, 3]), ident4) == pytest.approx(math.sqrt(0.5))
    assert l2_distance(ident4, ident4) == 0.0
    reversal = Permutation([3, 2, 1, 0])
    assert l2_distance(reversal, ident4) == pytest.approx(math.sqrt(5.0))


def test_loss_size_mismatch():
    with pytest.raises(ValueError):
        loss_01(Permutation.identity(3), Permutation.identity(4))
    with pytest.raises(ValueError):
        loss_hamming(Permutation([0], codomain=2), Permutation([0]))


def test_hamming_below_zero_one_and_right_invariance():
    rng = np.random.default_rng(0)
    ident = Permutation.identity(8)
    for _ in range(300):
        a = random_permutation(rng, 8)
        b = random_permutation(rng, 8)
        rho = random_permutation(rng, 8)
        assert loss_hamming(a, b) <= loss_01(a, b)
        # symmetry and identity of indiscernibles
        assert loss_hamming(a, b) == loss_hamming(b, a)
        assert l2_distance(a, b) == l2_distance(b, a)
        assert (loss_hamming(a, b) == 0) == (a == b)
        assert (l2_distance(a, b) == 0) == (a == b)
        # right-invariance of the index-wise distances
        assert loss_hamming(a.compose(rho), b.compose(rho)) == pytest.approx(loss_hamming(a, b))
        assert l2_distance(a.compose(rho), b.compose(rho)) == pytest.approx(l2_distance(a, b))
    assert loss_hamming(ident, ident) == 0.0


# ------------------------------------------------------------------ separation

def test_separation_scaled_identity():
    rep = separation(scaled_identity_features(3, 4.0), NoiseSpec.homoscedastic(1.0))
    assert rep.kappa == pytest.approx(4.0 * math.sqrt(2.0))
    assert rep.kappa_bar == pytest.approx(4.0)
    assert rep.argmin_pair[0] < rep.argmin_pair[1]


def test_separation_duplicate_feature():
    fs = FeatureSet([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
    rep = separation(fs, NoiseSpec.homoscedastic(1.0))
    assert rep.kappa == 0.0
    assert rep.argmin_pair == (0, 2)


def test_separation_ties_go_to_the_first_pair_in_row_major_order():
    # kappa = 1 at (1, 2) and (5, 6); kappa_bar = 2 / sqrt(512) at (3, 4)
    # and (7, 8); every other pair is at least 98 apart.
    positions = [0.0, 100.0, 101.0, 200.0, 202.0, 300.0, 301.0, 400.0, 402.0]
    levels = [1.0, 4.0, 4.0, 16.0, 16.0, 4.0, 4.0, 16.0, 16.0]
    rep = separation(FeatureSet([[x] for x in positions]), NoiseSpec.heteroscedastic(levels))
    assert rep.kappa == 1.0
    assert rep.argmin_pair == (1, 2)
    assert rep.kappa_bar == 2.0 / math.sqrt(512.0)
    assert rep.argmin_pair_rel == (3, 4)
    # the same pairs when the tied pairs trade places in index order
    order = [0, 5, 6, 7, 8, 1, 2, 3, 4]
    rep = separation(
        FeatureSet([[positions[k]] for k in order]),
        NoiseSpec.heteroscedastic([levels[k] for k in order]),
    )
    assert rep.argmin_pair == (1, 2)
    assert rep.argmin_pair_rel == (3, 4)


def test_separation_least_favorable_is_kappa():
    theta = least_favorable_features([0.5, 1.0, 1.5, 2.0], 1.25, d=2)
    rep = separation(theta, NoiseSpec.heteroscedastic([0.5, 1.0, 1.5, 2.0]))
    assert rep.kappa_bar == pytest.approx(1.25, rel=1e-9)


def test_separation_invariances():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(6, 5))
    noise = NoiseSpec.homoscedastic(2.0)
    rep = separation(FeatureSet(vectors), noise)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated = separation(FeatureSet(vectors @ q.T), noise)
    assert rotated.kappa == pytest.approx(rep.kappa, rel=1e-12)
    rho = random_permutation(rng, 6)
    relabeled = separation(FeatureSet(vectors[rho.map]), noise)
    assert relabeled.kappa == pytest.approx(rep.kappa, rel=1e-12)
    with pytest.raises(ValueError):
        separation(FeatureSet([[0.0]]), noise)


def test_separation_overflow_is_named():
    # the closest pair is 1e200 apart, which float64 holds, but the farthest
    # pair's squared distance overflows: the error says so instead of
    # returning kappa = inf
    theta = FeatureSet([[0.0], [1e200], [-1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            separation(theta, NoiseSpec.homoscedastic(1.0))


# ------------------------------------------------------------------ rate curve

def test_separation_rate_example():
    # independent high-precision evaluation of the two branches
    expected = 2.0 * max(math.sqrt(math.log(10)), (4 * math.log(10)) ** 0.25)
    assert minimax_separation_rate(2.0, 10, 4) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(3.4842, abs=5e-4)


def test_separation_rate_low_dimension_branch():
    assert minimax_separation_rate(1.0, 3, 1) == pytest.approx(math.sqrt(math.log(3)), rel=1e-15)


def test_separation_rate_boundary():
    # at d = log n the two branches agree
    n = 1000
    log_n = math.log(n)
    at = minimax_separation_rate(1.0, n, log_n)
    assert at == pytest.approx(math.sqrt(log_n), rel=1e-12)


def test_separation_rate_phase_transition():
    n = 1000
    log_n = math.log(n)
    plateau = {minimax_separation_rate(1.0, n, d) for d in range(1, int(log_n) + 1)}
    assert len(plateau) == 1
    increasing = [minimax_separation_rate(1.0, n, d) for d in range(int(log_n) + 1, 60)]
    assert all(a < b for a, b in zip(increasing, increasing[1:]))
    ratio = minimax_separation_rate(1.0, n, 16 * log_n) / minimax_separation_rate(1.0, n, log_n)
    assert ratio == 2.0  # exact fourth-root scaling, no tolerance


def test_separation_rate_validation():
    with pytest.raises(ValueError):
        minimax_separation_rate(1.0, 1, 4)
    with pytest.raises(ValueError):
        minimax_separation_rate(0.0, 10, 4)


# ------------------------------------------------------------------ thresholds

def test_threshold_example_value():
    expected = 4.0 * max(
        math.sqrt(2 * math.log(8 * 200**2 / 0.05)),
        (200 * math.log(4 * 200**2 / 0.05)) ** 0.25,
    )
    got = separation_threshold(0.05, 200, 200, 1.0)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(29.59, abs=5e-3)


def test_threshold_scales_linearly_in_sigma():
    one = separation_threshold(0.05, 50, 20, 1.0)
    assert separation_threshold(0.05, 50, 20, 2.0) == pytest.approx(2 * one, rel=1e-15)


def test_threshold_monotone_in_alpha():
    values = [separation_threshold(a, 100, 30, 1.0) for a in (0.01, 0.05, 0.1, 0.5, 0.9)]
    assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        separation_threshold(0.0, 10, 5, 1.0)
    with pytest.raises(ValueError):
        separation_threshold(1.0, 10, 5, 1.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, 10, 5, 1.0), r"alpha must lie in \(0, 1\), got 0.0"),
        ((1.0, 10, 5, 1.0), r"alpha must lie in \(0, 1\), got 1.0"),
        ((0.05, 1, 5, 1.0), "need n >= 2 and finite d >= 1"),
        ((0.05, 10, 0, 1.0), "need n >= 2 and finite d >= 1"),
        ((0.05, 10, math.inf, 1.0), "need n >= 2 and finite d >= 1"),
    ],
)
def test_threshold_names_a_bad_alpha_n_or_d(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        separation_threshold(*args)


def test_conservative_threshold_dominates():
    for n, d in ((10, 5), (100, 50), (500, 200)):
        assert separation_threshold_conservative(0.1, n, d, 1.0) > separation_threshold(0.1, n, d, 1.0)


@pytest.mark.parametrize(
    "args, plain, conservative",
    [
        # the (d log)^(1/4) branch wins for both thresholds
        ((0.05, 200, 200, 1.0), "0x1.d97c051f2fa19p+4", "0x1.4ecdd75ffbe09p+5"),
        # the sqrt(log) branch wins for both thresholds
        ((0.05, 50, 2, 1.0), "0x1.4511e1d59a319p+4", "0x1.cbb7db8b0d240p+4"),
    ],
)
def test_threshold_exact_bits(args, plain, conservative):
    assert separation_threshold(*args).hex() == plain
    assert separation_threshold_conservative(*args).hex() == conservative


# ------------------------------------------------------------------ risk bound

def test_risk_bound_vacuous_regime():
    raw = mismatch_probability_bound_raw(8.0, 1.0, 10, 16)
    expected = max(800 * math.exp(-1.0), 400 * math.exp(-0.25))
    assert raw == pytest.approx(expected, rel=1e-12)
    assert mismatch_probability_bound(8.0, 1.0, 10, 16) == 1.0


def test_risk_bound_vanishes_at_large_kappa():
    assert mismatch_probability_bound(1e6, 1.0, 10, 16) == pytest.approx(0.0, abs=1e-300)


def test_risk_bound_at_conservative_threshold_is_alpha():
    # the conservative threshold's constants are tuned to drive the bound to alpha
    for alpha in (0.01, 0.05, 0.25):
        for n in (10, 100, 1000):
            for d in (1, 10, 200):
                kappa = separation_threshold_conservative(alpha, n, d, 1.0)
                assert mismatch_probability_bound(kappa, 1.0, n, d) <= alpha * (1 + 1e-12)


def test_risk_bound_monotone_in_kappa():
    values = [mismatch_probability_bound_raw(k, 1.0, 50, 20) for k in (1.0, 5.0, 10.0, 20.0, 40.0)]
    assert all(x >= y for x, y in zip(values, values[1:]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mismatch_probability_bound(math.nan, 1.0, 10, 5),
        lambda: mismatch_probability_bound(5.0, math.nan, 10, 5),
        lambda: chi2_tail_bound(3, math.nan),
    ],
    ids=["bound-kappa", "bound-sigma", "chi2-x"],
)
def test_bounds_reject_nan(call):
    with pytest.raises(ValueError, match="must be positive"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: minimax_separation_rate(1.0, 10, 10**320), "d"),
        (lambda: separation_threshold(0.05, 10**400, 10, 1.0), "n"),
        (lambda: mismatch_probability_bound(5.0, 1.0, 10**400, 5), "n"),
        (lambda: mismatch_probability_bound(5.0, 1.0, 10, 10**400), "d"),
    ],
    ids=["rate-d", "threshold-n", "bound-n", "bound-d"],
)
def test_sizes_beyond_float64_are_named(call, name):
    # an int past float64's range raises OverflowError in float arithmetic
    with pytest.raises(ValueError, match=f"^{name} overflows float64$"):
        call()


# ------------------------------------------------------------------- chi2 tail

def test_chi2_tail_bound_values():
    lo, hi = chi2_tail_bound(10, 3.0)
    assert lo == hi == pytest.approx(math.exp(-3.0))
    lo, hi = chi2_tail_bound(1, 5.0)
    assert lo == pytest.approx(math.exp(-5.0))
    tiny = chi2_tail_bound(7, 1e-12)[0]
    assert tiny == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError):
        chi2_tail_bound(0, 1.0)
    with pytest.raises(ValueError):
        chi2_tail_bound(3, 0.0)


def test_chi2_tail_bound_dominates_monte_carlo():
    rng = np.random.default_rng(6)
    draws = rng.chisquare(10, size=1_000_000)
    x = 3.0
    lo, hi = chi2_tail_bound(10, x)
    lower_emp = np.mean(draws - 10 <= -2 * math.sqrt(10 * x))
    upper_emp = np.mean(draws - 10 >= 2 * math.sqrt(10 * x) + 2 * x)
    assert lower_emp <= lo
    assert upper_emp <= hi
