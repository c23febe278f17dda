'''
Unit tests for the split-conformal band primitives.

Expected values for the small cases were worked out by hand and are frozen
here on purpose: fit_band_arrays on {(0.2,0), (0.5,1), (0.8,1)} must produce the
range [0.2, 0.8] and sorted nonconformity scores [0, 0, 0.5], and the
probability transform on that band must hit 3/4, 0, and 3/4 for raw scores
0.65, 0.2, and 0.95.

The lookup tests hold conformal_probability to a left binary search over
the sorted scores by ==, never by a tolerance: the bucket table is a way
to find the same count, not an approximation of it.
'''

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conformal_retrieval.conformal import (
    PredictionBand,
    band_set,
    conformal_probability,
    fit_band_arrays,
    normalize_score,
)
from conformal_retrieval.pipeline import fit_model, load_model, save_model

HAND_THETA, HAND_Y = [0.2, 0.5, 0.8], [0, 1, 1]


def hand_band():
    return fit_band_arrays(HAND_THETA, HAND_Y)


def random_band(rng, m=200, informative=True):
    '''Band fitted on labels that loosely track the score.'''
    theta = rng.uniform(-0.3, 1.2, size=m)
    rank = (theta - theta.min()) / (theta.max() - theta.min())
    p = rank if informative else np.full(m, 0.5)
    y = (rng.random(m) < p).astype(int)
    return fit_band_arrays(theta, y)


class TestFitBand:
    def test_hand_worked_example(self):
        band = hand_band()
        assert band.theta_min == 0.2
        assert band.theta_max == 0.8
        np.testing.assert_allclose(band.sorted_gamma, [0.0, 0.0, 0.5], atol=1e-15)
        assert band.size == 3

    def test_accepts_plain_tuples(self):
        band = fit_band_arrays((0.2, 0.5, 0.8), (0, 1, 1))
        np.testing.assert_allclose(band.sorted_gamma, [0.0, 0.0, 0.5], atol=1e-15)

    def test_gamma_sorted_and_bounded(self):
        rng = np.random.default_rng(42)
        band = random_band(rng)
        assert np.all(np.diff(band.sorted_gamma) >= 0)
        assert band.sorted_gamma[0] >= 0.0
        assert band.sorted_gamma[-1] <= 1.0

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            fit_band_arrays([0.5], [1])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            fit_band_arrays([0.4, 0.4, 0.4], [0, 1, 1])

    def test_non_binary_label_rejected(self):
        with pytest.raises(ValueError):
            fit_band_arrays([0.2, 0.8], [0, 2])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            fit_band_arrays([0.2, float("nan")], [0, 1])


class TestNormalizeScore:
    def test_interior_point(self):
        band = hand_band()
        assert normalize_score(band, 0.65) == pytest.approx(0.75)

    def test_clamps_both_ends(self):
        band = hand_band()
        assert normalize_score(band, -5.0) == 0.0
        assert normalize_score(band, 0.95) == 1.0

    def test_calibration_score_is_absolute_residual(self):
        # normalized 0.75 scores 0.25 against label 1 and 0.75 against label 0
        band = fit_band_arrays([0.0, 0.75, 0.75, 1.0], [0, 1, 0, 1])
        np.testing.assert_allclose(band.sorted_gamma, [0.0, 0.0, 0.25, 0.75],
                                   atol=1e-15)

    def test_affine_rescaling_is_invisible(self):
        # min-max normalization cancels positive affine maps of the raw score
        rng = np.random.default_rng(7)
        theta = rng.uniform(0, 1, size=50)
        y = (rng.random(50) < theta).astype(int)
        band = fit_band_arrays(theta, y)
        scaled = fit_band_arrays(3.0 * theta + 0.1, y)
        probe = rng.uniform(-0.2, 1.2, size=200)
        np.testing.assert_allclose(
            normalize_score(band, probe),
            normalize_score(scaled, 3.0 * probe + 0.1),
            atol=1e-12,
        )


class TestBandSet:
    def ladder_band(self):
        # ten evenly spaced nonconformity scores over a unit range
        return PredictionBand(0.0, 1.0, np.arange(10) / 10.0)

    def test_hand_worked_example(self):
        band = self.ladder_band()
        # index ceil(11 * 0.7) = 8, so alpha = 0.7
        assert band_set(band, 0.35, 0.3) == {0, 1}
        assert band_set(band, 0.9, 0.3) == {1}

    def test_epsilon_zero_is_everything(self):
        band = self.ladder_band()
        assert band_set(band, 0.5, 0.0) == {0, 1}

    def test_epsilon_one_is_empty(self):
        band = self.ladder_band()
        assert band_set(band, 0.5, 1.0) == set()

    def test_epsilon_out_of_range_rejected(self):
        band = self.ladder_band()
        with pytest.raises(ValueError):
            band_set(band, 0.5, -0.1)
        with pytest.raises(ValueError):
            band_set(band, 0.5, 1.5)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_nan_refused(self, epsilon):
        # the message conformal_probability refuses NaN with
        with pytest.raises(ValueError, match="raw scores must not be NaN"):
            band_set(self.ladder_band(), math.nan, epsilon)

    def test_nested_in_epsilon(self):
        '''Growing epsilon can only shrink the band.'''
        rng = np.random.default_rng(42)
        band = random_band(rng, m=37)
        for theta in rng.uniform(-0.5, 1.5, size=25):
            previous = {0, 1}
            for eps in np.linspace(0.0, 1.0, 41):
                current = band_set(band, theta, float(eps))
                assert current.issubset(previous)
                previous = current


class TestConformalProbability:
    def test_hand_worked_examples(self):
        band = hand_band()
        assert conformal_probability(band, 0.65) == pytest.approx(3 / 4)
        assert conformal_probability(band, 0.2) == 0.0
        assert conformal_probability(band, 0.95) == pytest.approx(3 / 4)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        band = random_band(rng)
        theta = rng.uniform(-0.5, 1.5, size=64)
        bulk = conformal_probability(band, theta)
        scalar = [conformal_probability(band, t) for t in theta]
        np.testing.assert_array_equal(bulk, scalar)

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(11)
        band = random_band(rng)
        theta = np.sort(rng.uniform(-0.5, 1.5, size=300))
        probs = conformal_probability(band, theta)
        assert np.all(np.diff(probs) >= 0)

    def test_range_never_reaches_one(self):
        rng = np.random.default_rng(5)
        band = random_band(rng, m=30)
        probs = conformal_probability(band, rng.uniform(-2, 3, size=500))
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 30 / 31)


def unit_band(gamma):
    '''Band over the raw range [0, 1], where a raw score is its own
    normalized score, so probes can sit one ulp from a gamma.'''
    return PredictionBand(0.0, 1.0, np.sort(np.asarray(gamma, dtype=np.float64)))


def assert_counts_exactly(band, theta):
    '''The probability at every raw score is a left binary search's count
    over m + 1, compared by ==.'''
    counts = np.searchsorted(band.sorted_gamma, normalize_score(band, theta),
                             side="left")
    np.testing.assert_array_equal(conformal_probability(band, theta),
                                  counts / (band.size + 1))


def probes_around(gamma):
    '''Each gamma, the floats one ulp either side of it, 0 and 1.'''
    return np.r_[gamma, np.nextafter(gamma, -1.0), np.nextafter(gamma, 2.0),
                 0.0, 1.0]


class TestBucketLookup:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_bands(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 3000))
        gamma = [rng.random(m), rng.beta(0.2, 3.0, m), rng.beta(3.0, 0.2, m),
                 np.r_[np.zeros(m // 2), rng.random(m - m // 2)]][seed % 4]
        band = unit_band(gamma)
        assert_counts_exactly(band, np.r_[rng.random(2000), probes_around(gamma)])

    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 20])
    def test_long_runs_of_equal_gammas(self, levels):
        rng = np.random.default_rng(levels)
        gamma = rng.integers(0, levels + 1, 5000) / levels
        band = unit_band(gamma)
        assert_counts_exactly(band, np.r_[rng.random(500), probes_around(gamma)])

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("m", [2, 3, 1000])
    def test_constant_bands(self, value, m):
        band = unit_band(np.full(m, value))
        assert_counts_exactly(band, probes_around(np.array([value])))
        assert conformal_probability(band, 1.0) == (m if value < 1.0 else 0) / (m + 1)

    def test_band_of_two(self):
        for gamma in ([0.0, 1.0], [0.25, 0.25], [0.5, 0.75], [1.0, 1.0]):
            band = unit_band(gamma)
            assert_counts_exactly(band, np.r_[probes_around(np.array(gamma)),
                                              np.linspace(0, 1, 101)])

    @pytest.mark.parametrize("m", [2, 64, 65, 1024, 1025, 4096, 4097])
    def test_sizes_at_and_just_past_a_power_of_two(self, m):
        rng = np.random.default_rng(m)
        gamma = rng.random(m)
        band = unit_band(gamma)
        assert_counts_exactly(band, np.r_[rng.random(1000), probes_around(gamma)])

    def test_edges_of_the_unit_interval(self):
        band = unit_band([0.0, 0.0, 0.5, 1.0, 1.0])
        assert conformal_probability(band, 0.0) == 0.0
        assert conformal_probability(band, 1.0) == 3 / 6
        assert conformal_probability(band, np.nextafter(1.0, 0.0)) == 3 / 6
        assert conformal_probability(band, np.nextafter(0.0, 1.0)) == 2 / 6
        assert_counts_exactly(band, np.array([0.0, 1.0]))

    def test_raw_scores_outside_the_calibration_range(self):
        rng = np.random.default_rng(9)
        band = random_band(rng, m=777)
        span = band.theta_max - band.theta_min
        theta = np.r_[rng.uniform(band.theta_min - 3 * span,
                                  band.theta_max + 3 * span, 3000),
                      -np.inf, np.inf, -1e300, 1e300,
                      band.theta_min, band.theta_max,
                      np.nextafter(band.theta_min, -np.inf),
                      np.nextafter(band.theta_max, np.inf)]
        assert_counts_exactly(band, theta)
        assert conformal_probability(band, -np.inf) == 0.0

    def test_scalar_empty_and_grid_shapes(self):
        rng = np.random.default_rng(4)
        band = random_band(rng, m=300)
        scalar = conformal_probability(band, np.float64(0.4))
        assert type(scalar) is float
        assert scalar == conformal_probability(band, np.array([0.4]))[0]
        assert conformal_probability(band, 0.4) == scalar
        empty = conformal_probability(band, np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64
        grid = rng.uniform(-0.5, 1.5, (7, 11))
        out = conformal_probability(band, grid)
        assert out.shape == (7, 11)
        np.testing.assert_array_equal(out.ravel(),
                                      conformal_probability(band, grid.ravel()))

    def test_nan_refused(self):
        band = hand_band()
        for theta in (math.nan, np.array([0.3, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                conformal_probability(band, theta)

    def test_table_counts_gammas_below_each_bucket_edge(self):
        gamma = np.array([0.0, 0.1, 0.1, 0.1, 0.5, 0.75, 1.0])
        start, passes = unit_band(gamma)._buckets
        scale = 8  # the power of two at or above m = 7
        assert start.dtype == np.int32
        np.testing.assert_array_equal(
            start, [np.sum(gamma < b / scale) for b in range(scale + 2)])
        assert passes == 3  # four gammas share [0, 1/8): steps 4, 2, 1

    def test_table_is_built_on_first_lookup_not_at_load(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.bin"
        save_model(fit_model(tiny_dataset, [0, 1]), path)
        model = load_model(path)
        bands = [*model.first_stage.values(), model.second_stage]
        assert not any("_buckets" in vars(band) for band in bands)
        first = bands[0]
        conformal_probability(first, 0.5)
        table = vars(first)["_buckets"]
        conformal_probability(first, np.array([0.1, 0.9]))
        assert vars(first)["_buckets"] is table
        assert not any("_buckets" in vars(band) for band in bands[1:])

    def test_first_lookups_from_many_threads(self):
        # batch_retrieve's workers share a loaded model, so several threads
        # can make a band's first lookup at once
        rng = np.random.default_rng(12)
        theta = rng.random(4000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                band = unit_band(rng.random(50_000))
                want = conformal_probability(unit_band(band.sorted_gamma), theta)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(conformal_probability, band, theta)
                               for _ in range(16)]
                    for future in futures:
                        np.testing.assert_array_equal(future.result(timeout=60), want)
        finally:
            sys.setswitchinterval(interval)


class TestBruteForceAgreement:
    def test_matches_on_decisive_scores(self, grid_sweep):
        '''Closed form equals the grid sweep wherever {1} is reachable.'''
        rng = np.random.default_rng(42)
        theta = rng.uniform(0.0, 1.0, size=59)
        y = (rng.random(59) < theta).astype(int)
        # one exact mid-range positive keeps gamma = 0.5 in the ladder, so
        # the set {1} stays reachable for every normalized score above 0.5
        band = fit_band_arrays(
            np.r_[theta, theta.min(), theta.max(), (theta.min() + theta.max()) / 2.0],
            np.r_[y, 0, 1, 1])
        m = band.size
        grid = 1e-4
        for t in rng.uniform(0.501, 1.0, size=40):
            raw = band.theta_min + t * (band.theta_max - band.theta_min)
            got = conformal_probability(band, raw)
            want = grid_sweep(band, raw, grid_step=grid)
            assert abs(got - want) <= grid + 1.0 / (m + 1)

    def test_low_scores_sweep_to_zero(self, grid_sweep):
        band = hand_band()
        assert grid_sweep(band, 0.2) == 0.0


class TestCoverage:
    def test_smoke_coverage_near_nominal(self):
        '''Fresh pairs land inside the band at roughly the promised rate.'''
        rng = np.random.default_rng(42)
        m, n_fresh, eps = 500, 4000, 0.1
        theta = rng.uniform(0, 1, size=m + n_fresh)
        y = (rng.random(m + n_fresh) < theta).astype(int)
        band = fit_band_arrays(theta[:m], y[:m])
        hits = sum(
            int(y[m + i] in band_set(band, theta[m + i], eps))
            for i in range(n_fresh)
        )
        assert abs(hits / n_fresh - (1 - eps)) < 0.03
