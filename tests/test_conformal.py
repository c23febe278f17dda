'''
Unit tests for the split-conformal band primitives.

Expected values for the small cases were worked out by hand and are frozen
here on purpose: fit_band_arrays on {(0.2,0), (0.5,1), (0.8,1)} must produce the
range [0.2, 0.8] and sorted nonconformity scores [0, 0, 0.5], and the
probability transform on that band must hit 3/4, 0, and 3/4 for raw scores
0.65, 0.2, and 0.95.
'''

import math
import time

import numpy as np
import pytest

from conformal_retrieval.conformal import (
    PredictionBand,
    band_set,
    conformal_probability,
    fit_band_arrays,
    normalize_score,
)

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
