import itertools
import math

import numpy as np
import pytest

from luq.errors import EmptyInputError, NotNormalizedError, OneClassOnlyError
from luq.metrics import (
    auroc,
    average_precision,
    calibration_curve,
    discrete_entropy,
    fpr_at_tpr,
    rmse_below_uncertainty,
)


def brute_force_auroc(scores, labels):
    """O(n^2) pairwise definition with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def exhaustive_fpr_at_tpr(scores, labels, target):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = 1.0
    for t in np.unique(scores):
        tpr = np.sum(scores[labels == 1] >= t) / n_pos
        fpr = np.sum(scores[labels == 0] >= t) / n_neg
        if tpr >= target:
            best = min(best, fpr)
    return best


def exhaustive_average_precision(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = np.sort(np.unique(scores))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        admitted = scores >= t
        tp = int((labels[admitted] == 1).sum())
        recall = tp / n_pos
        precision = tp / admitted.sum()
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_identical_multisets(self):
        assert auroc([0.3, 0.7, 0.3, 0.7], [1, 1, 0, 0]) == pytest.approx(0.5)

    def test_four_pair_case(self):
        # pairs: (0.8 vs 0.6, 0.8 vs 0.2, 0.4 vs 0.6, 0.4 vs 0.2) -> 3/4
        assert auroc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_one_class_raises(self):
        with pytest.raises(OneClassOnlyError):
            auroc([1.0, 2.0], [1, 1])

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            scores = rng.normal(size=n).round(1)  # rounded to create ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            a = auroc(scores, labels)
            b = auroc(-scores, labels)
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auroc(np.exp(scores), labels) == pytest.approx(
                auroc(scores, labels), abs=1e-12
            )

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                brute_force_auroc(scores, labels), abs=1e-12
            )


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([4, 3, 2, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_reversed_ranking(self):
        assert average_precision([0, 3, 2, 1], [1, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_ties_gives_base_rate(self):
        scores = np.zeros(8)
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0])
        assert average_precision(scores, labels) == pytest.approx(3 / 8)

    def test_tie_value_is_permutation_invariant(self):
        scores = np.ones(5)
        for perm in itertools.permutations([1, 1, 0, 0, 0]):
            assert average_precision(scores, list(perm)) == pytest.approx(2 / 5)

    def test_matches_exhaustive_thresholds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert average_precision(scores, labels) == pytest.approx(
                exhaustive_average_precision(scores, labels), abs=1e-12
            )


class TestFprAtTpr:
    def test_perfect_separation(self):
        assert fpr_at_tpr([3, 2, 1, 0], [1, 1, 0, 0]) == 0.0

    def test_identical_distributions_large(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=20000)
        labels = np.repeat([1, 0], 10000)
        assert fpr_at_tpr(scores, labels, 0.95) == pytest.approx(0.95, abs=0.02)

    def test_hand_case(self):
        # admitting all 3 positives forces threshold <= 1, which admits the
        # negative at 2.5 -> FPR 1/2
        scores = [3.0, 2.0, 1.0, 2.5, 0.0]
        labels = [1, 1, 1, 0, 0]
        assert fpr_at_tpr(scores, labels, 0.95) == pytest.approx(0.5)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert fpr_at_tpr(scores, labels, 0.95) == pytest.approx(
                exhaustive_fpr_at_tpr(scores, labels, 0.95), abs=1e-12
            )


class TestCalibrationCurve:
    def test_all_correct_constant_one(self):
        curve = calibration_curve([0.1, 0.5, 0.9], [1, 1, 1])
        np.testing.assert_array_equal(curve.accuracies, 1.0)

    def test_hand_case(self):
        curve = calibration_curve([1, 2, 3, 4], [1, 1, 0, 0], percentile_step=50)
        np.testing.assert_allclose(curve.percentiles, [50.0, 100.0])
        np.testing.assert_allclose(curve.accuracies, [1.0, 0.5])

    def test_final_point_is_overall_accuracy(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=200)
        c = rng.integers(0, 2, size=200)
        curve = calibration_curve(u, c)
        assert curve.accuracies[-1] == pytest.approx(c.mean())
        assert curve.percentiles[-1] == 100.0

    @pytest.mark.parametrize("step", [2.5, 7.0, 100.0])
    def test_matches_one_percentile_per_point(self, step):
        rng = np.random.default_rng(8)
        u = np.round(rng.normal(size=150), 1)  # ties at the thresholds
        c = rng.random(150)
        curve = calibration_curve(u, c, percentile_step=step)
        want = [c[u <= np.percentile(u, q)].mean() for q in curve.percentiles]
        np.testing.assert_array_equal(curve.accuracies, want)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            calibration_curve([], [])


class TestRmseBelowUncertainty:
    def test_single_threshold_overall(self):
        e = np.array([1.0, 2.0, 3.0])
        out = rmse_below_uncertainty(e, [0.1, 0.2, 0.3], [1.0])
        assert out[0] == pytest.approx(np.sqrt(np.mean(e**2)))

    def test_selects_first_only(self):
        out = rmse_below_uncertainty([0.0, 2.0], [1.0, 10.0], [5.0])
        assert out[0] == 0.0

    def test_empty_bucket_is_nan(self):
        out = rmse_below_uncertainty([1.0], [5.0], [0.0, 10.0])
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_monotone_coupling_gives_nondecreasing_curve(self):
        rng = np.random.default_rng(7)
        u = np.sort(rng.uniform(0, 1, size=100))
        e = np.sort(np.abs(rng.normal(size=100)))
        thresholds = np.linspace(0.05, 1.0, 12)
        out = rmse_below_uncertainty(e, u, thresholds)
        valid = out[~np.isnan(out)]
        assert np.all(np.diff(valid) >= -1e-12)


class TestDiscreteEntropy:
    def test_fair_coin(self):
        assert discrete_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_point_mass(self):
        assert discrete_entropy([1.0, 0.0]) == 0.0

    def test_matches_posterior_example(self):
        assert discrete_entropy([0.731059, 0.268941]) == pytest.approx(
            0.582203, abs=1e-6
        )

    def test_not_normalized_raises(self):
        with pytest.raises(NotNormalizedError):
            discrete_entropy([0.5, 0.6])
        with pytest.raises(NotNormalizedError):
            discrete_entropy([-0.2, 1.2])

    def test_nan_probability_raises(self):
        # NaN passes both a "< 0" test and a test of the sum's distance from 1
        with pytest.raises(NotNormalizedError, match="NaN"):
            discrete_entropy([np.nan, 1.0])

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(k))
            assert discrete_entropy(p) <= math.log(k) + 1e-12
        assert discrete_entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6.0))
