import math

import numpy as np
import pytest

from luq.errors import EmptyInputError, MomentInversionFailedError
from luq.priors import (
    BetaPrimePrior,
    CategoricalPrior,
    HistogramPrior,
    UniformPrior,
    betaprime_fit_mom,
    fit_categorical,
    fit_histogram,
)


def trapz_mass(prior, lo, hi, n=200001):
    ys = np.linspace(lo, hi, n)
    dens = np.exp(prior.log_pdf(ys))
    return np.trapezoid(dens, ys)


class TestFitCategorical:
    def test_counting(self):
        p = fit_categorical([0, 0, 0, 1])
        np.testing.assert_allclose(np.exp(p.log_probs), [0.75, 0.25])

    def test_single_class(self):
        p = fit_categorical([3, 3, 3])
        assert p.classes == (3,)
        assert np.exp(p.log_probs[0]) == pytest.approx(1.0)

    def test_laplace_smoothing_when_class_absent(self):
        p = fit_categorical([0, 1], classes=[0, 1, 2])
        np.testing.assert_allclose(np.exp(p.log_probs), [2 / 5, 2 / 5, 1 / 5])

    def test_no_smoothing_when_all_present(self):
        p = fit_categorical([0, 1, 0, 1], classes=[0, 1])
        np.testing.assert_allclose(np.exp(p.log_probs), [0.5, 0.5])

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            fit_categorical([])

    def test_mass_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.integers(0, 5, size=int(rng.integers(1, 50)))
            p = fit_categorical(labels, classes=range(5))
            assert np.exp(p.log_probs).sum() == pytest.approx(1.0, abs=1e-12)


class TestPriorLogPdf:
    def test_uniform(self):
        p = UniformPrior(-10.0, 10.0)
        assert p.log_pdf(0.0) == pytest.approx(math.log(1 / 20), abs=1e-12)
        assert p.log_pdf(0.0) == pytest.approx(-2.995732, abs=1e-6)
        assert p.log_pdf(11.0) == -np.inf

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (1.0, -1.0), (-np.inf, 1.0),
                                        (0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308),
                                        (np.float64(-1e308), np.float64(1e308))])
    def test_uniform_needs_finite_range(self, lo, hi):
        # an infinite range, or one whose width overflows, has density 0
        # everywhere, so no posterior
        with pytest.raises(ValueError, match="finite lo < hi"):
            UniformPrior(lo, hi)

    def test_betaprime_1_1(self):
        # pdf at 1 with alpha = beta = 1 is 1/(1+1)^2 = 0.25
        p = BetaPrimePrior(1.0, 1.0)
        assert p.log_pdf(1.0) == pytest.approx(math.log(0.25), abs=1e-12)
        assert p.log_pdf(-0.5) == -np.inf

    def test_categorical(self):
        p = CategoricalPrior(classes=(0, 1), log_probs=np.log([0.75, 0.25]))
        assert p.log_pdf(1) == pytest.approx(math.log(0.25), abs=1e-12)
        assert p.log_pdf(7) == -np.inf

    def test_categorical_class_ids_are_distinct(self):
        with pytest.raises(ValueError, match=r"a class id repeats in \[0, 0, 1\]"):
            CategoricalPrior(classes=(0, 0, 1), log_probs=np.log([0.25, 0.25, 0.5]))

    def test_finite_inside_support(self):
        hist = fit_histogram(np.random.default_rng(1).uniform(2, 5, size=500), bins=8)
        for y in np.linspace(2.01, 4.99, 57):
            assert np.isfinite(hist.log_pdf(y))
        uni = UniformPrior(-3.0, 4.0)
        for y in np.linspace(-3, 4, 29):
            assert np.isfinite(uni.log_pdf(y))


HIST = HistogramPrior(edges=np.array([-1.0, 0.0, 0.5, 2.0]),
                      log_densities=np.log([0.2, 0.4, 0.4]))


class TestVectorisedLogPdf:
    """An array of outputs gives, element by element, exactly the scalar
    results, outside the support and on histogram bin edges included."""

    @pytest.mark.parametrize("prior, ys", [
        (CategoricalPrior(classes=(0, 2, 5), log_probs=np.log([0.5, 0.3, 0.2])),
         [-1.0, -0.5, 0.0, 0.7, 1.0, 2.0, 2.9, 5.0, 7.0, np.nan, np.inf]),
        (UniformPrior(-3.0, 4.0),
         [-3.0 - 1e-12, -3.0, 0.0, 4.0, 4.0 + 1e-12, 9.0, np.nan, np.inf, -np.inf]),
        (BetaPrimePrior(2.5, 3.0),
         [-1.0, 0.0, 1e-300, 0.5, 1.0, 100.0, 1e300, np.nan, -np.inf]),
        (BetaPrimePrior(1.0, 0.5), [-1.0, 0.0, 1e-12, 3.0]),
        (HIST, [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 2.0 + 1e-12, np.nan,
                np.inf, -np.inf]),
    ], ids=["categorical", "uniform", "betaprime", "betaprime_alpha_1", "histogram"])
    def test_array_equals_per_point(self, prior, ys):
        ys = np.array(ys)
        scalars = [prior.log_pdf(float(y)) for y in ys]
        assert all(type(v) is float for v in scalars)
        values = prior.log_pdf(ys)
        assert isinstance(values, np.ndarray) and values.shape == ys.shape
        np.testing.assert_array_equal(values, scalars)
        np.testing.assert_array_equal(prior.log_pdf(ys.reshape(-1, 1))[:, 0], scalars)

    def test_outside_support_is_minus_inf(self):
        assert UniformPrior(0.0, 1.0).log_pdf(np.nan) == -np.inf
        assert BetaPrimePrior(2.0, 2.0).log_pdf(np.nan) == -np.inf
        assert HIST.log_pdf(np.nan) == -np.inf
        assert CategoricalPrior(classes=(0,), log_probs=np.zeros(1)).log_pdf(np.inf) == -np.inf

    def test_histogram_bin_edges(self):
        # an edge belongs to the bin it opens; the upper edge to the last bin
        got = HIST.log_pdf(HIST.edges)
        np.testing.assert_array_equal(got, HIST.log_densities[[0, 1, 2, 2]])


class TestNormalization:
    def test_uniform_integrates_to_one(self):
        assert trapz_mass(UniformPrior(-10, 10), -10, 10) == pytest.approx(1.0, abs=1e-3)

    def test_betaprime_integrates_to_one(self):
        p = BetaPrimePrior(31.76, 3.07)
        assert trapz_mass(p, 1e-9, 500.0) == pytest.approx(1.0, abs=1e-3)

    def test_histogram_integrates_to_one(self):
        h = fit_histogram(np.random.default_rng(2).normal(size=2000), bins=16)
        assert trapz_mass(h, h.edges[0] + 1e-12, h.edges[-1] - 1e-12, 400001) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_histogram_over_overflowing_range(self):
        # the bin width would overflow; no RuntimeWarning on the way
        with pytest.raises(OverflowError, match="wider than the largest float"):
            fit_histogram(np.array([-1e308, 1e308, 0.0]), bins=4)

    def test_histogram_invariant_enforced(self):
        with pytest.raises(ValueError):
            HistogramPrior(edges=np.array([0.0, 1.0]), log_densities=np.array([1.0]))

    def test_histogram_span_must_be_finite(self):
        # normalized, but the support grid over it would have infinite spacing
        with pytest.raises(ValueError, match="with a finite span"):
            HistogramPrior(edges=np.array([-1.5e308, 0.0, 1.5e308]),
                           log_densities=np.array([-np.log(1.5e308), -np.inf]))


class TestBetaPrimeMoments:
    def test_recovers_reference_parameters(self):
        # sample via U/(1-U) with U ~ Beta(a, b)
        rng = np.random.default_rng(3)
        u = rng.beta(31.76, 3.07, size=100_000)
        x = u / (1.0 - u)
        fit = betaprime_fit_mom(x)
        assert fit.alpha == pytest.approx(31.76, rel=0.10)
        assert fit.beta == pytest.approx(3.07, rel=0.10)

    def test_constant_samples_fail(self):
        with pytest.raises(MomentInversionFailedError):
            betaprime_fit_mom(np.full(20, 2.5))

    def test_moment_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.gamma(shape=3.0, scale=rng.uniform(0.5, 2.0), size=200) + 0.01
            m, v = x.mean(), x.var(ddof=1)
            fit = betaprime_fit_mom(x)
            assert fit.mean() == pytest.approx(m, abs=1e-9)
            assert fit.variance() == pytest.approx(v, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            betaprime_fit_mom([1.0] * 5)

    def test_nonpositive_samples(self):
        with pytest.raises(ValueError):
            betaprime_fit_mom([1.0] * 12 + [-1.0])
