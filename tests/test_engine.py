import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from luq import engine
from luq.engine import (
    BLOCK,
    GRID_CHUNK,
    REGRESSION_BLOCK,
    ConfidenceRegion,
    RegressionPosterior,
    SupportGrid,
    _posterior_scores,
    _visit_order,
    aleatoric_classification,
    aleatoric_regression,
    confidence_region,
    epistemic_classification,
    epistemic_regression,
    score_classification,
    score_regression,
)
from luq.errors import (
    DimMismatchError,
    MassUnreachableError,
    MissingClassDensityError,
)
from luq.flow import FlowArchitecture, build_flow, flow_condition, flow_log_prob
from luq.gmm import ClassConditionalGmm, GaussianComponent, Gmm, gmm_log_prob
from luq.linalg import cholesky, row_blocks
from luq.metrics import discrete_entropy
from luq.priors import BetaPrimePrior, CategoricalPrior, HistogramPrior, UniformPrior

from helpers import (
    condition_free_flow,
    gaussian_1d_gmm,
    gaussian_conditional_flow,
    gmm_with_logdensity_at_zero,
    uniform_prior_over,
)


class TestSupportGrid:
    def test_from_range(self):
        g = SupportGrid.from_range(-10.0, 10.0, 1000)
        assert g.points.size == 1000
        assert g.spacing == pytest.approx(20.0 / 999)

    def test_range_defines_points_and_spacing(self):
        g = SupportGrid(-1.0, 2.0, 7)
        assert g == SupportGrid.from_range(-1.0, 2.0, 7)
        np.testing.assert_array_equal(g.points, np.linspace(-1.0, 2.0, 7))
        assert g.spacing == 3.0 / 6

    @pytest.mark.parametrize("lo, hi, n", [(1.0, 1.0, 5), (2.0, 1.0, 5), (0.0, 1.0, 1),
                                           (-1e308, 1e308, 5),
                                           (np.float64(-1e308), np.float64(1e308), 5)])
    def test_rejects_empty_range(self, lo, hi, n):
        with pytest.raises(ValueError):
            SupportGrid(lo, hi, n)

    def test_trapezoid_weights_sum_to_range(self):
        g = SupportGrid.from_range(2.0, 5.0, 31)
        assert g.trapezoid_weights().sum() == pytest.approx(3.0)


class TestClassificationScores:
    def test_single_class_degenerates_to_density(self):
        g = gmm_with_logdensity_at_zero(-1.0)
        d = ClassConditionalGmm(dim=1, classes=(0,), per_class={0: g})
        prior = uniform_prior_over([0])
        z = np.zeros(1)
        assert epistemic_classification(d, prior, z) == pytest.approx(1.0, abs=1e-12)

    def test_two_class_epistemic_value(self):
        d = ClassConditionalGmm(
            dim=1,
            classes=(0, 1),
            per_class={
                0: gmm_with_logdensity_at_zero(-1.0),
                1: gmm_with_logdensity_at_zero(-2.0),
            },
        )
        prior = uniform_prior_over([0, 1])
        val = epistemic_classification(d, prior, np.zeros(1))
        expected = -math.log(0.5 * (math.exp(-1) + math.exp(-2)))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(1.379885, abs=1e-6)

    def test_two_class_posterior_and_entropy(self):
        d = ClassConditionalGmm(
            dim=1,
            classes=(0, 1),
            per_class={
                0: gmm_with_logdensity_at_zero(-1.0),
                1: gmm_with_logdensity_at_zero(-2.0),
            },
        )
        prior = uniform_prior_over([0, 1])
        ent, post = aleatoric_classification(d, prior, np.zeros(1))
        np.testing.assert_allclose(post, [0.731059, 0.268941], atol=1e-6)
        assert ent == pytest.approx(0.582203, abs=1e-6)

    def test_identical_densities_entropy_is_log_k(self):
        g = gaussian_1d_gmm(0.0, 1.0)
        d = ClassConditionalGmm(
            dim=1, classes=(0, 1, 2, 3), per_class={c: g for c in range(4)}
        )
        prior = uniform_prior_over(range(4))
        ent, post = aleatoric_classification(d, prior, np.array([0.7]))
        assert ent == pytest.approx(math.log(4.0), abs=1e-12)
        np.testing.assert_allclose(post, 0.25, atol=1e-12)

    def test_dominating_class_entropy_underflows(self):
        d = ClassConditionalGmm(
            dim=1,
            classes=(0, 1),
            per_class={
                0: gaussian_1d_gmm(0.0, 1.0),
                1: gaussian_1d_gmm(20.0, 1.0),
            },
        )
        prior = uniform_prior_over([0, 1])
        ent, _ = aleatoric_classification(d, prior, np.zeros(1))
        assert 0.0 <= ent < 1e-20

    def test_missing_class_density(self):
        d = ClassConditionalGmm(
            dim=1, classes=(0,), per_class={0: gaussian_1d_gmm(0.0, 1.0)}
        )
        with pytest.raises(MissingClassDensityError):
            epistemic_classification(d, uniform_prior_over([0, 1]), np.zeros(1))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(2, 6))
            log_dens = rng.normal(scale=3.0, size=(n, k))
            log_prior = np.log(rng.dirichlet(np.ones(k)))
            epi, ent, post = _posterior_scores(log_dens + log_prior)
            joint = np.exp(log_dens) * np.exp(log_prior)
            p_z = joint.sum(axis=1)
            post_ref = joint / p_z[:, None]
            ent_ref = -np.sum(post_ref * np.log(post_ref), axis=1)
            np.testing.assert_allclose(epi, -np.log(p_z), atol=1e-10)
            np.testing.assert_allclose(post, post_ref, atol=1e-10)
            np.testing.assert_allclose(ent, ent_ref, atol=1e-10)

    def test_weighted_matches_brute_force(self):
        # quadrature weights: p(z) = sum w exp(lj), entropy -sum w q log q
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(2, 30))
            log_joint = rng.normal(scale=3.0, size=(n, k))
            w = rng.uniform(0.01, 2.0, size=k)
            epi, ent, post = _posterior_scores(log_joint, w)
            p_z = np.sum(w * np.exp(log_joint), axis=1)
            q = np.exp(log_joint) / p_z[:, None]
            np.testing.assert_allclose(epi, -np.log(p_z), atol=1e-10)
            np.testing.assert_allclose(post, q, rtol=1e-10)
            np.testing.assert_allclose(np.sum(w * post, axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(ent, -np.sum(w * q * np.log(q), axis=1), atol=1e-10)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        log_joint = rng.normal(size=(8, 4))
        shift = 3.7
        epi1, ent1, _ = _posterior_scores(log_joint)
        epi2, ent2, _ = _posterior_scores(log_joint + shift)
        np.testing.assert_allclose(ent1, ent2, atol=1e-12)
        np.testing.assert_allclose(epi2, epi1 - shift, atol=1e-12)

    def test_aleatoric_bounded_by_log_k(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            log_joint = rng.normal(scale=5.0, size=(3, k))
            _, ent, _ = _posterior_scores(log_joint)
            assert np.all(ent >= 0.0)
            assert np.all(ent <= math.log(k) + 1e-12)

    def test_batch_scoring_consistent(self):
        d = ClassConditionalGmm(
            dim=1,
            classes=(0, 1),
            per_class={
                0: gaussian_1d_gmm(-1.0, 1.0),
                1: gaussian_1d_gmm(1.0, 0.5),
            },
        )
        prior = CategoricalPrior(classes=(0, 1), log_probs=np.log([0.3, 0.7]))
        zs = np.linspace(-2, 2, 9)[:, None]
        scores = score_classification(d, prior, zs)
        # a one-row batch takes a matrix-vector product where a batch takes
        # a matrix product, so the views agree to a tolerance only: rows of a
        # 24-D density scored alone have differed by up to 1.1e-13 in the
        # epistemic score
        for i, z in enumerate(zs):
            assert scores.epistemic[i] == pytest.approx(
                epistemic_classification(d, prior, z), abs=1e-12
            )
            ent, _ = aleatoric_classification(d, prior, z)
            assert scores.aleatoric[i] == pytest.approx(ent, abs=1e-12)


class TestRegressionScores:
    def test_condition_free_flow_recovers_density(self):
        from luq.flow import flow_log_prob

        flow = condition_free_flow()
        grid = SupportGrid.from_range(-10.0, 10.0, 1000)
        prior = UniformPrior(-10.0, 10.0)
        for z in [0.0, 0.5, -1.2]:
            val = epistemic_regression(flow, prior, grid, np.array([z]))
            assert val == pytest.approx(
                -flow_log_prob(flow, np.array([z]), np.zeros(1)), abs=1e-6
            )

    def test_gaussian_uniform_analytic_case(self):
        # z | y = N(y, 1), y uniform on [-10, 10], z = 0:
        # p(z) = (Phi(10) - Phi(-10)) / 20, so -log p(z) = log 20
        flow = gaussian_conditional_flow(0.0)
        grid = SupportGrid.from_range(-10.0, 10.0, 1000)
        prior = UniformPrior(-10.0, 10.0)
        val = epistemic_regression(flow, prior, grid, np.zeros(1))
        assert val == pytest.approx(math.log(20.0), abs=1e-4)
        assert val == pytest.approx(2.995732, abs=1e-4)

    def test_doubling_resolution_is_stable(self):
        flow = gaussian_conditional_flow(math.log(2.0))
        prior = UniformPrior(-10.0, 10.0)
        coarse = SupportGrid.from_range(-10.0, 10.0, 1000)
        fine = SupportGrid.from_range(-10.0, 10.0, 1999)
        a = epistemic_regression(flow, prior, coarse, np.array([0.3]))
        b = epistemic_regression(flow, prior, fine, np.array([0.3]))
        assert abs(a - b) < 1e-4

    def test_posterior_integrates_to_one(self):
        flow = gaussian_conditional_flow(math.log(2.0))
        grid = SupportGrid.from_range(-10.0, 10.0, 500)
        prior = UniformPrior(-10.0, 10.0)
        _, post = aleatoric_regression(flow, prior, grid, np.array([0.4]))
        w = grid.trapezoid_weights()
        assert np.sum(w * post.density) == pytest.approx(1.0, abs=1e-6)
        assert np.isfinite(post.log_marginal)

    def test_gaussian_entropy_value(self):
        # wide flat prior: posterior over y is N(z, sigma^2) with
        # sigma = 0.5 -> differential entropy 0.5 log(2 pi e sigma^2)
        flow = gaussian_conditional_flow(math.log(2.0))
        grid = SupportGrid.from_range(-10.0, 10.0, 1000)
        prior = UniformPrior(-10.0, 10.0)
        ent, _ = aleatoric_regression(flow, prior, grid, np.zeros(1))
        expected = 0.5 * math.log(2 * math.pi * math.e * 0.25)
        assert ent == pytest.approx(expected, abs=1e-4)
        assert ent == pytest.approx(0.725791, abs=1e-4)

    def test_sharper_conditional_lowers_entropy(self):
        grid = SupportGrid.from_range(-10.0, 10.0, 1000)
        prior = UniformPrior(-10.0, 10.0)
        ent_wide, _ = aleatoric_regression(
            gaussian_conditional_flow(math.log(2.0)), prior, grid, np.zeros(1)
        )
        ent_narrow, _ = aleatoric_regression(
            gaussian_conditional_flow(math.log(4.0)), prior, grid, np.zeros(1)
        )
        assert ent_narrow < ent_wide

    def test_batch_scoring_matches_single(self):
        flow = gaussian_conditional_flow(math.log(2.0))
        grid = SupportGrid.from_range(-10.0, 10.0, 300)
        prior = UniformPrior(-10.0, 10.0)
        zs = np.array([[0.0], [1.0], [-0.5]])
        scores = score_regression(flow, prior, grid, zs, keep_posteriors=True)
        for i in range(3):  # each row runs through the same flow calls alone
            assert scores.epistemic[i] == epistemic_regression(flow, prior, grid, zs[i])
            ent, post = aleatoric_regression(flow, prior, grid, zs[i])
            assert scores.aleatoric[i] == ent
            np.testing.assert_array_equal(scores.posterior[i], post.density)
            assert post.log_marginal == -scores.epistemic[i]

    @pytest.mark.parametrize("lo, hi", [(20.0, 30.0), (-30.0, -10.5)])
    def test_grid_without_prior_mass_raises(self, lo, hi):
        """Outside the prior's support there is no posterior: a ValueError,
        not an inf epistemic score with a falsely certain 0 entropy."""
        flow = gaussian_conditional_flow(math.log(2.0))
        grid = SupportGrid.from_range(lo, hi, 50)
        prior = UniformPrior(-10.0, 10.0)
        with pytest.raises(ValueError, match="no mass on the support grid"):
            score_regression(flow, prior, grid, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="no mass on the support grid"):
            epistemic_regression(flow, prior, grid, np.zeros(1))
        # one grid point inside the support is enough
        grid = SupportGrid.from_range(10.0, 30.0, 50)
        assert np.all(np.isfinite(score_regression(flow, prior, grid, np.zeros((2, 1))).epistemic))


class TestEndMass:
    """The statistic at the grid's end cells, ``end_ratio``, is the
    posterior density at each grid end over the posterior's peak on the
    grid, counted only at an end inside the prior's support."""

    FLOW = gaussian_conditional_flow(math.log(2.0))  # posterior N(z, 1/4) under a flat prior
    Z = np.array([[0.0], [2.9], [-9.9]])

    @pytest.mark.parametrize("prior, lo, hi, counted", [
        (UniformPrior(-10.0, 10.0), -3.0, 3.0, (True, True)),
        (UniformPrior(-10.0, 10.0), -10.0, 3.0, (False, True)),
        (UniformPrior(-10.0, 10.0), -10.0, 10.0, (False, False)),
        (UniformPrior(-3.0, 2.0), -5.0, 5.0, (False, False)),
        (HistogramPrior(edges=np.array([-2.0, 0.0, 3.0]), log_densities=np.log([0.2, 0.2])),
         -2.0, 2.9, (False, True)),
        (BetaPrimePrior(2.0, 3.0), 0.01, 9.0, (True, True)),
    ])
    def test_end_cells_inside_the_support(self, prior, lo, hi, counted):
        grid = SupportGrid.from_range(lo, hi, 300)
        s = score_regression(self.FLOW, prior, grid, self.Z, keep_posteriors=True)
        want = s.posterior[:, [0, -1]] / s.posterior.max(axis=1, keepdims=True) * counted
        np.testing.assert_array_equal(s.end_ratio, want)

    def test_cut_posterior_piles_on_the_end(self):
        # the posterior of z = 2.9 has its peak 0.1 inside the upper end, so
        # the grid cuts it; where the prior itself ends at 3, nothing is cut
        cut = score_regression(self.FLOW, UniformPrior(-10.0, 10.0),
                               SupportGrid.from_range(-3.0, 3.0, 300), self.Z)
        assert cut.end_ratio[1, 1] > 0.98 and cut.end_ratio[0].max() < 2e-8  # exp(-18)
        whole = score_regression(self.FLOW, UniformPrior(-10.0, 3.0),
                                 SupportGrid.from_range(-3.0, 3.0, 300), self.Z)
        assert whole.end_ratio[1, 1] == 0.0
        np.testing.assert_array_equal(whole.end_ratio[:, 0], cut.end_ratio[:, 0])

    @pytest.mark.parametrize("n", [30, 300, 3000, 30000])
    def test_does_not_shrink_with_the_spacing(self, n):
        # the end cell's mass would fall 1000-fold over these grids; the
        # ratio stays at the density 0.1 and 2 beyond the peak: exp(-0.02)
        # and, for a peak beyond the end, 1
        grid = SupportGrid.from_range(-3.0, 3.0, n)
        s = score_regression(self.FLOW, UniformPrior(-10.0, 10.0), grid,
                             np.array([[2.9], [5.0]]))
        assert 0.98 < s.end_ratio[0, 1] <= 1.0
        assert s.end_ratio[1, 1] == 1.0


def random_flow(dim, n_layers, seed):
    arch = FlowArchitecture(n_layers=n_layers, hidden=(6, 5), cond_hidden=(4,),
                            cond_feat_dim=3)
    flow = build_flow(dim, 1, arch, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in flow.params():
        p += rng.normal(scale=0.5, size=p.shape)
    return flow


# support [-2, 1.5] inside a [-3, 3] grid, so some prior values are -inf
STEP_PRIOR = HistogramPrior(edges=np.array([-2.0, -0.5, 0.0, 1.5]),
                            log_densities=np.log([0.2, 0.6, 0.4 / 1.5]))


class TestSharedConditioning:
    """``score_regression`` conditions the flow on the grid once and runs
    every row against it; it must agree with scoring each row on the
    broadcast grid by a plain ``flow_log_prob`` call and a trapezoid sum."""

    @staticmethod
    def brute_force(flow, prior, grid, z):
        w = grid.trapezoid_weights()
        log_prior = np.array([prior.log_pdf(float(y)) for y in grid.points])
        epi, ent, post = [], [], []
        for row in z:
            lj = flow_log_prob(flow, np.tile(row, (grid.points.size, 1)),
                               grid.points[:, None]) + log_prior
            shift = lj.max()
            log_mass = shift + math.log(np.sum(w * np.exp(lj - shift)))
            q = np.exp(lj - log_mass)
            with np.errstate(divide="ignore", invalid="ignore"):
                ent.append(-np.sum(np.where(q > 0, w * q * np.log(q), 0.0)))
            epi.append(-log_mass)
            post.append(q)
        return np.array(epi), np.array(ent), np.array(post)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("prior", [UniformPrior(-3.0, 3.0), STEP_PRIOR],
                             ids=["uniform", "histogram"])
    def test_matches_per_row_flow_calls(self, dim, n_layers, prior):
        flow = random_flow(dim, n_layers, seed=10 * dim + n_layers)
        grid = SupportGrid.from_range(-3.0, 3.0, 61)
        z = np.random.default_rng(dim).normal(size=(7, dim))
        got = score_regression(flow, prior, grid, z, keep_posteriors=True)
        epi, ent, post = self.brute_force(flow, prior, grid, z)
        np.testing.assert_allclose(got.epistemic, epi, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.aleatoric, ent, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got.posterior, post, rtol=1e-12, atol=1e-12)


def random_class_density(dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    per_class = {}
    for c in range(n_classes):
        comps = []
        for log_w in np.log([0.3, 0.7]):
            a = rng.normal(size=(dim, dim))
            comps.append(GaussianComponent(log_weight=float(log_w),
                                           mean=rng.normal(scale=2.0, size=dim),
                                           cov_chol=cholesky(a @ a.T + np.eye(dim))))
        per_class[c] = Gmm(dim=dim, components=tuple(comps))
    return ClassConditionalGmm(dim=dim, classes=tuple(range(n_classes)),
                               per_class=per_class)


BATCH = np.random.default_rng(21).normal(scale=2.0, size=(9, 3))
REG_FLOW = random_flow(3, 2, seed=5)
REG_GRID = SupportGrid.from_range(-3.0, 3.0, 41)
CLASS_DENSITY = random_class_density(3, 3, seed=6)
CLASS_PRIOR = CategoricalPrior(classes=(0, 1, 2), log_probs=np.log([0.2, 0.3, 0.5]))


def score_both(z):
    reg = score_regression(REG_FLOW, STEP_PRIOR, REG_GRID, z, keep_posteriors=True)
    cls = score_classification(CLASS_DENSITY, CLASS_PRIOR, z)
    return reg, cls


class TestBatchInvariance:
    """Each row's scores depend on that row alone: not on where it sits in
    the batch, nor on which batch it is scored in.  A regression row runs
    through the same flow calls in any batch: the same bits.  A
    classification batch takes its last n mod 8 rows through another BLAS
    micro-kernel, so its scores agree to a tolerance: measured up to 3.3e-16
    over 300 random orders and splits of this batch."""

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(BATCH.shape[0])),
           split=st.integers(0, BATCH.shape[0]))
    def test_row_order_and_batch_split(self, order, split):
        order = np.array(order)
        whole = score_both(BATCH)
        shuffled = score_both(BATCH[order])
        parts = [score_both(BATCH[order[:split]]), score_both(BATCH[order[split:]])]
        close = functools.partial(np.testing.assert_allclose, rtol=0.0, atol=1e-14)
        for k, same in ((0, np.testing.assert_array_equal), (1, close)):
            for field in ("epistemic", "aleatoric", "posterior"):
                want = getattr(whole[k], field)[order]
                same(getattr(shuffled[k], field), want)
                same(np.concatenate([getattr(p[k], field) for p in parts]), want)


class TestZeroDensityRows:
    """A latent so far out that p(z) underflows to 0 has no posterior: both
    heads score it epistemic +inf, aleatoric NaN and a NaN posterior, with
    no warning, and score the other rows of the batch as they would alone."""

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 1e307, 1.7e308])
    def test_both_heads(self, scale):
        far = np.full((2, 3), scale) * np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = score_both(np.vstack([BATCH[:2], far]))
        for s, alone in zip(got, score_both(BATCH[:2])):
            np.testing.assert_array_equal(s.epistemic[2:], np.inf)
            assert np.isnan(s.aleatoric[2:]).all() and np.isnan(s.posterior[2:]).all()
            np.testing.assert_array_equal(s.epistemic[:2], alone.epistemic)
            np.testing.assert_array_equal(s.aleatoric[:2], alone.aleatoric)
            np.testing.assert_array_equal(s.posterior[:2], alone.posterior)

    def test_density_kernels_give_minus_inf(self):
        z = np.full((1, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in CLASS_DENSITY.classes:
                assert gmm_log_prob(CLASS_DENSITY.per_class[c], z)[0] == -np.inf
            for scale in (1e200, 1.7e308):
                lp = flow_log_prob(REG_FLOW, np.full((3, 3), scale), np.zeros((3, 1)))
                np.testing.assert_array_equal(lp, -np.inf)

    def test_nan_latent_stays_nan_in_flow(self):
        z = np.array([[np.nan, 0.0, 0.0], [1.7e308, 1.7e308, 1.7e308]])
        lp = flow_log_prob(REG_FLOW, z, np.zeros((2, 1)))
        assert np.isnan(lp[0]) and lp[1] == -np.inf


def one_pass_scores(z):
    """The classification scores from one kernel pass per class over the
    whole batch, as ``score_classification`` computed them before it split
    the rows into blocks."""
    log_joint = np.stack([gmm_log_prob(CLASS_DENSITY.per_class[c], z) + CLASS_PRIOR.log_probs[i]
                          for i, c in enumerate(CLASS_PRIOR.classes)], axis=1)
    return _posterior_scores(log_joint)


class TestScoringWorkers:
    """``score_classification`` fills its log-joint in (class, row block)
    tasks on the worker pool: its scores are the same bits on any number of
    workers, and the same as one kernel pass per class over the batch."""

    @pytest.mark.parametrize("n, far", [
        (1, None), (BLOCK - 1, None), (BLOCK, None), (BLOCK + 1, None),
        (2 * BLOCK + BLOCK // 2, None), (3 * BLOCK + 7, None),
        (1, 0), (2 * BLOCK + 5, BLOCK),  # a row whose p(z) underflows to 0
    ])
    def test_same_bits_on_any_worker_count(self, workers, n, far):
        z = np.random.default_rng(n).normal(scale=2.0, size=(n, 3))
        if far is not None:
            z[far] = 1e200
        want = one_pass_scores(z)
        for count in (1, 2, 3):
            workers(count)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = score_classification(CLASS_DENSITY, CLASS_PRIOR, z)
            for field, ref in zip(("epistemic", "aleatoric", "posterior"), want):
                np.testing.assert_array_equal(getattr(got, field), ref)  # NaN matches NaN
            if far is not None:
                assert got.epistemic[far] == np.inf and np.isnan(got.aleatoric[far])
                assert np.isnan(got.posterior[far]).all()

    @pytest.mark.parametrize("prior, z, error", [
        (CLASS_PRIOR, np.zeros((4, 4)), DimMismatchError),
        (CategoricalPrior(classes=(0, 1, 2, 3), log_probs=np.log([0.1, 0.2, 0.3, 0.4])),
         np.zeros((4, 3)), MissingClassDensityError),
    ])
    def test_bad_input_raises_before_any_task(self, workers, monkeypatch, prior, z, error):
        workers(2)

        def no_pool(tasks):
            raise AssertionError("a scoring task was submitted")

        monkeypatch.setattr(engine, "worker_pool", no_pool)
        with pytest.raises(error) as info:
            score_classification(CLASS_DENSITY, prior, z)
        assert info.type is error


def chunked_regression_scores(z, grid):
    """The regression scores of ``z`` row by row in the calling thread, each
    row run against the flow conditioned on each ``GRID_CHUNK`` block of the
    grid (``linalg.row_blocks``), one chunk after the other."""
    chunks = [flow_condition(REG_FLOW, grid.points[lo:hi, None])
              for lo, hi in row_blocks(grid.n, GRID_CHUNK)]
    log_prior = STEP_PRIOR.log_pdf(grid.points)
    log_joint = np.array([np.concatenate([flow_log_prob(REG_FLOW, row[None, :], c)
                                          for c in chunks]) for row in z])
    return _posterior_scores(log_joint + log_prior, grid.trapezoid_weights())


class TestRegressionWorkers:
    """``score_regression`` scores blocks of ``REGRESSION_BLOCK`` rows on the
    worker pool against the grid conditioned in ``GRID_CHUNK`` chunks: the
    same bits on any number of workers, and the same as scoring each row
    alone against those chunks, a chunk tail under half a chunk included."""

    @pytest.mark.parametrize("grid_n", [41, 2 * GRID_CHUNK + GRID_CHUNK // 2 - 1,
                                        2 * GRID_CHUNK + GRID_CHUNK // 2])
    @pytest.mark.parametrize("n, far", [
        (1, None), (REGRESSION_BLOCK + 1, None), (3 * REGRESSION_BLOCK + 5, 2 * REGRESSION_BLOCK),
    ])
    def test_same_bits_on_any_worker_count(self, workers, grid_n, n, far):
        grid = SupportGrid.from_range(-3.0, 3.0, grid_n)
        z = np.random.default_rng(n + grid_n).normal(size=(n, 3))
        if far is not None:
            z[far] = 1e200  # p(z) underflows to 0
        want = chunked_regression_scores(z, grid)
        for count in (1, 2, 3):
            workers(count)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = score_regression(REG_FLOW, STEP_PRIOR, grid, z, keep_posteriors=True)
            for field, ref in zip(("epistemic", "aleatoric", "posterior"), want):
                np.testing.assert_array_equal(getattr(got, field), ref)  # NaN matches NaN

    def test_many_workers_switching_fast(self, workers):
        # more workers than CPUs, switching threads every microsecond: each
        # task returns its own rows, and the calling thread joins them in order
        grid = SupportGrid.from_range(-3.0, 3.0, 300)
        z = np.random.default_rng(7).normal(size=(8 * REGRESSION_BLOCK + 3, 3))
        want = chunked_regression_scores(z, grid)
        workers(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = score_regression(REG_FLOW, STEP_PRIOR, grid, z, keep_posteriors=True)
        finally:
            sys.setswitchinterval(interval)
        for field, ref in zip(("epistemic", "aleatoric", "posterior"), want):
            np.testing.assert_array_equal(getattr(got, field), ref)


class TestFarLatentPosterior:
    """A latent far from the data has a log-joint too large in size to hold
    log(weight) in its last bits; its posterior must still integrate to 1."""

    FLOW = gaussian_conditional_flow(0.0)  # p(z | y) = N(y, 1)
    GRID = SupportGrid.from_range(-10.0, 10.0, 200)
    PRIOR = UniformPrior(-10.0, 10.0)

    def test_integrates_to_one(self):
        z = 10.0 ** np.arange(1, 301, dtype=float)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = score_regression(self.FLOW, self.PRIOR, self.GRID, z, keep_posteriors=True)
        mass = s.posterior @ self.GRID.trapezoid_weights()
        finite = np.isfinite(s.epistemic)
        # (z - y)^2 overflows from 1e155 on: p(z) = 0, no posterior
        np.testing.assert_array_equal(finite, z[:, 0] < 1e155)
        np.testing.assert_allclose(mass[finite], 1.0, rtol=0.0, atol=1e-12)
        assert np.isnan(mass[~finite]).all()

    def test_mass_on_the_nearest_end_point(self):
        # at 1e12 the nearest grid point, y = 10, takes all the mass; it
        # carries half a trapezoid weight, so the entropy is log(w / 2)
        s = score_regression(self.FLOW, self.PRIOR, self.GRID, np.array([[1e12]]),
                             keep_posteriors=True)
        assert s.aleatoric[0] == pytest.approx(math.log(self.GRID.spacing / 2), abs=1e-12)
        assert s.posterior[0, -1] == pytest.approx(2 / self.GRID.spacing, rel=1e-12)


def normal_posterior_on(grid):
    dens = np.exp(-0.5 * grid.points**2) / math.sqrt(2 * math.pi)
    w = grid.trapezoid_weights()
    dens = dens / np.sum(w * dens)
    return RegressionPosterior(grid=grid, density=dens, log_marginal=0.0)


def walked_region(post, prediction, mass):
    """Reference for ``confidence_region``: the outward walk, one grid point
    at a time, right first, then alternating, then the longer side."""
    pts = post.grid.points
    pm = post.grid.trapezoid_weights() * post.density
    if pm.sum() < mass - 1e-12:
        raise MassUnreachableError(f"grid holds {pm.sum():.6f} probability, target is {mass}")
    left = right = int(np.argmin(np.abs(pts - prediction)))
    acc = pm[left]
    go_right = True
    while acc < mass - 1e-12:
        if right + 1 < pts.size and (go_right or left == 0):
            right += 1
            acc += pm[right]
        elif left > 0:
            left -= 1
            acc += pm[left]
        else:
            raise MassUnreachableError("both grid ends reached before the target mass")
        go_right = not go_right
    return ConfidenceRegion(lower=float(min(pts[left], prediction)),
                            upper=float(max(pts[right], prediction)))


class TestConfidenceRegion:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), g=st.integers(2, 40))
    def test_matches_the_outward_walk(self, data, g):
        grid = SupportGrid.from_range(-1.0, 1.0, g)
        dens = data.draw(hnp.arrays(np.float64, g, elements=st.floats(0.0, 10.0)))
        total = np.sum(grid.trapezoid_weights() * dens)
        if total > 0:
            dens = dens / total * data.draw(st.sampled_from([1.0, 0.5]))
        post = RegressionPosterior(grid=grid, density=dens, log_marginal=0.0)
        prediction = data.draw(st.one_of(st.sampled_from(grid.points.tolist()),
                                          st.floats(-1.0, 1.0)))
        mass = data.draw(st.one_of(st.floats(0.01, 0.99), st.just(1.0 - 1e-13)))
        try:
            expected = walked_region(post, prediction, mass)
        except MassUnreachableError:
            with pytest.raises(MassUnreachableError):
                confidence_region(post, prediction, mass)
        else:
            assert confidence_region(post, prediction, mass) == expected

    def test_visit_order_is_the_interleaved_construction(self):
        def interleaved(size, i0):  # the construction the sort key replaced
            near = min(i0, size - 1 - i0)  # steps to the nearer grid end
            steps = np.arange(1, near + 1)
            return np.concatenate([[i0], np.column_stack([i0 + steps, i0 - steps]).ravel(),
                                   np.arange(i0 + near + 1, size),
                                   np.arange(i0 - near - 1, -1, -1)])

        for size in [*range(1, 60), 1000, 3201]:
            for i0 in range(size):
                assert np.array_equal(_visit_order(size, i0), interleaved(size, i0))

    def test_standard_normal_20_percent(self):
        grid = SupportGrid.from_range(-8.0, 8.0, 3201)
        post = normal_posterior_on(grid)
        region = confidence_region(post, 0.0, 0.2)
        # Phi^-1(0.6) = 0.2533
        assert region.lower == pytest.approx(-0.2533, abs=grid.spacing)
        assert region.upper == pytest.approx(0.2533, abs=grid.spacing)

    def test_mass_near_one_spans_grid(self):
        # on [-3, 3] every grid point carries >> 1e-9 of the renormalized
        # mass, so reaching 1 - 1e-9 requires the whole grid
        grid = SupportGrid.from_range(-3.0, 3.0, 601)
        post = normal_posterior_on(grid)
        region = confidence_region(post, 0.0, 1.0 - 1e-9)
        assert region.lower == grid.points[0]
        assert region.upper == grid.points[-1]

    def test_uniform_posterior_half_mass(self):
        grid = SupportGrid.from_range(0.0, 1.0, 2001)
        dens = np.ones(grid.points.size)
        dens /= np.sum(grid.trapezoid_weights() * dens)
        post = RegressionPosterior(grid=grid, density=dens, log_marginal=0.0)
        region = confidence_region(post, 0.5, 0.5)
        assert region.lower == pytest.approx(0.25, abs=1.01 * grid.spacing)
        assert region.upper == pytest.approx(0.75, abs=1.01 * grid.spacing)

    def test_bounds_bracket_prediction(self):
        grid = SupportGrid.from_range(-8.0, 8.0, 801)
        post = normal_posterior_on(grid)
        for pred in [-2.0, 0.0, 3.5]:
            region = confidence_region(post, pred, 0.3)
            assert region.lower <= pred <= region.upper

    def test_unreachable_mass(self):
        grid = SupportGrid.from_range(-1.0, 1.0, 101)
        dens = np.full(101, 0.05)  # integrates to 0.1
        post = RegressionPosterior(grid=grid, density=dens, log_marginal=0.0)
        with pytest.raises(MassUnreachableError):
            confidence_region(post, 0.0, 0.9)

    def test_prediction_outside_grid(self):
        grid = SupportGrid.from_range(-1.0, 1.0, 11)
        post = RegressionPosterior(
            grid=grid, density=np.full(11, 0.5), log_marginal=0.0
        )
        with pytest.raises(ValueError):
            confidence_region(post, 5.0, 0.2)


class TestDataProcessingSanity:
    def test_deterministic_maps_never_increase_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k))
            f = rng.integers(0, k, size=k)  # arbitrary deterministic map
            q = np.zeros(k)
            np.add.at(q, f, p)
            assert discrete_entropy(q) <= discrete_entropy(p) + 1e-12
