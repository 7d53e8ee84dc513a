import math
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from luq import gmm
from luq.errors import (
    ClassTooSmallError,
    DegenerateComponentError,
    DimMismatchError,
    NotPositiveDefiniteError,
    TooFewSamplesError,
)
from luq.gmm import (
    FULL_COVARIANCE,
    TIED_COVARIANCE,
    ClassConditionalGmm,
    EmOptions,
    GaussianComponent,
    Gmm,
    _kmeanspp_means,
    em_fit,
    fit_class_conditional,
    gmm_log_prob,
)
from luq.linalg import LOG_2PI, CholeskyFactor, cholesky, row_blocks
from luq.priors import fit_categorical


# the ids say what each mode fits: a covariance per component, or one tied across them
COVARIANCE_MODES = [pytest.param(FULL_COVARIANCE, id="full_per_component"),
                    pytest.param(TIED_COVARIANCE, id="tied_across_components")]


def make_gaussian(mean, cov, log_weight=0.0):
    mean = np.asarray(mean, dtype=float)
    return GaussianComponent(
        log_weight=log_weight, mean=mean, cov_chol=cholesky(np.asarray(cov, dtype=float))
    )


def std_normal_gmm(dim):
    return Gmm(dim=dim, components=(make_gaussian(np.zeros(dim), np.eye(dim)),))


class TestGmmLogProb:
    def test_standard_normal_at_origin(self):
        g = std_normal_gmm(2)
        assert gmm_log_prob(g, np.zeros(2)) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12
        )
        assert gmm_log_prob(g, np.zeros(2)) == pytest.approx(-1.837877, abs=1e-6)

    def test_symmetric_1d_mixture_at_zero(self):
        # 0.5 N(-1,1) + 0.5 N(+1,1) at 0: log phi(1) = -0.5 log(2 pi) - 0.5
        g = Gmm(
            dim=1,
            components=(
                make_gaussian([-1.0], [[1.0]], math.log(0.5)),
                make_gaussian([1.0], [[1.0]], math.log(0.5)),
            ),
        )
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert gmm_log_prob(g, np.zeros(1)) == pytest.approx(expected, abs=1e-12)
        assert gmm_log_prob(g, np.zeros(1)) == pytest.approx(-1.418939, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        mean = rng.normal(size=3)
        z = rng.normal(size=3)
        offset = rng.normal(size=3) * 10
        g0 = Gmm(dim=3, components=(make_gaussian(mean, cov),))
        g1 = Gmm(dim=3, components=(make_gaussian(mean + offset, cov),))
        assert gmm_log_prob(g1, z + offset) == pytest.approx(
            gmm_log_prob(g0, z), abs=1e-10
        )

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        g = Gmm(
            dim=2,
            components=(
                make_gaussian([0.0, 0.0], np.eye(2), math.log(0.3)),
                make_gaussian([2.0, -1.0], [[2.0, 0.3], [0.3, 0.5]], math.log(0.7)),
            ),
        )
        zs = rng.normal(size=(20, 2))
        batch = gmm_log_prob(g, zs)
        for i, z in enumerate(zs):
            assert batch[i] == pytest.approx(gmm_log_prob(g, z), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            gmm_log_prob(std_normal_gmm(2), np.zeros(3))

    def test_matches_scipy_multivariate_normal(self):
        # independent implementation of the Gaussian log density
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + d * np.eye(d)
            mean = rng.normal(size=d)
            weights = rng.dirichlet(np.ones(2))
            cov2 = cov + np.diag(rng.uniform(0.5, 2.0, size=d))
            mean2 = rng.normal(size=d)
            g = Gmm(
                dim=d,
                components=(
                    make_gaussian(mean, cov, np.log(weights[0])),
                    make_gaussian(mean2, cov2, np.log(weights[1])),
                ),
            )
            z = rng.normal(size=d)
            ref = np.log(
                weights[0] * multivariate_normal.pdf(z, mean, cov)
                + weights[1] * multivariate_normal.pdf(z, mean2, cov2)
            )
            assert gmm_log_prob(g, z) == pytest.approx(ref, abs=1e-10)


def reference_log_prob(g, z):
    """Mixture log density by a plain loop over the components, with one
    triangular system solved per component."""
    cols = []
    for c in g.components:
        lower = c.cov_chol.lower
        sol = np.linalg.solve(lower, (z - c.mean).T)
        log_det = 2.0 * np.sum(np.log(np.diag(lower)))
        quad = np.sum(sol * sol, axis=0)
        cols.append(c.log_weight - 0.5 * (g.dim * math.log(2 * math.pi) + log_det + quad))
    return np.logaddexp.reduce(np.stack(cols, axis=1), axis=1)


def correlated_data(rng, n, d):
    return rng.normal(size=(n, d)) @ (np.eye(d) + 0.5 * rng.normal(size=(d, d))) + 2.0


class TestStackedKernel:
    """``gmm_log_prob`` and EM's E-step run every component through one
    stacked kernel; both must agree with the per-component reference."""

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    @pytest.mark.parametrize("k, d", [(1, 1), (1, 4), (3, 1), (4, 3)])
    def test_matches_per_component_solve(self, mode, k, d):
        rng = np.random.default_rng(10 * k + d)
        x = correlated_data(rng, 300, d)
        g = em_fit(x, EmOptions(n_components=k, covariance_mode=mode, seed=k))
        z = np.vstack([x[:50], rng.normal(scale=3.0, size=(50, d))])
        np.testing.assert_allclose(gmm_log_prob(g, z), reference_log_prob(g, z),
                                   rtol=0.0, atol=1e-12)
        # the E-step's mean log-likelihood under the final parameters
        assert g.em_log[-1] == pytest.approx(np.mean(reference_log_prob(g, x)), abs=1e-12)

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_large_batch(self, mode):
        rng = np.random.default_rng(13)
        x = correlated_data(rng, 20_400, 6)
        g = em_fit(x[:400], EmOptions(n_components=5, covariance_mode=mode, seed=0))
        z = x[400:]
        np.testing.assert_allclose(gmm_log_prob(g, z), reference_log_prob(g, z),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_rank_deficient_without_ridge_raises(self, mode):
        # the second coordinate is always 0: every scatter is singular
        x = np.column_stack([np.random.default_rng(14).normal(size=40), np.zeros(40)])
        with pytest.raises(NotPositiveDefiniteError):
            em_fit(x, EmOptions(n_components=2, cov_reg=0.0, covariance_mode=mode))
        assert np.isfinite(em_fit(x, EmOptions(n_components=2, covariance_mode=mode)).em_log[-1])


class TestFoldAccuracy:
    """The kernel whitens x - mu_j as L_j^-1 (x - c) - L_j^-1 (mu_j - c),
    c the mean of the means, so its error grows with the distance
    D = ||L_j^-1 (mu_j - c)||.  A narrow component far from c is where the
    fold is weakest; the triangular-solve reference has no such term."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("distance", [1e3, 1e4])
    def test_narrow_component_far_from_the_centre(self, distance, seed):
        rng = np.random.default_rng(seed)
        d = 3
        a = rng.normal(size=(d, d))
        wide = np.linalg.cholesky(a @ a.T + np.eye(d))
        offset = rng.normal(scale=3.0, size=d)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        means = np.array([offset - u, offset + u])  # the centre c is ``offset``
        narrow = wide / (distance / np.linalg.norm(np.linalg.solve(wide, u)))
        g = Gmm(dim=d, components=tuple(
            GaussianComponent(math.log(0.5), m, CholeskyFactor(d, lo))
            for m, lo in zip(means, (narrow, wide))))
        dist = max(np.linalg.norm(np.linalg.solve(lo, m - offset))
                   for m, lo in zip(means, (narrow, wide)))
        assert dist == pytest.approx(distance)
        # rows drawn from each component, and rows far out from both
        z = np.vstack([m + rng.normal(size=(50, d)) @ lo.T
                       for m, lo in zip(means, (narrow, wide))]
                      + [offset + rng.normal(scale=50.0, size=(50, d))])
        # each whitened residual is good to a few units in the last place of
        # D, so the log density to about ||residual|| * eps * D
        tol = d * np.finfo(float).eps * dist
        np.testing.assert_allclose(gmm_log_prob(g, z), reference_log_prob(g, z),
                                   rtol=tol, atol=tol)


def looped_log_joint(xt, log_w, means, lowers):
    """``gmm._log_joint`` as a loop over the components, one block of
    ``gmm.CHUNK`` rows (``linalg.row_blocks``) at a time: the block is
    centred at the mean of the means, given a row of ones, and multiplied by
    each inverse factor with its mean's whitened offset as a last column."""
    k, d = means.shape
    inv = np.linalg.inv(lowers)
    centre = np.mean(means, axis=0)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(lowers, axis1=1, axis2=2)), axis=1)
    out = np.empty((k, xt.shape[1]))
    for lo, hi in row_blocks(xt.shape[1], gmm.CHUNK):
        block = np.vstack([xt[:, lo:hi] - centre[:, None], np.ones((1, hi - lo))])
        for j in range(k):
            folded = np.column_stack([inv[j], -(inv[j] @ (means[j] - centre))])
            sol = folded @ block
            out[j, lo:hi] = log_w[j] - 0.5 * (d * LOG_2PI + log_dets[j]
                                              + np.sum(sol * sol, axis=0))
    return out


def random_stacks(rng, k, d, tied):
    a = rng.normal(size=(1 if tied else k, d, d))
    lowers = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + np.eye(d))
    return (np.log(rng.dirichlet(np.ones(k))), rng.normal(scale=2.0, size=(k, d)),
            np.repeat(lowers, k, axis=0) if tied else lowers)


class TestKernelBits:
    """The stacked kernel runs each component's product and sums as a loop
    over the components would on the same row blocks, bit for bit, and
    holds its stack to (k, d, CHUNK) arrays."""

    @pytest.mark.parametrize("tied", [False, True], ids=["full", "tied"])
    @pytest.mark.parametrize("k, d", [(10, 24), (1, 1), (3, 5)])
    @pytest.mark.parametrize("n", [800, 3616, 4096, 4097, 4099])
    def test_same_bits_as_a_component_loop(self, n, k, d, tied):
        rng = np.random.default_rng(n + k + d)
        log_w, means, lowers = random_stacks(rng, k, d, tied)
        xt = np.ascontiguousarray(rng.normal(scale=3.0, size=(n, d)).T)
        np.testing.assert_array_equal(gmm._log_joint(xt, log_w, means, lowers),
                                      looped_log_joint(xt, log_w, means, lowers))

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # a unit is one (k, d, 384) array, 384 being gmm.CHUNK; the peak
        # measured 4.7 units: the (d, n) copy of the rows and the (k, n)
        # log-joints with their log-sum-exp take most of it; one unchunked
        # (k, d, 4096) pass measured 23 units, chunks of 1024 rows 9.8
        rng = np.random.default_rng(15)
        k, d = 10, 24
        log_w, means, lowers = random_stacks(rng, k, d, False)
        g = Gmm(dim=d, components=tuple(
            GaussianComponent(float(w), m, CholeskyFactor(d, lo))
            for w, m, lo in zip(log_w, means, lowers)))
        z = rng.normal(size=(4096, d))
        gmm_log_prob(g, z)
        tracemalloc.start()
        try:
            gmm_log_prob(g, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * d * 384 * 8

    def test_em_peak_memory_is_bounded_by_the_chunk(self):
        # the M-step's scatters sum (k, d, CHUNK) residual blocks; the peak
        # measured 5.5 blocks, and one (k, d, n) stack would be 10.7 alone
        rng = np.random.default_rng(16)
        k, d = 10, 24
        x = correlated_data(rng, 4096, d)
        opts = EmOptions(n_components=k, max_iter=3)
        em_fit(x, opts)
        tracemalloc.start()
        try:
            em_fit(x, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * d * gmm.CHUNK * 8

    @staticmethod
    def peak_units(run, k, d):
        """``run``'s second call's peak traced memory in (k, d, CHUNK) arrays."""
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (k * d * gmm.CHUNK * 8)
        finally:
            tracemalloc.stop()

    def test_kernel_pass_holds_one_product(self):
        # 2.9 units measured; a pass that keeps the last block's product
        # while it makes the next one measured 3.9
        rng = np.random.default_rng(15)
        k, d = 10, 24
        log_w, means, lowers = random_stacks(rng, k, d, False)
        g = Gmm(dim=d, components=tuple(
            GaussianComponent(float(w), m, CholeskyFactor(d, lo))
            for w, m, lo in zip(log_w, means, lowers)))
        z = rng.normal(size=(4096, d))
        assert self.peak_units(lambda: gmm_log_prob(g, z), k, d) <= 3.4

    def test_em_pass_holds_one_residual_block(self):
        # 4.0 units measured; keeping the kernel's last product measured
        # 5.5, keeping the M-step's last residual block 4.6
        k, d = 10, 24
        x = correlated_data(np.random.default_rng(16), 4096, d)
        opts = EmOptions(n_components=k, max_iter=3)
        assert self.peak_units(lambda: em_fit(x, opts), k, d) <= 4.3


def reference_em(x, opts):
    """EM on rows stored (n, d): per component, one solve of the triangular
    system in the E-step and one two-pass scatter (mean first, then the
    weighted residual products) in the M-step, with em_fit's seeding, ridge,
    tied running sum, stopping rule (never on the step after a re-seed) and
    re-seeding of dead components.
    Returns (em_log, log-weights, means, lower factors)."""
    n, d = x.shape
    k = opts.n_components
    eye = np.eye(d)

    def factor(scatter, reg):
        return np.linalg.cholesky(0.5 * (scatter + scatter.T) + reg * eye)

    means = _kmeanspp_means(x, k, np.random.default_rng(opts.seed))
    init = factor(np.cov(x, rowvar=False).reshape(d, d) if n > 1 else np.zeros((d, d)),
                  max(opts.cov_reg, 1e-12))
    lowers = [init] * k
    log_w = np.full(k, -np.log(k))
    history, recoveries, dead = [], [0] * k, []
    for it in range(opts.max_iter + 1):
        joint = np.empty((n, k))
        for j in range(k):
            sol = np.linalg.solve(lowers[j], (x - means[j]).T)
            log_det = 2.0 * np.sum(np.log(np.diag(lowers[j])))
            joint[:, j] = log_w[j] - 0.5 * (d * math.log(2 * math.pi) + log_det
                                            + np.sum(sol * sol, axis=0))
        row_ll = np.logaddexp.reduce(joint, axis=1)
        history.append(float(np.mean(row_ll)))
        if it == opts.max_iter or (it > 0 and not dead and history[-1] - history[-2]
                                   < opts.tol * abs(history[-2])):
            break
        resp = np.exp(joint - row_ll[:, None])
        mass = resp.sum(axis=0)
        dead = [j for j in range(k) if mass[j] < 1e-10]
        for j in dead:
            recoveries[j] += 1
            means[j] = x[int(np.argmin(row_ll))]
            lowers[j] = init
        if dead:
            log_w = np.full(k, -np.log(k))
            continue
        means = np.array([resp[:, j] @ x / mass[j] for j in range(k)])
        scatters = [(x - means[j]).T @ ((x - means[j]) * resp[:, j:j + 1]) for j in range(k)]
        if opts.covariance_mode == TIED_COVARIANCE:
            total = scatters[0]
            for s in scatters[1:]:
                total = total + s
            scatters = [total / n] * k
        else:
            scatters = [s / m for s, m in zip(scatters, mass)]
        lowers = [factor(s, opts.cov_reg) for s in scatters]
        log_w = np.log(mass / n)
    assert max(recoveries) <= 2
    return history, log_w, means, np.array(lowers)


class TestRowMajorReference:
    """EM and scoring store rows feature-major; neither the layout nor the
    summation order it brings may change a fit beyond rounding."""

    @pytest.mark.parametrize("case", range(40))
    def test_em_matches_reference(self, case):
        rng = np.random.default_rng(500 + case)
        d, k = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x = correlated_data(rng, int(rng.integers(max(k, 10), 150)), d)
        if case % 4 == 3:  # a third of the rows twice more
            x = np.vstack([x, x[:len(x) // 3], x[:len(x) // 3]])
        mode = (FULL_COVARIANCE, TIED_COVARIANCE)[case % 2]
        opts = EmOptions(n_components=k, covariance_mode=mode, seed=case)
        g = em_fit(x, opts)
        history, log_w, means, lowers = reference_em(x, opts)
        assert len(g.em_log) == len(history)
        close = dict(rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(g.em_log, history, **close)
        np.testing.assert_allclose([c.log_weight for c in g.components], log_w, **close)
        np.testing.assert_allclose([c.mean for c in g.components], means, **close)
        np.testing.assert_allclose([c.cov_chol.lower for c in g.components], lowers, **close)

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    @pytest.mark.parametrize("n", [gmm.CHUNK - 1, gmm.CHUNK + gmm.CHUNK // 2 - 1,
                                   3 * gmm.CHUNK + 7],
                             ids=["short_block", "tail_joins_one_block", "tail_joins_third_block"])
    def test_one_step_across_block_edges(self, n, mode):
        # the M-step sums its scatters block by block; one step, so that no
        # stopping decision can hide a block that was dropped or counted twice
        x = correlated_data(np.random.default_rng(n), n, 5)
        opts = EmOptions(n_components=4, max_iter=1, covariance_mode=mode, seed=1)
        g = em_fit(x, opts)
        history, log_w, means, lowers = reference_em(x, opts)
        close = dict(rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(g.em_log, history, **close)
        np.testing.assert_allclose([c.log_weight for c in g.components], log_w, **close)
        np.testing.assert_allclose([c.mean for c in g.components], means, **close)
        np.testing.assert_allclose([c.cov_chol.lower for c in g.components], lowers, **close)

    def test_scoring_ignores_input_layout(self):
        rng = np.random.default_rng(15)
        x = correlated_data(rng, 200, 5)
        g = em_fit(x, EmOptions(n_components=3, seed=0))
        z = rng.normal(scale=3.0, size=(60, 5))
        batch = gmm_log_prob(g, z)
        np.testing.assert_array_equal(gmm_log_prob(g, np.asfortranarray(z)), batch)
        wide = np.repeat(z, 2, axis=1)
        np.testing.assert_array_equal(gmm_log_prob(g, wide[::-1, ::2])[::-1], batch)
        np.testing.assert_array_equal(gmm_log_prob(g, z[7:40:3]), batch[7:40:3])
        # a single vector is a one-row batch; BLAS and numpy's reductions may
        # order a one-column sum differently, so the full batch agrees to rounding
        for i in (0, 31):
            assert gmm_log_prob(g, z[i]) == gmm_log_prob(g, z[i:i + 1])[0]
            assert gmm_log_prob(g, z[i]) == pytest.approx(batch[i], rel=1e-13, abs=1e-13)


class TestEmFit:
    def test_single_point_single_component(self):
        x = np.array([[1.5, -2.0]])
        g = em_fit(x, EmOptions(n_components=1, cov_reg=1e-4))
        np.testing.assert_allclose(g.components[0].mean, [1.5, -2.0], atol=1e-12)
        cov = g.components[0].cov_chol.reconstruct()
        np.testing.assert_allclose(cov, 1e-4 * np.eye(2), atol=1e-12)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(2)
        a = rng.normal(loc=-10.0, scale=1.0, size=(150, 1))
        b = rng.normal(loc=10.0, scale=1.0, size=(150, 1))
        x = np.vstack([a, b])
        g = em_fit(x, EmOptions(n_components=2, seed=0))
        means = sorted(float(c.mean[0]) for c in g.components)
        assert means[0] == pytest.approx(a.mean(), abs=0.1)
        assert means[1] == pytest.approx(b.mean(), abs=0.1)

    def test_component_per_row_with_regularization(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        g = em_fit(x, EmOptions(n_components=6, cov_reg=1e-3, seed=1))
        assert np.isfinite(g.em_log[-1])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            em_fit(np.zeros((2, 1)), EmOptions(n_components=3))

    @pytest.mark.parametrize("k", [2, 3])
    def test_dead_component_is_reseeded(self, monkeypatch, k):
        # a mean seeded far from both blobs gets no responsibility mass; EM
        # must move it onto the data and finish, not divide by that mass
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(200, 2)) + 5.0, rng.normal(size=(200, 2)) - 5.0])
        seed_means = gmm._kmeanspp_means

        def one_far_mean(x, k, rng):
            means = seed_means(x, k, rng)
            means[0] = 1e4
            return means

        monkeypatch.setattr(gmm, "_kmeanspp_means", one_far_mean)
        opts = EmOptions(n_components=k, seed=1)
        g = em_fit(x, opts)
        assert len(g.em_log) - 1 < opts.max_iter
        assert np.abs(g.components[0].mean).max() < 10.0
        assert all(np.exp(c.log_weight) > 0.0 for c in g.components)

    def test_reseed_step_is_not_convergence(self, monkeypatch):
        # component 0 never gets mass: the step after each re-seed repeats
        # the likelihood exactly, which must not read as convergence; the
        # third re-seed of the same component ends the fit
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(200, 2)) + 5.0, rng.normal(size=(200, 2)) - 5.0])
        log_joint = gmm._log_joint
        calls = []

        def starve_component_0(*args):
            joint = log_joint(*args)
            joint[0] = -np.inf
            calls.append(None)
            return joint

        monkeypatch.setattr(gmm, "_log_joint", starve_component_0)
        with pytest.raises(DegenerateComponentError, match="component 0"):
            em_fit(x, EmOptions(n_components=2, seed=1))
        assert len(calls) == 3

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(20, 200))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d)) + rng.normal(scale=3.0, size=(1, d))
            g = em_fit(x, EmOptions(n_components=k, seed=trial))
            diffs = np.diff(g.em_log)
            assert np.all(diffs >= -1e-8), f"trial {trial}: {diffs.min()}"

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 3))
        opts = EmOptions(n_components=3, seed=42)
        g1 = em_fit(x, opts)
        g2 = em_fit(x.copy(), opts)
        for c1, c2 in zip(g1.components, g2.components):
            assert c1.log_weight == c2.log_weight
            np.testing.assert_array_equal(c1.mean, c2.mean)
            np.testing.assert_array_equal(c1.cov_chol.lower, c2.cov_chol.lower)

    def test_tied_covariances_shared(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 2))
        g = em_fit(x, EmOptions(n_components=3, covariance_mode=TIED_COVARIANCE, seed=0))
        ref = g.components[0].cov_chol.lower
        for c in g.components[1:]:
            np.testing.assert_array_equal(c.cov_chol.lower, ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_density_integrates_to_one(self, dim):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, dim)) * 1.5 + 0.3
        g = em_fit(x, EmOptions(n_components=2, seed=0))
        if dim == 1:
            grid = np.linspace(-18.0, 18.0, 4001)
            dens = np.exp(gmm_log_prob(g, grid[:, None]))
            mass = np.trapezoid(dens, grid)
        else:
            grid = np.linspace(-18.0, 18.0, 501)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            dens = np.exp(gmm_log_prob(g, pts)).reshape(xx.shape)
            mass = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)


class TestFitClassConditional:
    def test_single_class_matches_full_fit(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 2))
        opts = EmOptions(n_components=2, seed=3)
        ccg = fit_class_conditional(x, np.zeros(50, dtype=int), opts)
        direct = em_fit(x, opts)
        assert ccg.classes == (0,)
        for c1, c2 in zip(ccg.per_class[0].components, direct.components):
            np.testing.assert_array_equal(c1.mean, c2.mean)

    def test_two_classes_recover_centers(self):
        rng = np.random.default_rng(9)
        xa = rng.normal(size=(60, 2)) * 0.3 + np.array([5.0, 0.0])
        xb = rng.normal(size=(40, 2)) * 0.3 + np.array([-5.0, 2.0])
        x = np.vstack([xa, xb])
        labels = np.array([0] * 60 + [1] * 40)
        ccg = fit_class_conditional(x, labels, EmOptions(n_components=1, seed=0))
        np.testing.assert_allclose(
            ccg.per_class[0].components[0].mean, xa.mean(axis=0), atol=1e-9
        )
        np.testing.assert_allclose(
            ccg.per_class[1].components[0].mean, xb.mean(axis=0), atol=1e-9
        )

    def test_small_class_reduced_with_warning(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(25, 2))
        labels = np.array([0] * 20 + [1] * 5)
        with pytest.warns(UserWarning, match="reducing components"):
            ccg = fit_class_conditional(x, labels, EmOptions(n_components=8, seed=0))
        assert len(ccg.per_class[1].components) == 2

    def test_declared_class_with_no_rows_raises(self):
        x = np.zeros((3, 1))
        with pytest.raises(ClassTooSmallError, match=r"^class 1 has only 0 sample\(s\)$"):
            fit_class_conditional(
                x, np.zeros(3, dtype=int), EmOptions(n_components=1), classes=[0, 1]
            )

    def test_label_outside_declared_classes_raises(self):
        # the rows labelled 2 would be dropped; fit_categorical refuses them alike
        x = np.random.default_rng(12).normal(size=(30, 1))
        labels = np.array([0, 1, 2] * 10)
        with pytest.raises(ValueError, match="outside the declared class set"):
            fit_class_conditional(x, labels, EmOptions(n_components=1), classes=[0, 1])
        with pytest.raises(ValueError, match="outside the declared class set"):
            fit_categorical(labels, classes=[0, 1])

    def test_classes_sorted(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 1))
        labels = np.array([5] * 10 + [1] * 10 + [3] * 10)
        ccg = fit_class_conditional(x, labels, EmOptions(n_components=1, seed=0))
        assert ccg.classes == (1, 3, 5)


def assert_same_gmm(a: Gmm, b: Gmm):
    """Bit-for-bit equal mixtures, ``em_log`` included."""
    assert a.em_log == b.em_log
    for ca, cb in zip(a.components, b.components, strict=True):
        assert ca.log_weight == cb.log_weight
        assert ca.mean.tobytes() == cb.mean.tobytes()
        assert ca.cov_chol.lower.tobytes() == cb.cov_chol.lower.tobytes()


def three_class_data():
    """Classes 0 and 1 with 80 rows each and class 2 with 3, in 3-D."""
    rng = np.random.default_rng(12)
    x = np.vstack([rng.normal(size=(80, 3)) + 4.0, rng.normal(size=(80, 3)) - 4.0,
                   rng.normal(size=(3, 3))])
    labels = np.array([0] * 80 + [1] * 80 + [2] * 3)
    return x, labels


class TestFitClassConditionalWorkers:
    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_same_mixtures_with_one_and_three_workers(self, workers, mode):
        x, labels = three_class_data()
        opts = EmOptions(n_components=4, covariance_mode=mode, seed=5)
        fitted = []
        for n in (1, 3):
            workers(n)
            with pytest.warns(UserWarning, match="class 2 has 3 samples; reducing components 4 -> 1"):
                fitted.append(fit_class_conditional(x, labels, opts))
        one, three = fitted
        assert one.classes == three.classes == (0, 1, 2)
        assert len(one.per_class[2].components) == 1
        for c in one.classes:
            assert_same_gmm(one.per_class[c], three.per_class[c])

    def test_classes_fit_together_through_the_module_global(self, workers, monkeypatch):
        x, labels = three_class_data()
        workers(3)
        started = threading.Barrier(3, timeout=30)
        threads = []
        original = gmm.em_fit

        def em_fit_together(rows, opts):
            threads.append(threading.current_thread().name)
            started.wait()  # times out unless all three fits run at once
            return original(rows, opts)

        monkeypatch.setattr(gmm, "em_fit", em_fit_together)
        fit_class_conditional(x, labels, EmOptions(n_components=1, seed=0))
        assert len(set(threads)) == 3
        assert all(name.startswith("luq-worker") for name in threads)

    def test_lowest_failing_class_is_raised(self, workers, monkeypatch):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(100, 2))
        x[30:, 1] = 1.0  # a constant feature in classes 1 and 2
        labels = np.array([0] * 30 + [1] * 30 + [2] * 40)
        workers(3)
        class_2_failed = threading.Event()
        original = gmm.em_fit

        def em_fit_class_1_last(rows, opts):
            if len(rows) == 30 and rows[0, 1] == 1.0:
                class_2_failed.wait(30)
            try:
                return original(rows, opts)
            finally:
                if len(rows) == 40:
                    class_2_failed.set()

        monkeypatch.setattr(gmm, "em_fit", em_fit_class_1_last)
        with pytest.raises(NotPositiveDefiniteError, match=r"^class 1: "):
            fit_class_conditional(x, labels, EmOptions(n_components=1, cov_reg=0.0))
        assert class_2_failed.is_set()

    def test_small_class_warnings_in_class_order_in_calling_thread(self, workers,
                                                                  monkeypatch):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(70, 2))
        labels = np.array([0] * 60 + [1] * 6 + [2] * 4)
        workers(3)
        warned_in = []

        def warn(message):
            warned_in.append(threading.current_thread())
            warnings.warn(message, stacklevel=2)

        monkeypatch.setattr(gmm, "warnings", SimpleNamespace(warn=warn))
        with pytest.warns(UserWarning) as record:
            fit_class_conditional(x, labels, EmOptions(n_components=8, seed=0))
        assert [str(w.message) for w in record] == [
            "class 1 has 6 samples; reducing components 8 -> 3",
            "class 2 has 4 samples; reducing components 8 -> 2",
        ]
        assert warned_in == [threading.current_thread()] * 2


class TestComponentShapes:
    def test_mean_must_match_the_factor(self):
        with pytest.raises(DimMismatchError, match=r"mean has shape \(3,\)"):
            GaussianComponent(0.0, np.zeros(3), cholesky(np.eye(2)))

    def test_components_must_match_the_mixture(self):
        with pytest.raises(DimMismatchError, match="not 3-D"):
            Gmm(dim=3, components=(make_gaussian(np.zeros(2), np.eye(2)),))

    @pytest.mark.parametrize("classes", [(0, 0, 1), (0,), (0, 1, 2)])
    def test_classes_are_the_density_keys_each_once(self, classes):
        g = Gmm(dim=2, components=(make_gaussian(np.zeros(2), np.eye(2)),))
        with pytest.raises(ValueError, match=r"not those with a density, \[0, 1\], each once"):
            ClassConditionalGmm(dim=2, classes=classes, per_class={0: g, 1: g})
