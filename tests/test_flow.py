import math

import numpy as np
import pytest

from luq.errors import DimMismatchError, DivergedError
from luq.flow import (
    ConditionalFlow,
    FlowArchitecture,
    FlowTrainConfig,
    build_flow,
    flow_condition,
    flow_forward,
    flow_gradients,
    flow_inverse,
    flow_log_prob,
    flow_nll,
    flow_train,
)
from luq.mlp import Adam

SMALL_ARCH = FlowArchitecture(n_layers=2, hidden=(6, 5), cond_hidden=(4,), cond_feat_dim=3)


def randomize(flow, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    for p in flow.params():
        p += rng.normal(scale=scale, size=p.shape)
    return flow


def set_constant_scale(layer, value):
    """Force the clamped scale output to a constant by zeroing the nets and
    setting the scale net's final bias."""
    alpha = layer.scale_clamp
    for net in (layer.scale_net, layer.translate_net, layer.cond_net):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    layer.scale_net.lift[:] = 0.0
    layer.translate_net.lift[:] = 0.0
    layer.scale_net.biases[-1][:] = alpha * np.arctanh(value / alpha)


class TestCouplingLayer:
    def test_identity_at_init(self):
        flow = build_flow(4, 1, SMALL_ARCH, seed=0)
        rng = np.random.default_rng(1)
        u = rng.normal(size=(7, 4))
        c = rng.normal(size=(7, 1))
        layer = flow.layers[0]
        out, log_det, _ = layer.forward(u, layer.condition(c))
        np.testing.assert_array_equal(out, u)
        np.testing.assert_array_equal(log_det, 0.0)

    def test_constant_log2_scale_doubles_part2(self):
        flow = build_flow(6, 1, SMALL_ARCH, seed=0)
        layer = flow.layers[0]
        set_constant_scale(layer, math.log(2.0))
        u = np.arange(6.0)
        out, log_det, _ = layer.forward(u[None, :], layer.condition(np.array([[0.3]])))
        out, log_det = out[0], float(log_det[0])
        np.testing.assert_allclose(out[layer.part1], u[layer.part1], atol=1e-12)
        np.testing.assert_allclose(out[layer.part2], 2.0 * u[layer.part2], rtol=1e-12)
        assert log_det == pytest.approx(3 * math.log(2.0), abs=1e-12)
        assert log_det == pytest.approx(2.079442, abs=1e-6)

    def test_inverse_of_forward_is_identity(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            flow = build_flow(5, 2, SMALL_ARCH, seed=seed)
            randomize(flow, seed + 100)
            layer = flow.layers[0]
            u = rng.normal(size=(11, 5))
            c = rng.normal(size=(11, 2))
            cond = layer.condition(c)
            v, _, _ = layer.forward(u, cond)
            back, _ = layer.inverse(v, cond)
            assert np.abs(back - u).max() < 1e-9


class TestFlowCondition:
    def test_same_result_as_raw_conditions(self):
        rng = np.random.default_rng(12)
        flow = randomize(build_flow(5, 2, SMALL_ARCH, seed=1), 1)
        z = rng.normal(size=(9, 5))
        c = rng.normal(size=(9, 2))
        cond = flow_condition(flow, c)
        np.testing.assert_array_equal(flow_log_prob(flow, z, cond), flow_log_prob(flow, z, c))
        u, ld = flow_forward(flow, z, cond)
        u_raw, ld_raw = flow_forward(flow, z, c)
        np.testing.assert_array_equal(u, u_raw)
        np.testing.assert_array_equal(ld, ld_raw)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_one_row_against_every_condition(self, dim):
        rng = np.random.default_rng(13)
        flow = randomize(build_flow(dim, 1, SMALL_ARCH, seed=dim), dim)
        row = rng.normal(size=dim)
        c = rng.normal(size=(15, 1))
        cond = flow_condition(flow, c)
        tiled = np.tile(row, (15, 1))
        want = flow_log_prob(flow, tiled, c)
        np.testing.assert_allclose(flow_log_prob(flow, row[None, :], cond), want,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(flow_log_prob(flow, row, cond), want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(flow_log_prob(flow, row, c), want, rtol=1e-13, atol=0.0)
        u, _ = flow_forward(flow, row[None, :], cond)
        back, _ = flow_inverse(flow, u, cond)
        assert np.abs(back - tiled).max() < 1e-9

    def test_mismatches_raise(self):
        flow = build_flow(3, 1, SMALL_ARCH, seed=0)
        cond = flow_condition(flow, np.zeros((4, 1)))
        with pytest.raises(DimMismatchError):
            flow_log_prob(flow, np.zeros((2, 3)), cond)
        with pytest.raises(ValueError, match="not a FlowCondition"):
            flow_gradients(flow, np.zeros((4, 3)), cond)
        with pytest.raises(DimMismatchError):
            flow_condition(flow, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="another flow"):
            flow_log_prob(build_flow(3, 1, SMALL_ARCH, seed=0), np.zeros((4, 3)), cond)
        # raw conditions take the same rules
        with pytest.raises(DimMismatchError):
            flow_gradients(flow, np.zeros((1, 3)), np.zeros((4, 1)))
        with pytest.raises(DimMismatchError):
            flow_log_prob(build_flow(3, 2, SMALL_ARCH, seed=0), np.zeros(3), np.zeros(3))
        with pytest.raises(DimMismatchError):
            flow_log_prob(flow, np.zeros((4, 3)), np.zeros(1))


class TestFlowInvertibility:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(3)
        flow = randomize(build_flow(dim, 2, SMALL_ARCH, seed=dim), 50 + dim)
        z = rng.normal(size=(20, dim))
        c = rng.normal(size=(20, 2))
        u, fwd_ld = flow_forward(flow, z, c)
        back, inv_ld = flow_inverse(flow, u, c)
        assert np.abs(back - z).max() < 1e-9
        np.testing.assert_allclose(fwd_ld, -inv_ld, atol=1e-10)

    def test_log_det_antisymmetry_many_draws(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            dim = int(rng.integers(1, 7))
            flow = randomize(build_flow(dim, 1, SMALL_ARCH, seed=seed), seed)
            z = rng.normal(size=(5, dim))
            c = rng.normal(size=(5, 1))
            u, fwd_ld = flow_forward(flow, z, c)
            _, inv_ld = flow_inverse(flow, u, c)
            assert np.abs(fwd_ld + inv_ld).max() < 1e-10


class TestFlowLogProb:
    def test_identity_init_reduces_to_base(self):
        flow = build_flow(2, 1, seed=0)
        val = flow_log_prob(flow, np.zeros(2), np.array([123.0]))
        assert val == pytest.approx(-math.log(2 * math.pi), abs=1e-12)
        assert val == pytest.approx(-1.837877, abs=1e-6)

    def test_1d_scaling_flow_matches_gaussian(self):
        # forward map u = 2 z makes p(z) a normal with sigma = 1/2:
        # log p(0) = -0.5 log(2 pi) + log 2
        arch = FlowArchitecture(n_layers=1, hidden=(4,), cond_hidden=(3,), cond_feat_dim=2)
        flow = build_flow(1, 1, arch, seed=0)
        set_constant_scale(flow.layers[0], math.log(2.0))
        val = flow_log_prob(flow, np.zeros(1), np.zeros(1))
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi) + math.log(2.0), abs=1e-12)
        assert val == pytest.approx(-0.225791, abs=1e-6)

    @pytest.mark.parametrize("dim,seed", [(1, 0), (1, 7), (2, 1), (2, 9)])
    def test_density_mass_near_one(self, dim, seed):
        flow = randomize(build_flow(dim, 1, SMALL_ARCH, seed=seed), seed, scale=0.3)
        c = np.array([0.5])
        if dim == 1:
            grid = np.linspace(-10, 10, 2001)
            dens = np.exp(flow_log_prob(flow, grid[:, None], np.full((2001, 1), 0.5)))
            mass = np.trapezoid(dens, grid)
        else:
            grid = np.linspace(-10, 10, 301)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            dens = np.exp(
                flow_log_prob(flow, pts, np.full((pts.shape[0], 1), 0.5))
            ).reshape(xx.shape)
            mass = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert 0.99 <= mass <= 1.001

    def test_dim_mismatch(self):
        flow = build_flow(3, 1, SMALL_ARCH, seed=0)
        with pytest.raises(DimMismatchError):
            flow_log_prob(flow, np.zeros(2), np.zeros(1))

    def test_log_det_matches_numerical_jacobian(self):
        # the layer-sum log-determinant must equal log |det dJ/dz| of the
        # full forward map, estimated by central differences
        rng = np.random.default_rng(6)
        for seed in range(5):
            dim = int(rng.integers(2, 5))
            flow = randomize(build_flow(dim, 1, SMALL_ARCH, seed=seed), seed + 20)
            z = rng.normal(size=dim)
            c = rng.normal(size=1)
            _, log_det = flow_forward(flow, z, c)
            h = 1e-6
            jac = np.empty((dim, dim))
            for j in range(dim):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                up, _ = flow_forward(flow, zp, c)
                um, _ = flow_forward(flow, zm, c)
                jac[:, j] = (up - um) / (2 * h)
            _, ref = np.linalg.slogdet(jac)
            assert log_det == pytest.approx(ref, abs=1e-6)


def fd_gradients(flow, z, c, h=1e-5):
    grads = []
    for p in flow.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = flow_nll(flow, z, c)
            p[idx] = orig - h
            lm = flow_nll(flow, z, c)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


class TestFlowGradients:
    def test_matches_finite_differences_over_draws(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            arch = FlowArchitecture(n_layers=2, hidden=(5,), cond_hidden=(3,),
                                    cond_feat_dim=2)
            flow = randomize(build_flow(2, 1, arch, seed=seed), seed, scale=0.4)
            z = rng.normal(size=(6, 2))
            c = rng.normal(size=(6, 1))
            _, analytic = flow_gradients(flow, z, c)
            numeric = fd_gradients(flow, z, c)
            for a, b in zip(analytic, numeric):
                rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)
                worst = max(worst, rel.max())
        assert worst < 1e-4, worst

    def test_duplicated_rows_leave_gradient_unchanged(self):
        rng = np.random.default_rng(5)
        flow = randomize(build_flow(2, 1, SMALL_ARCH, seed=3), 3)
        z = rng.normal(size=(4, 2))
        c = rng.normal(size=(4, 1))
        _, g1 = flow_gradients(flow, z, c)
        _, g2 = flow_gradients(flow, np.vstack([z, z]), np.vstack([c, c]))
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_translate_gradient_direction_at_identity_init(self):
        # at the identity initialization the NLL gradient w.r.t. the
        # translate net's output bias is exactly mean(z_part2)
        rng = np.random.default_rng(6)
        flow = build_flow(2, 1, FlowArchitecture(n_layers=1, hidden=(4,)), seed=0)
        z = rng.normal(size=(5000, 2)) + np.array([0.0, 1.3])
        c = np.zeros((5000, 1))
        _, grads = flow_gradients(flow, z, c)
        layer = flow.layers[0]
        names = layer.params()
        t_bias_grad = None
        offset = len(layer.scale_net.params())
        t_params = layer.translate_net.params()
        # final bias of the translate net sits before its lift entry
        t_bias_grad = grads[offset + len(layer.translate_net.weights) * 2 - 1]
        mean_part2 = z[:, layer.part2].mean(axis=0)
        np.testing.assert_allclose(t_bias_grad, mean_part2, atol=1e-12)
        # scale output bias gradient is mean(1 - z_part2^2), vanishing for
        # exactly standard-normal part2 data
        s_bias_grad = grads[len(layer.scale_net.weights) * 2 - 1]
        expected = np.mean(1.0 - z[:, layer.part2] ** 2, axis=0)
        np.testing.assert_allclose(s_bias_grad, -expected, atol=1e-12)


class TestFlowTrain:
    def test_fits_base_distribution_entropy(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(600, 2))
        c = rng.normal(size=(600, 1))
        cfg = FlowTrainConfig(max_epochs=60, batch_size=600, seed=0)
        flow, log = flow_train(z, c, cfg, arch=SMALL_ARCH)
        entropy = 0.5 * 2 * (1 + math.log(2 * math.pi))
        assert log.train_nll[-1] == pytest.approx(entropy, rel=0.05)

    def test_best_val_not_worse_than_first_epoch(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(200, 2)) * 0.7
        c = rng.normal(size=(200, 1))
        cfg = FlowTrainConfig(max_epochs=40, batch_size=64, seed=1)
        flow, log = flow_train(z, c, cfg, arch=SMALL_ARCH)
        assert log.val_nll[log.best_epoch] <= log.val_nll[0] + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(80, 2))
        c = rng.normal(size=(80, 1))
        cfg = FlowTrainConfig(max_epochs=10, batch_size=32, seed=4)
        f1, l1 = flow_train(z, c, cfg, arch=SMALL_ARCH)
        f2, l2 = flow_train(z, c, cfg, arch=SMALL_ARCH)
        np.testing.assert_array_equal(l1.train_nll, l2.train_nll)
        for a, b in zip(f1.params(), f2.params()):
            np.testing.assert_array_equal(a, b)

    def test_conditioning_effectiveness(self):
        # z | c = N(c, 0.1^2): the trained flow must rate z = c far more
        # likely than z = c + 1 for held-out conditions
        rng = np.random.default_rng(10)
        c = rng.uniform(-2, 2, size=(800, 1))
        z = c + rng.normal(scale=0.1, size=(800, 1))
        cfg = FlowTrainConfig(max_epochs=150, batch_size=800, seed=0)
        flow, _ = flow_train(z, c, cfg)
        held_out = rng.uniform(-2, 2, size=(200, 1))
        at_c = flow_log_prob(flow, held_out, held_out)
        off_c = flow_log_prob(flow, held_out + 1.0, held_out)
        assert np.mean(at_c > off_c) >= 0.95

    def test_too_few_rows(self):
        from luq.errors import TooFewSamplesError

        rng = np.random.default_rng(12)
        with pytest.raises(TooFewSamplesError, match="at least 10 rows, got 9"):
            flow_train(rng.normal(size=(9, 2)), rng.normal(size=(9, 1)), arch=SMALL_ARCH)

    def test_val_fraction_leaving_no_training_rows(self):
        rng = np.random.default_rng(12)
        cfg = FlowTrainConfig(val_fraction=0.95)  # round(9.5) is 10
        with pytest.raises(ValueError, match="of 10 rows leaves no training rows"):
            flow_train(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)), cfg,
                       arch=SMALL_ARCH)

    def test_non_finite_data_raises_diverged(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(40, 2))
        z[3, 0] = np.nan
        with pytest.raises(DivergedError):
            flow_train(z, rng.normal(size=(40, 1)),
                       FlowTrainConfig(max_epochs=5, batch_size=40, seed=0),
                       arch=SMALL_ARCH)

    @pytest.mark.parametrize("scale", [1e308, 1e300])
    def test_overflowing_conditions_raise_diverged(self, scale):
        rng = np.random.default_rng(13)
        c = scale * np.where(np.arange(30) % 2, 1.0, -1.0)
        with pytest.raises(DivergedError, match="overflow"):
            flow_train(rng.normal(size=(30, 2)), c, FlowTrainConfig(max_epochs=3))


def reference_flow_train(z, c, cfg, arch):
    """flow_train with the early-stopping loop it had before the best epoch
    was read off the validation log: a running best value and a count of
    epochs since it.  Also returns each epoch's batch NLLs, weighted by
    their rows."""
    flow = build_flow(z.shape[1], c.shape[1], arch=arch, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    perm = rng.permutation(z.shape[0])
    n_val = max(1, int(round(cfg.val_fraction * z.shape[0])))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    params = flow.params()
    opt = Adam(params, cfg.learning_rate, cfg.weight_decay)
    batch = min(cfg.batch_size, len(train_idx))
    best_val, best_epoch, since_best = np.inf, -1, 0
    train_nll = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_idx))
        total = 0.0
        for start in range(0, len(order), batch):
            sel = train_idx[order[start : start + batch]]
            nll, grads = flow_gradients(flow, z[sel], c[sel])
            total += nll * len(sel)
            opt.step(grads)
        train_nll.append(total / len(train_idx))
        va = flow_nll(flow, z[val_idx], c[val_idx])
        if va < best_val:
            best_val, best_epoch, since_best = va, epoch, 0
            best_params = [p.copy() for p in params]
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    for p, best in zip(params, best_params):
        p[:] = best
    return flow, best_epoch, np.asarray(train_nll)


def test_early_stopping_matches_the_running_best_rule():
    rng = np.random.default_rng(14)
    stopped, partial = [], []
    for case in range(20):
        n = int(rng.integers(20, 60))
        z = rng.normal(size=(n, int(rng.integers(1, 4))))
        c = rng.normal(size=(n, 1))
        cfg = FlowTrainConfig(learning_rate=0.01, batch_size=int(rng.integers(4, 40)),
                              max_epochs=int(rng.integers(3, 16)),
                              patience=int(rng.integers(1, 4)), seed=case)
        flow, log = flow_train(z, c, cfg, arch=SMALL_ARCH)
        want, best_epoch, train_nll = reference_flow_train(z, c, cfg, SMALL_ARCH)
        assert log.best_epoch == best_epoch
        assert np.array_equal(log.train_nll, train_nll)
        for got, ref in zip(flow.params(), want.params()):
            np.testing.assert_array_equal(got, ref)
        stopped.append(len(train_nll) < cfg.max_epochs)
        n_train = n - max(1, round(cfg.val_fraction * n))
        partial.append(n_train % min(cfg.batch_size, n_train) > 0)
    assert 0 < sum(stopped) < len(stopped)  # both stop rules are exercised
    assert any(partial)  # and some epochs end in a smaller batch


class TestFlowConstruction:
    """A hand-built flow is checked as one read from a file is."""

    @pytest.mark.parametrize("part2", [[5], [0, 0], []],
                             ids=["out-of-range", "repeated", "missing"])
    def test_parts_must_partition_the_latent(self, part2):
        layers = build_flow(2, 1, SMALL_ARCH).layers
        layers[1].part2 = np.array(part2, dtype=np.intp)
        with pytest.raises(ValueError, match="layer 1: the coupling parts do not "
                                             "partition the 2 latent dimensions"):
            ConditionalFlow(dim=2, cond_dim=1, layers=layers)

    def test_subnet_must_take_the_copied_part(self):
        layers = build_flow(2, 1, SMALL_ARCH).layers
        layers[0].scale_net.weights[0] = np.zeros((2, 6))
        with pytest.raises(DimMismatchError, match=r"layer 0: scale net: weight 0 is \(2, 6\)"):
            ConditionalFlow(dim=2, cond_dim=1, layers=layers)

    def test_subnet_must_give_the_transformed_part(self):
        layers = build_flow(2, 1, SMALL_ARCH).layers
        layers[1].translate_net.weights[-1] = np.zeros((5, 2))
        layers[1].translate_net.biases[-1] = np.zeros(2)
        with pytest.raises(DimMismatchError, match="layer 1: translate net has 2 outputs, "
                                                   "expected 1"):
            ConditionalFlow(dim=2, cond_dim=1, layers=layers)

    def test_condition_net_must_take_cond_dim(self):
        layers = build_flow(2, 1, SMALL_ARCH).layers
        with pytest.raises(DimMismatchError, match="layer 0: condition net: weight 0 is "
                                                   r"\(1, 4\)"):
            ConditionalFlow(dim=2, cond_dim=3, layers=layers)

    def test_lift_must_take_the_condition_feature(self):
        layers = build_flow(2, 1, SMALL_ARCH).layers
        layers[0].translate_net.lift = np.zeros((2, 6))
        with pytest.raises(DimMismatchError, match=r"lift is \(2, 6\), expected \(3, 6\)"):
            ConditionalFlow(dim=2, cond_dim=1, layers=layers)
