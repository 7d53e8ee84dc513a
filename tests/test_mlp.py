import tracemalloc

import numpy as np
import pytest

from luq.errors import BadLayerIndexError
from luq.mlp import (
    CLASSIFICATION,
    REGRESSION,
    MlpTrainConfig,
    _loss_and_grads,
    latent_extract,
    mlp_init,
    mlp_predict,
    mlp_train,
    mlp_train_many,
)


def finite_diff_grads(weights, biases, head, x, y, h=1e-6):
    """Central finite differences of the loss for every parameter."""
    grads = []
    for p in weights + biases:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = _loss_and_grads(weights, biases, head, x, y)
            p[idx] = orig - h
            lm, _ = _loss_and_grads(weights, biases, head, x, y)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)


def gradient_case(head, seeds):
    """Inputs, targets and the parameters of one model per seed, with the
    biases moved away from the zero-bias ReLU kinks."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3))
    if head == REGRESSION:
        y = rng.normal(size=(12, 2))
        dims = (3, 6, 5, 2)
    else:
        y = rng.integers(0, 3, size=12)
        dims = (3, 6, 5, 3)
    models = [mlp_init(dims, head=head, seed=s) for s in seeds]
    for m in models:
        for b in m.biases:
            b += rng.normal(scale=0.1, size=b.shape)
    return x, y, models


class TestGradients:
    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_matches_finite_differences(self, head):
        x, y, (model,) = gradient_case(head, [1])
        _, grads = _loss_and_grads(model.weights, model.biases, head, x, y)
        fd = finite_diff_grads(model.weights, model.biases, head, x, y)
        for analytic, numeric in zip(grads, fd):
            assert rel_err(analytic, numeric).max() < 1e-4

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_stacked_matches_finite_differences(self, head):
        """With a member axis the loss is the mean member loss, and each
        member's gradients are those of its own loss: m times the finite
        differences of the mean."""
        x, y, models = gradient_case(head, [1, 2])
        weights = [np.stack(ws) for ws in zip(*(m.weights for m in models))]
        biases = [np.stack(bs) for bs in zip(*(m.biases for m in models))]
        loss, grads = _loss_and_grads(weights, biases, head, x, y)
        solo = [_loss_and_grads(m.weights, m.biases, head, x, y)[0] for m in models]
        assert loss == pytest.approx(np.mean(solo), rel=1e-14)
        fd = finite_diff_grads(weights, biases, head, x, y)
        for analytic, numeric in zip(grads, fd):
            assert analytic.shape[0] == 2
            assert rel_err(analytic, 2 * numeric).max() < 1e-4


class TestTraining:
    def test_constant_target_converges(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        y = np.full((50, 1), 0.7)
        model, losses = mlp_train(
            x, y, (2, 16, 1), cfg=MlpTrainConfig(max_epochs=20000, seed=0)
        )
        pred = mlp_predict(model, x)
        rmse = np.sqrt(np.mean((pred - y) ** 2))
        assert rmse < 1e-3
        assert len(losses) < 20000  # improvement-window stop fired

    def test_loss_log_recorded_and_decreasing_overall(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = (x[:, :1] * 0.5 + 0.1).copy()
        model, losses = mlp_train(
            x, y, (2, 16, 1), cfg=MlpTrainConfig(max_epochs=400, seed=0)
        )
        assert len(losses) >= 1
        assert losses[-1] < losses[0]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        y = x[:, :1].copy()
        cfg = MlpTrainConfig(max_epochs=50, seed=9)
        m1, l1 = mlp_train(x, y, (2, 8, 1), cfg=cfg)
        m2, l2 = mlp_train(x, y, (2, 8, 1), cfg=cfg)
        np.testing.assert_array_equal(l1, l2)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_diverged(self):
        from luq.errors import DivergedError

        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 1))
        y[4, 0] = np.inf
        with pytest.raises(DivergedError):
            mlp_train(x, y, (2, 8, 1), cfg=MlpTrainConfig(max_epochs=5, seed=0))

    def test_classification_learns_blobs(self):
        rng = np.random.default_rng(4)
        x = np.vstack([
            rng.normal(size=(60, 2)) * 0.3 + [2, 2],
            rng.normal(size=(60, 2)) * 0.3 + [-2, -2],
        ])
        y = np.array([0] * 60 + [1] * 60)
        model, _ = mlp_train(
            x, y, (2, 16, 2), head=CLASSIFICATION,
            cfg=MlpTrainConfig(max_epochs=600, seed=0),
        )
        acc = (mlp_predict(model, x).argmax(axis=1) == y).mean()
        assert acc > 0.99


class TestLatentExtract:
    def test_shapes_and_determinism(self):
        model = mlp_init((1, 50, 50, 50, 50, 1), seed=0)
        x = np.array([[0.3], [0.3]])
        z = latent_extract(model, model.n_hidden - 1, x)
        assert z.shape == (2, 50) and z.dtype == np.float64
        np.testing.assert_array_equal(z[0], z[1])

    def test_zero_weight_network_gives_zero_features(self):
        model = mlp_init((2, 4, 4, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        z = latent_extract(model, 1, np.ones((3, 2)))
        np.testing.assert_array_equal(z, 0.0)

    def test_bad_layer_index(self):
        model = mlp_init((2, 4, 1), seed=0)
        with pytest.raises(BadLayerIndexError):
            latent_extract(model, 1, np.ones((1, 2)))
        with pytest.raises(BadLayerIndexError):
            latent_extract(model, -1, np.ones((1, 2)))


def assert_members_equal_solo_runs(x, y, dims, head, cfg, seeds):
    """Each lockstep member equals a solo ``mlp_train`` run with its seed
    for the epochs the ensemble ran, bit for bit; the ensemble's loss log
    is the mean of the solo logs.  Returns the ensemble's epoch count."""
    members, losses = mlp_train_many(x, y, dims, head, cfg, seeds)
    solo_losses = []
    for seed, member in zip(seeds, members):
        solo_cfg = MlpTrainConfig(max_epochs=len(losses), improvement_window=len(losses),
                                  seed=seed)
        solo, solo_log = mlp_train(x, y, dims, head=head, cfg=solo_cfg)
        assert len(solo_log) == len(losses)
        for a, b in zip(member.weights + member.biases, solo.weights + solo.biases):
            np.testing.assert_array_equal(a, b)
        solo_losses.append(solo_log)
    np.testing.assert_allclose(losses, np.mean(solo_losses, axis=0), rtol=1e-12)
    return len(losses)


class TestStackedTraining:
    def test_matches_individual_training(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = (x[:, :1] * 0.3).copy()
        cfg = MlpTrainConfig(max_epochs=30, improvement_window=1000, seed=0)
        assert assert_members_equal_solo_runs(x, y, (2, 8, 1), REGRESSION, cfg, [3, 4]) == 30

    def test_classification_matches_individual_training(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0)
        cfg = MlpTrainConfig(max_epochs=30, improvement_window=1000)
        epochs = assert_members_equal_solo_runs(x, y, (2, 8, 3), CLASSIFICATION, cfg,
                                                [3, 4, 5])
        assert epochs == 30

    def test_window_stop_matches_individual_training(self):
        """The improvement-window stop watches the mean loss; the members
        it stops still equal solo runs of that length."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 2))
        y = np.full((40, 1), 0.5)
        cfg = MlpTrainConfig(max_epochs=20000, improvement_window=10)
        epochs = assert_members_equal_solo_runs(x, y, (2, 8, 1), REGRESSION, cfg, [3, 4])
        assert 10 < epochs < 20000


def reference_fit(weights, biases, head, x, y, cfg):
    """``_fit`` as it was before it trained in reused buffers: ReLU passes
    that allocate every array, the head loss written out, and Adam's
    textbook expressions on each parameter in turn.  Updates ``weights``
    and ``biases`` in place; returns the loss log."""
    params = weights + biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    n, n_layers = x.shape[0], len(weights)
    losses, bests = [], []
    for t in range(1, cfg.max_epochs + 1):
        acts, a = [], x
        for l, (w, b) in enumerate(zip(weights, biases)):
            pre = a @ w
            pre += b[..., None, :]
            if l < n_layers - 1:
                a = np.maximum(pre, 0.0, out=pre)
                acts.append(a)
        if head == CLASSIFICATION:
            shifted = pre - pre.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=-1, keepdims=True)
            picked = probs[..., np.arange(n), y]
            loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
            upstream = probs
            upstream[..., np.arange(n), y] -= 1.0
            upstream /= n
        else:
            diff = pre - y
            loss = float(np.mean(diff**2))
            upstream = 2.0 * diff / (n * y.shape[1])
        grads_w, grads_b = [None] * n_layers, [None] * n_layers
        for l in range(n_layers - 1, -1, -1):
            a_in = acts[l - 1] if l > 0 else x
            grads_w[l] = np.swapaxes(a_in, -1, -2) @ upstream
            grads_b[l] = upstream.sum(axis=-2)
            if l > 0:
                upstream = (upstream @ np.swapaxes(weights[l], -1, -2)) * (acts[l - 1] > 0)
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, (m, v) in zip(params, grads_w + grads_b, moments):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= 1e-3 * (m / bias1) / (np.sqrt(v / bias2) + eps)
        losses.append(loss)
        bests.append(loss if not bests else min(bests[-1], loss))
        window = cfg.improvement_window
        if len(bests) > window and bests[-window - 1] - bests[-1] < 1e-7:
            break
    return np.asarray(losses)


def assert_same_parameters(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestTrainerMatchesReference:
    """The buffered trainer reproduces the allocating one bit for bit."""

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    @pytest.mark.parametrize("dims", [(1, 7, 2), (3, 9, 6, 5, 4, 2)],
                             ids=["1-hidden-width-1-input", "4-hidden"])
    def test_mlp_train(self, head, dims):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(45, dims[0]))
        y = (rng.integers(0, dims[-1], size=45) if head == CLASSIFICATION
             else rng.normal(size=(45, dims[-1])))
        cfg = MlpTrainConfig(max_epochs=60, seed=4)
        model, losses = mlp_train(x, y, dims, head=head, cfg=cfg)
        ref = mlp_init(dims, head=head, seed=4)
        target = y if head == CLASSIFICATION else y.astype(np.float64)
        ref_losses = reference_fit(ref.weights, ref.biases, head, x, target, cfg)
        assert np.array_equal(losses, ref_losses)
        assert_same_parameters(model.weights + model.biases, ref.weights + ref.biases)

    def test_mlp_train_many_with_a_window_stop(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-1.0, 1.0, size=(50, 1))
        y = np.full((50, 1), 0.5)
        cfg = MlpTrainConfig(max_epochs=20000, improvement_window=10)
        seeds = [3, 4, 5]
        dims = (1, 8, 8, 1)
        members, losses = mlp_train_many(x, y, dims, REGRESSION, cfg, seeds)
        inits = [mlp_init(dims, seed=s) for s in seeds]
        weights = [np.stack(ws) for ws in zip(*(m.weights for m in inits))]
        biases = [np.stack(bs) for bs in zip(*(m.biases for m in inits))]
        ref_losses = reference_fit(weights, biases, REGRESSION, x, y, cfg)
        assert 10 < len(ref_losses) < cfg.max_epochs
        assert np.array_equal(losses, ref_losses)
        for j, member in enumerate(members):
            assert_same_parameters(member.weights + member.biases,
                                   [w[j] for w in weights] + [b[j] for b in biases])


def test_lockstep_training_peak_memory():
    # traced peak of the second call: 11.25 MB while every epoch allocated
    # its arrays, 11.04 MB with the buffers reused
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, size=(300, 1))
    y = np.sin(3.0 * x)
    cfg = MlpTrainConfig(max_epochs=40, improvement_window=40)
    seeds = range(10)

    def run():
        mlp_train_many(x, y, (1, 50, 50, 50, 50, 1), REGRESSION, cfg, seeds)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 11.25e6
