import numpy as np
import pytest

from luq.errors import BadLayerIndexError
from luq.mlp import (
    CLASSIFICATION,
    REGRESSION,
    MlpTrainConfig,
    latent_extract,
    mlp_init,
    mlp_loss_gradients,
    mlp_predict,
    mlp_train,
    mlp_train_many,
)


def finite_diff_grads(model, x, y, h=1e-6):
    """Central finite differences of the loss for every parameter."""
    grads = []
    for p in model.weights + model.biases:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _, _ = mlp_loss_gradients(model, x, y)
            p[idx] = orig - h
            lm, _, _ = mlp_loss_gradients(model, x, y)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)


class TestGradients:
    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_matches_finite_differences(self, head):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        if head == REGRESSION:
            y = rng.normal(size=(12, 2))
            dims = (3, 6, 5, 2)
        else:
            y = rng.integers(0, 3, size=12)
            dims = (3, 6, 5, 3)
        model = mlp_init(dims, head=head, seed=1)
        # move away from the zero-bias ReLU kinks
        for b in model.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        _, gw, gb = mlp_loss_gradients(model, x, y)
        fd = finite_diff_grads(model, x, y)
        for analytic, numeric in zip(gw + gb, fd):
            assert rel_err(analytic, numeric).max() < 1e-4


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
        fm = latent_extract(model, model.n_hidden - 1, x)
        assert fm.data.shape == (2, 50)
        np.testing.assert_array_equal(fm.data[0], fm.data[1])

    def test_zero_weight_network_gives_zero_features(self):
        model = mlp_init((2, 4, 4, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        fm = latent_extract(model, 1, np.ones((3, 2)))
        np.testing.assert_array_equal(fm.data, 0.0)

    def test_bad_layer_index(self):
        model = mlp_init((2, 4, 1), seed=0)
        with pytest.raises(BadLayerIndexError):
            latent_extract(model, 1, np.ones((1, 2)))
        with pytest.raises(BadLayerIndexError):
            latent_extract(model, -1, np.ones((1, 2)))


class TestStackedTraining:
    def test_matches_individual_training(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = (x[:, :1] * 0.3).copy()
        cfg = MlpTrainConfig(max_epochs=30, improvement_window=1000, seed=0)
        members, _ = mlp_train_many(x, y, (2, 8, 1), REGRESSION, cfg, seeds=[3, 4])
        for seed, member in zip([3, 4], members):
            solo_cfg = MlpTrainConfig(max_epochs=30, improvement_window=1000, seed=seed)
            solo, _ = mlp_train(x, y, (2, 8, 1), cfg=solo_cfg)
            for w_a, w_b in zip(member.weights, solo.weights):
                np.testing.assert_allclose(w_a, w_b, atol=1e-12)
