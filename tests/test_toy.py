import math
import threading

import numpy as np
import pytest

from luq import toy
from luq.errors import BadKindError
from luq.gmm import EmOptions
from luq.mlp import CLASSIFICATION, MlpModel, MlpTrainConfig, mlp_train, mlp_predict
from luq.toy import (
    OOD_SHIFT,
    X_RANGE,
    EnsembleModel,
    ToyClassificationSpec,
    ToyRegressionSpec,
    ensemble_scores,
    gen_classification_data,
    gen_ood_data,
    gen_regression_data,
    perturb,
    regression_target,
    run_classification_study,
    run_regression_study,
    train_ensemble,
)


class TestRegressionData:
    def test_target_values(self):
        assert regression_target(0.0) == pytest.approx(-0.5, abs=1e-12)
        assert regression_target(0.25) == pytest.approx(0.625, abs=1e-12)

    def test_no_samples_in_gap(self):
        spec = ToyRegressionSpec(seed=3)
        x, y = gen_regression_data(spec)
        assert x.shape == (750, 1)
        assert not np.any((x[:, 0] > spec.gap[0]) & (x[:, 0] < spec.gap[1]))
        assert np.all((x[:, 0] >= X_RANGE[0]) & (x[:, 0] <= X_RANGE[1]))

    def test_noiseless_targets_on_curve(self):
        x, y = gen_regression_data(ToyRegressionSpec(seed=1))
        np.testing.assert_allclose(y, regression_target(x[:, 0]), atol=1e-12)

    def test_noise_added_when_requested(self):
        spec = ToyRegressionSpec(noise_sigma=0.1, seed=1)
        x, y = gen_regression_data(spec)
        resid = y - regression_target(x[:, 0])
        assert np.std(resid) == pytest.approx(0.1, rel=0.15)

    def test_deterministic(self):
        a = gen_regression_data(ToyRegressionSpec(seed=9))
        b = gen_regression_data(ToyRegressionSpec(seed=9))
        np.testing.assert_array_equal(a[0], b[0])

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            ToyRegressionSpec(gap=(-2.0, 0.0))

    def test_train_rmse_meets_bar(self):
        spec = ToyRegressionSpec(seed=0)
        x, y = gen_regression_data(spec)
        model, _ = mlp_train(
            x, y, (1, 50, 50, 50, 50, 1),
            cfg=MlpTrainConfig(max_epochs=2500, seed=0),
        )
        pred = mlp_predict(model, x)[:, 0]
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05


class TestClassificationData:
    def test_shapes_and_labels(self):
        spec = ToyClassificationSpec(n_per_class=50, seed=0)
        x, labels = gen_classification_data(spec)
        assert x.shape == (200, 2)
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_ood_shift_distance(self):
        spec = ToyClassificationSpec(n_per_class=200, seed=0)
        x, _ = gen_classification_data(spec)
        ood, _ = gen_ood_data(spec)
        shift = ood.mean(axis=0) - x.mean(axis=0)
        assert np.linalg.norm(shift) == pytest.approx(OOD_SHIFT, rel=0.05)


class TestPerturb:
    def test_zero_sigma_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_array_equal(perturb(x, "gaussian_noise", sigma=0.0), x)

    def test_noise_std_matches_sigma(self):
        x = np.zeros((100_000, 1))
        noisy = perturb(x, "gaussian_noise", sigma=2.5, seed=11)
        assert np.std(noisy - x) == pytest.approx(2.5, rel=0.02)

    def test_noise_reproducible_per_seed(self):
        x = np.ones((50, 2))
        a = perturb(x, "gaussian_noise", sigma=1.0, seed=5)
        b = perturb(x, "gaussian_noise", sigma=1.0, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_bad_kind(self):
        with pytest.raises(BadKindError):
            perturb(np.ones((2, 2)), "shear")

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="finite sigma >= 0"):
            perturb(np.ones((2, 2)), "gaussian_noise", sigma=sigma)


def one_hot_classifier(logit_bias):
    """Zero network whose head bias fixes the softmax output."""
    dims = (2, 4, len(logit_bias))
    weights = [np.zeros((dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(d) for d in dims[1:]]
    biases[-1] = np.asarray(logit_bias, dtype=float)
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, head=CLASSIFICATION)


class TestEnsembleScores:
    def test_identical_members_no_epistemic(self):
        m = one_hot_classifier([0.3, -0.2])
        ens = EnsembleModel(members=(m, one_hot_classifier([0.3, -0.2])))
        epi, ale = ensemble_scores(ens, np.zeros((5, 2)))
        np.testing.assert_allclose(epi, 0.0, atol=1e-12)

    def test_two_one_hot_members(self):
        # members sure of different classes: MI = ln 2, aleatoric = 0
        ens = EnsembleModel(
            members=(one_hot_classifier([200.0, 0.0]), one_hot_classifier([0.0, 200.0]))
        )
        epi, ale = ensemble_scores(ens, np.zeros((3, 2)))
        np.testing.assert_allclose(epi, math.log(2.0), atol=1e-12)
        np.testing.assert_allclose(ale, 0.0, atol=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        members = []
        for s in range(4):
            m, _ = mlp_train(
                rng.normal(size=(30, 2)), rng.integers(0, 3, size=30),
                (2, 8, 3), head=CLASSIFICATION,
                cfg=MlpTrainConfig(max_epochs=30, seed=s),
            )
            members.append(m)
        ens = EnsembleModel(members=tuple(members))
        x = rng.normal(size=(20, 2))
        epi, ale = ensemble_scores(ens, x)
        probs = np.stack([mlp_predict(m, x) for m in ens.members]).mean(axis=0)
        logp = np.where(probs > 0, np.log(probs), 0.0)
        total = -np.sum(probs * logp, axis=1)
        np.testing.assert_allclose(epi + ale, total, atol=1e-12)
        member_entropies = []
        for m in ens.members:
            p = mlp_predict(m, x)
            member_entropies.append(-np.sum(p * np.where(p > 0, np.log(p), 0.0), axis=1))
        np.testing.assert_array_equal(ale, np.mean(member_entropies, axis=0))

    def test_regression_variance(self):
        x = np.random.default_rng(3).normal(size=(40, 1))
        y = x[:, 0] * 0.5
        ens = train_ensemble(
            x, y, (1, 8, 1), cfg=MlpTrainConfig(max_epochs=50, seed=0)
        )
        epi, ale = ensemble_scores(ens, x)
        preds = np.stack([mlp_predict(m, x)[:, 0] for m in ens.members])
        np.testing.assert_allclose(epi, preds.var(axis=0), atol=1e-12)
        np.testing.assert_array_equal(ale, 0.0)

    def test_mismatched_architectures_rejected(self):
        a = one_hot_classifier([1.0, 0.0])
        b, _ = mlp_train(
            np.zeros((4, 2)), np.array([0, 1, 0, 1]), (2, 3, 2),
            head=CLASSIFICATION, cfg=MlpTrainConfig(max_epochs=2, seed=0),
        )
        with pytest.raises(ValueError):
            EnsembleModel(members=(a, b))


class TestStudySmoke:
    def test_regression_study_shapes(self, toy_mlp_epochs):
        toy_mlp_epochs(300)
        spec = ToyRegressionSpec(n_train=120, seed=0, eval_points=41, grid_points=200)
        study = run_regression_study(spec)
        assert study.eval_x.shape == (41,)
        assert study.scores.epistemic.shape == (41,)
        assert len(study.bands) == 41
        for band, pred in zip(study.bands, study.predictions):
            assert band.lower <= pred <= band.upper
        assert study.gap_mask().sum() + study.train_region_mask().sum() == 41

    def test_classification_study_smoke(self, toy_mlp_epochs):
        toy_mlp_epochs(200)
        spec = ToyClassificationSpec(n_per_class=60, seed=0)
        study = run_classification_study(
            spec, em_opts=EmOptions(n_components=2, cov_reg=1e-4, seed=0)
        )
        n_test = study.test_x.shape[0]
        assert study.test_scores.epistemic.shape == (n_test,)
        assert np.all(study.test_scores.aleatoric >= 0.0)
        assert np.all(study.test_scores.aleatoric <= math.log(4) + 1e-12)
        acc = (study.test_predictions == study.test_labels).mean()
        assert acc > 0.9
        # far OOD scores higher than in-distribution on average
        ood_x, _ = gen_ood_data(spec, seed_offset=2)
        ood = study.score_inputs(ood_x)
        assert ood.epistemic.mean() > study.test_scores.epistemic.mean()

    def test_median_epistemic_monotone_in_noise(self, toy_mlp_epochs):
        from scipy.stats import spearmanr

        toy_mlp_epochs(400)
        spec = ToyClassificationSpec(n_per_class=150, seed=0)
        study = run_classification_study(
            spec, em_opts=EmOptions(n_components=5, cov_reg=1e-4, seed=0)
        )
        sigmas = [0.0, 0.5, 1.0, 2.0, 4.0]
        medians = []
        for sigma in sigmas:
            px = perturb(study.test_x, "gaussian_noise", sigma=sigma, seed=42)
            medians.append(float(np.median(study.score_inputs(px).epistemic)))
        rho = spearmanr(sigmas, medians).statistic
        assert rho >= 0.9
        assert np.all(np.diff(medians) >= 0)


class TestRegressionStudyWorkers:
    def test_same_study_with_one_and_two_threads(self, workers, toy_mlp_epochs,
                                                 monkeypatch):
        events = {}
        together = threading.Barrier(2, timeout=30)

        def recorded(fn):
            def call(*args, **kwargs):
                events[n].append(("start", fn.__name__, threading.current_thread()))
                if n == 2:
                    together.wait()  # times out unless both fits run at once
                result = fn(*args, **kwargs)
                events[n].append(("end", fn.__name__, threading.current_thread()))
                return result
            return call

        monkeypatch.setattr(toy, "mlp_train", recorded(toy.mlp_train))
        monkeypatch.setattr(toy, "train_ensemble", recorded(toy.train_ensemble))
        toy_mlp_epochs(60)
        studies = []
        for n in (1, 2):
            workers(n)
            events[n] = []
            studies.append(run_regression_study(
                ToyRegressionSpec(n_train=80, seed=2, eval_points=21, grid_points=100),
                with_ensemble=True,
                ensemble_cfg=MlpTrainConfig(max_epochs=40, seed=2),
            ))

        def arrays(st):
            return [*st.model.weights, *st.model.biases, st.mlp_losses, *st.flow.params(),
                    st.flow_log.train_nll, st.predictions, st.scores.epistemic,
                    st.scores.aleatoric, st.ensemble_epistemic,
                    np.array([(b.lower, b.upper) for b in st.bands])]

        one, two = studies
        for a, b in zip(arrays(one), arrays(two), strict=True):
            assert a.tobytes() == b.tobytes()
        assert one.flow_log.best_epoch == two.flow_log.best_epoch
        # with one thread both fits run in the calling thread, one after the
        # other; with two the regressor runs on a worker
        caller = threading.current_thread()
        assert [(e, name) for e, name, _ in events[1]] == [
            ("start", "train_ensemble"), ("end", "train_ensemble"),
            ("start", "mlp_train"), ("end", "mlp_train")]
        assert all(thread is caller for _, _, thread in events[1])
        threads = {name: thread for _, name, thread in events[2]}
        assert threads["mlp_train"].name.startswith("luq-worker")
        assert threads["train_ensemble"] is caller


class TestEpochPinContract:
    """The benchmark's pinned toy replaces ``toy.MlpTrainConfig`` and tells
    the regressor's config from the ensemble's by whether ``max_epochs`` is
    passed.  A change to how the toy builds either config would silently
    unpin the benchmark; this fails instead."""

    def test_regressor_config_first_without_max_epochs(self, monkeypatch):
        calls = []

        def pinned(**kwargs):  # the same substitution the benchmark makes
            calls.append("max_epochs" in kwargs)
            kwargs["max_epochs"] = 3 if "max_epochs" in kwargs else 7
            kwargs["improvement_window"] = kwargs["max_epochs"]
            return MlpTrainConfig(**kwargs)

        monkeypatch.setattr(toy, "MlpTrainConfig", pinned)
        study = run_regression_study(
            ToyRegressionSpec(n_train=20, seed=0, eval_points=11, grid_points=20),
            with_ensemble=True)
        assert calls == [False, True]
        assert len(study.mlp_losses) == 7
