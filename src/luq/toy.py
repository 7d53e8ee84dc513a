"""Self-contained desk-scale experiments.

Generates the sinusoid regression task (with a gap in the training inputs)
and a Gaussian-blob classification task, trains small MLPs on them,
extracts hidden-layer latents, fits the latent density models, and scores
uncertainty end to end.  Also provides input perturbations and a
deep-ensemble baseline for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._pool import worker_count, worker_pool
from .engine import (
    ConfidenceRegion,
    RegressionPosterior,
    SupportGrid,
    UncertaintyScores,
    confidence_region,
    score_classification,
    score_regression,
)
from .errors import BadKindError, LuqError
from .flow import (
    MIN_TRAIN_ROWS,
    ConditionalFlow,
    FlowTrainConfig,
    FlowTrainLog,
    flow_train,
)
from .gmm import ClassConditionalGmm, EmOptions, fit_class_conditional
from .mlp import (
    CLASSIFICATION,
    REGRESSION,
    MlpModel,
    MlpTrainConfig,
    latent_extract,
    mlp_predict,
    mlp_train,
    mlp_train_many,
)
from .priors import CategoricalPrior, UniformPrior, fit_categorical


def regression_target(x):
    """The sinusoid-plus-ramp target, normalized to map [-1, 1] into
    [-1, 1]: f(x) = (sin(4 pi x - pi/2) + x) / 2."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (np.sin(4.0 * np.pi * x - 0.5 * np.pi) + x)


# input range of the regression task, and the support of its uniform
# output prior and scoring grid
X_RANGE = (-1.0, 1.0)
PRIOR_RANGE = (-10.0, 10.0)


@dataclass(frozen=True)
class ToyRegressionSpec:
    """The gapped sinusoid and how the study scores it: ``eval_points``
    evenly spaced inputs over the x range, some inside the gap and some in
    the training region, each with a confidence band of ``band_mass`` on a
    grid of ``grid_points`` over ``PRIOR_RANGE``."""

    n_train: int = 750
    gap: tuple[float, float] = (-0.25, 0.25)
    noise_sigma: float = 0.0
    seed: int = 0
    eval_points: int = 201
    band_mass: float = 0.2
    grid_points: int = 1000

    def __post_init__(self):
        if not X_RANGE[0] < self.gap[0] < self.gap[1] < X_RANGE[1]:
            raise ValueError("gap must lie strictly inside the x range")
        if self.n_train < MIN_TRAIN_ROWS:
            raise ValueError(f"n_train must be at least {MIN_TRAIN_ROWS}, the flow's "
                             f"minimum, got {self.n_train}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be at least 2, got {self.grid_points}")
        if not 0.0 < self.band_mass < 1.0:
            raise ValueError(f"band_mass must be in (0, 1), got {self.band_mass}")
        x = np.linspace(*X_RANGE, max(self.eval_points, 0))
        in_gap = (x > self.gap[0]) & (x < self.gap[1])
        if in_gap.all() or not in_gap.any():
            raise ValueError(f"eval_points must put inputs both inside the gap and in the "
                             f"training region, got {self.eval_points}")


def gen_regression_data(spec: ToyRegressionSpec):
    """Training pairs with x uniform over the range minus the gap."""
    rng = np.random.default_rng(spec.seed)
    x_lo, x_hi = X_RANGE
    left = spec.gap[0] - x_lo
    right = x_hi - spec.gap[1]
    u = rng.uniform(0.0, left + right, size=spec.n_train)
    x = np.where(u < left, x_lo + u, spec.gap[1] + (u - left))
    y = regression_target(x)
    if spec.noise_sigma > 0:
        y = y + rng.normal(scale=spec.noise_sigma, size=y.shape)
    return x[:, None], y


# one blob per class at the corners of a square; the OOD copy slides every
# blob this far along the diagonal
CENTERS = np.array([[2.0, 2.0], [-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0]])
N_CLASSES = len(CENTERS)
OOD_SHIFT = 8.0


@dataclass(frozen=True)
class ToyClassificationSpec:
    """Gaussian blobs at ``CENTERS``, plus a far-shifted copy as unambiguous
    OOD."""

    sigma: float = 0.4
    n_per_class: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ValueError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def gen_classification_data(spec: ToyClassificationSpec, seed_offset: int = 0,
                            shift: float = 0.0):
    """Blob samples and labels; ``shift`` slides every center by that many
    units along the diagonal (used for the OOD copy)."""
    rng = np.random.default_rng(spec.seed + seed_offset)
    centers = CENTERS + shift / np.sqrt(2.0)
    labels = np.repeat(np.arange(N_CLASSES), spec.n_per_class)
    x = centers[labels] + rng.normal(scale=spec.sigma, size=(labels.size, 2))
    return x, labels


def gen_ood_data(spec: ToyClassificationSpec, seed_offset: int = 0):
    return gen_classification_data(spec, seed_offset=seed_offset, shift=OOD_SHIFT)


def perturb(inputs, kind: str, sigma: float | None = None, seed: int = 0) -> np.ndarray:
    """Perturbed copy of the inputs.

    The one kind is ``gaussian_noise``: additive noise with std ``sigma``.
    """
    if kind != "gaussian_noise":
        raise BadKindError(f"unknown perturbation kind {kind!r}")
    if sigma is None or not 0 <= sigma < np.inf:
        raise ValueError(f"gaussian_noise needs a finite sigma >= 0, got {sigma}")
    x = np.asarray(inputs, dtype=np.float64)
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + rng.normal(scale=sigma, size=x.shape)


@dataclass(frozen=True)
class EnsembleModel:
    members: tuple[MlpModel, ...]

    def __post_init__(self):
        dims = {m.layer_dims for m in self.members}
        if len(dims) != 1:
            raise ValueError("ensemble members must share one architecture")


def train_ensemble(x, y, layer_dims, head=REGRESSION, cfg: MlpTrainConfig | None = None,
                   base_seed: int = 0) -> EnsembleModel:
    """Train 10 identical architectures from the seeds ``base_seed`` on.

    Members train in lockstep (vectorized over the member axis), which is
    equivalent to independent runs with a shared epoch budget.
    """
    cfg = cfg or MlpTrainConfig()
    seeds = [base_seed + i for i in range(10)]
    members, _ = mlp_train_many(x, y, layer_dims, head, cfg, seeds)
    return EnsembleModel(members=tuple(members))


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    logp = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), 0.0)
    return -np.sum(probs * logp, axis=-1)


def ensemble_scores(ensemble: EnsembleModel, inputs):
    """(epistemic, aleatoric) per input from member disagreement.

    Classification: epistemic is the mutual information between the
    prediction and the member choice, H(mean p) - mean H(p); aleatoric is
    the mean member entropy, so the two add up to the entropy of the
    averaged predictive.  Regression: epistemic is the variance of the
    member means; aleatoric is zero (members are deterministic point
    predictors).
    """
    if len(ensemble.members) < 2:
        raise ValueError("ensemble needs at least 2 members")
    head = ensemble.members[0].head
    if head == CLASSIFICATION:
        probs = np.stack([mlp_predict(m, inputs) for m in ensemble.members])
        mean_probs = probs.mean(axis=0)
        total = _row_entropies(mean_probs)
        aleatoric = _row_entropies(probs).mean(axis=0)
        return total - aleatoric, aleatoric
    preds = np.stack([mlp_predict(m, inputs)[:, 0] for m in ensemble.members])
    return preds.var(axis=0), np.zeros(preds.shape[1])


@dataclass
class RegressionStudy:
    """Everything the toy regression pipeline produces for one seed."""

    spec: ToyRegressionSpec
    train_x: np.ndarray
    train_y: np.ndarray
    model: MlpModel
    mlp_losses: np.ndarray
    train_latents: np.ndarray
    train_predictions: np.ndarray
    flow: ConditionalFlow
    flow_log: FlowTrainLog
    prior: UniformPrior
    eval_x: np.ndarray
    predictions: np.ndarray
    scores: UncertaintyScores
    bands: list[ConfidenceRegion]
    ensemble_epistemic: np.ndarray | None = None

    def gap_mask(self) -> np.ndarray:
        lo, hi = self.spec.gap
        return (self.eval_x > lo) & (self.eval_x < hi)

    def train_region_mask(self) -> np.ndarray:
        return ~self.gap_mask()  # every eval input lies in X_RANGE


REGRESSION_MLP_DIMS = (1, 50, 50, 50, 50, 1)


def run_regression_study(
    spec: ToyRegressionSpec | None = None,
    with_ensemble: bool = False,
    ensemble_cfg: MlpTrainConfig | None = None,
) -> RegressionStudy:
    """Full toy regression pipeline.

    Trains the regressor on the gapped sinusoid, fits a conditional flow on
    penultimate-layer latents conditioned on the network's own predictions,
    assumes a uniform output prior, and scores a dense x grid with both
    uncertainties plus a predictive confidence band.  A prediction outside
    ``PRIOR_RANGE``, where that prior is 0, is a LuqError raised before any
    score or band is computed.  The support grid is made first, so one too
    large to allocate fails before any training.

    With ``with_ensemble``, and when ``_pool.worker_count`` allows two
    threads, the regressor trains on a ``_pool.worker_pool`` thread beside
    the ensemble; otherwise both train in the calling thread.  The ensemble,
    the larger allocator, always trains in the calling thread, so that the
    flow fit reuses the memory it frees; on a worker it raised the toy's
    peak memory.  Both fits finish before the flow fit starts.  Every fit is
    deterministic and seeded, so the study does not depend on the number of
    threads.
    """
    spec = spec or ToyRegressionSpec()
    prior = UniformPrior(*PRIOR_RANGE)
    grid = SupportGrid.from_range(*PRIOR_RANGE, spec.grid_points)
    eval_x = np.linspace(*X_RANGE, spec.eval_points)
    train_x, train_y = gen_regression_data(spec)

    regressor_args = (train_x, train_y, REGRESSION_MLP_DIMS, REGRESSION,
                      MlpTrainConfig(seed=spec.seed))
    regressor = ensemble = None
    if with_ensemble:
        ensemble_cfg = ensemble_cfg or MlpTrainConfig(max_epochs=600, seed=spec.seed)
        with worker_pool(1) as pool:
            if worker_count(2) > 1:
                regressor = pool.submit(mlp_train, *regressor_args)
            ensemble = train_ensemble(train_x, train_y, REGRESSION_MLP_DIMS, REGRESSION,
                                      ensemble_cfg, base_seed=spec.seed * 1000 + 1)
    if regressor is not None:
        model, losses = regressor.result()
    else:
        model, losses = mlp_train(*regressor_args)

    train_latents = latent_extract(model, model.n_hidden - 1, train_x)
    train_preds = mlp_predict(model, train_x)[:, 0]

    # full batch; the modest epoch budget keeps the conditioning soft so the
    # posterior over outputs stays wider than the regressor's error
    flow, flow_log = flow_train(train_latents, train_preds, FlowTrainConfig(
        batch_size=spec.n_train, max_epochs=40, seed=spec.seed))

    eval_latents = latent_extract(model, model.n_hidden - 1, eval_x[:, None])
    predictions = mlp_predict(model, eval_x[:, None])[:, 0]
    outside = (predictions < PRIOR_RANGE[0]) | (predictions > PRIOR_RANGE[1])
    if outside.any():
        i = int(np.argmax(outside))
        raise LuqError(f"prediction {predictions[i]:g} at x={eval_x[i]:g} lies outside the "
                       f"output range {PRIOR_RANGE[0]:g}:{PRIOR_RANGE[1]:g} of the toy's prior")
    scores = score_regression(flow, prior, grid, eval_latents, keep_posteriors=True)

    bands = []
    for i in range(eval_x.size):
        post = RegressionPosterior(
            grid=grid, density=scores.posterior[i], log_marginal=-scores.epistemic[i]
        )
        bands.append(confidence_region(post, float(predictions[i]), spec.band_mass))

    ens_epi = None
    if ensemble is not None:
        ens_epi, _ = ensemble_scores(ensemble, eval_x[:, None])

    return RegressionStudy(
        spec=spec,
        train_x=train_x,
        train_y=train_y,
        model=model,
        mlp_losses=losses,
        train_latents=train_latents,
        train_predictions=train_preds,
        flow=flow,
        flow_log=flow_log,
        prior=prior,
        eval_x=eval_x,
        predictions=predictions,
        scores=scores,
        bands=bands,
        ensemble_epistemic=ens_epi,
    )


@dataclass
class ClassificationStudy:
    """Artifacts of the toy classification pipeline for one seed."""

    spec: ToyClassificationSpec
    model: MlpModel
    density: ClassConditionalGmm
    prior: CategoricalPrior
    latent_layer: int
    train_x: np.ndarray
    train_labels: np.ndarray
    train_latents: np.ndarray
    train_predicted: np.ndarray
    test_x: np.ndarray
    test_labels: np.ndarray
    test_scores: UncertaintyScores
    test_predictions: np.ndarray

    def score_inputs(self, x) -> UncertaintyScores:
        return score_classification(self.density, self.prior,
                                    latent_extract(self.model, self.latent_layer, x))


CLASSIFICATION_MLP_HIDDEN = (50, 50)
# the per-class GMMs' options; the study's seed replaces the EM seed
CLASSIFICATION_EM = EmOptions(n_components=20, cov_reg=1e-4)


def run_classification_study(
    spec: ToyClassificationSpec | None = None,
    em_opts: EmOptions | None = None,
    latent_layer: int = 0,
) -> ClassificationStudy:
    """Full toy classification pipeline.

    Trains a small classifier on the blobs, fits one GMM per *predicted*
    class on hidden-layer latents, estimates the class prior by counting
    the predicted labels, and scores a held-out test set.

    ``latent_layer`` defaults to the first hidden layer.
    """
    spec = spec or ToyClassificationSpec()
    train_x, train_labels = gen_classification_data(spec)
    test_x, test_labels = gen_classification_data(spec, seed_offset=1)

    dims = (2, *CLASSIFICATION_MLP_HIDDEN, N_CLASSES)
    model, _ = mlp_train(train_x, train_labels, dims, CLASSIFICATION,
                         MlpTrainConfig(max_epochs=800, seed=spec.seed))

    latents = latent_extract(model, latent_layer, train_x)
    predicted = mlp_predict(model, train_x).argmax(axis=1)

    em_opts = em_opts or replace(CLASSIFICATION_EM, seed=spec.seed)
    density = fit_class_conditional(latents, predicted, em_opts,
                                    classes=range(N_CLASSES))
    prior = fit_categorical(predicted, classes=range(N_CLASSES))

    return ClassificationStudy(
        spec=spec,
        model=model,
        density=density,
        prior=prior,
        latent_layer=latent_layer,
        train_x=train_x,
        train_labels=train_labels,
        train_latents=latents,
        train_predicted=predicted,
        test_x=test_x,
        test_labels=test_labels,
        test_scores=score_classification(density, prior,
                                         latent_extract(model, latent_layer, test_x)),
        test_predictions=mlp_predict(model, test_x).argmax(axis=1),
    )
