"""Uncertainty quantification from the density of latent representations.

Fits output-conditional densities (per-class Gaussian mixtures or a
conditional normalizing flow) and an output prior on training-set features,
then scores new feature vectors with the surprisal -log p(z) (epistemic
uncertainty) and the entropy of the Bayes posterior over outputs
(aleatoric uncertainty).

Independent fits run concurrently on worker threads, which ``luq._pool``
sizes; ``LUQ_THREADS`` caps them and the BLAS pools.  The cap is copied
into the pools' variables here, before numpy first loads them.
"""

import os

from ._pool import POOL_VARS, thread_cap


def _apply_thread_cap():
    try:
        cap = thread_cap()
    except ValueError:
        return
    if cap:
        for var in POOL_VARS:
            os.environ.setdefault(var, str(cap))


_apply_thread_cap()

from .engine import (
    ConfidenceRegion,
    RegressionPosterior,
    SupportGrid,
    UncertaintyScores,
    aleatoric_classification,
    aleatoric_regression,
    confidence_region,
    epistemic_classification,
    epistemic_regression,
    score_classification,
    score_regression,
)
from .flow import (
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
from .gmm import (
    ClassConditionalGmm,
    EmOptions,
    GaussianComponent,
    Gmm,
    em_fit,
    fit_class_conditional,
    gmm_log_prob,
)
from .linalg import (
    CholeskyFactor,
    PcaModel,
    cholesky,
    log_det,
    logsumexp,
    pca_fit,
    pca_transform,
)
from .metrics import (
    CalibrationCurve,
    auroc,
    average_precision,
    calibration_curve,
    discrete_entropy,
    fpr_at_tpr,
    rmse_below_uncertainty,
)
from .mlp import (
    MlpModel,
    MlpTrainConfig,
    latent_extract,
    mlp_init,
    mlp_predict,
    mlp_train,
)
from .priors import (
    BetaPrimePrior,
    CategoricalPrior,
    HistogramPrior,
    OutputPrior,
    UniformPrior,
    betaprime_fit_mom,
    fit_categorical,
    fit_histogram,
)
from .toy import (
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

__version__ = "0.1.0"
