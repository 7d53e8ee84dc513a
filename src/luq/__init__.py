"""Uncertainty quantification from the density of latent representations.

Fits output-conditional densities (per-class Gaussian mixtures or a
conditional normalizing flow) and an output prior on training-set features,
then scores new feature vectors with the surprisal -log p(z) (epistemic
uncertainty) and the entropy of the Bayes posterior over outputs
(aleatoric uncertainty).

Fits that do not depend on each other (the per-class mixtures, and the toy
regressor beside its ensemble) run concurrently on worker threads, as many
as the CPUs that the BLAS threads leave free: with one BLAS thread, one
worker per CPU.  Each fit is deterministic, so the results do not depend on
the number of workers.

``LUQ_THREADS``, a positive integer, caps both luq's worker threads and the
BLAS thread pools.  It is copied into the pools' environment variables here,
before numpy is first imported, because the pools read them once at
start-up; explicitly set pool variables win.  A value that is not a
positive integer is left out of the BLAS variables; the ``luq`` command
rejects it as a usage error and a fit raises ValueError.
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
