"""Uncertainty quantification from the density of latent representations.

Fits output-conditional densities (per-class Gaussian mixtures or a
conditional normalizing flow) and an output prior on training-set features,
then scores new feature vectors with the surprisal -log p(z) (epistemic
uncertainty) and the entropy of the Bayes posterior over outputs
(aleatoric uncertainty).

The public names below are served from their submodules, and a submodule
loads on first use (PEP 562): ``import luq`` loads none of them, and each
``luq`` command imports only the modules it runs.

Independent fits and the blocks of GMM scoring run concurrently on worker
threads, which ``luq._pool`` sizes; ``LUQ_THREADS`` caps them and the BLAS
pools.  The cap is copied into the pools' variables here, before numpy
first loads them.  With neither ``LUQ_THREADS`` nor a pool variable set,
and numpy not yet loaded, as in the ``luq`` command, the pools get one
thread, so the default outputs do not depend on how many CPUs the machine
has, and the CPUs go to luq's workers.  A pool variable that is already
set wins.
"""

import importlib
import os
import sys

from ._pool import POOL_VARS, thread_cap


def _apply_thread_cap():
    try:
        cap = thread_cap()
    except ValueError:
        return
    # once numpy is loaded its BLAS pool is sized, and a variable set now
    # would only misstate it to ``_pool.worker_count``
    if cap is None and "numpy" not in sys.modules and not any(
            os.environ.get(var) for var in POOL_VARS):
        cap = 1
    if cap:
        for var in POOL_VARS:
            os.environ.setdefault(var, str(cap))


_apply_thread_cap()

_EXPORTS = {
    "engine": """ConfidenceRegion RegressionPosterior SupportGrid UncertaintyScores
        aleatoric_classification aleatoric_regression confidence_region
        epistemic_classification epistemic_regression score_classification
        score_regression""",
    "errors": "",
    "flow": """ConditionalFlow FlowArchitecture FlowTrainConfig build_flow flow_condition
        flow_forward flow_gradients flow_inverse flow_log_prob flow_nll flow_train""",
    "gmm": """ClassConditionalGmm EmOptions GaussianComponent Gmm em_fit
        fit_class_conditional gmm_log_prob""",
    "linalg": "CholeskyFactor PcaModel cholesky log_det logsumexp pca_fit pca_transform",
    "metrics": """CalibrationCurve auroc average_precision calibration_curve
        discrete_entropy fpr_at_tpr rmse_below_uncertainty""",
    "mlp": "MlpModel MlpTrainConfig latent_extract mlp_init mlp_predict mlp_train",
    "priors": """BetaPrimePrior CategoricalPrior HistogramPrior OutputPrior UniformPrior
        betaprime_fit_mom fit_categorical fit_histogram""",
    "toy": """EnsembleModel ToyClassificationSpec ToyRegressionSpec ensemble_scores
        gen_classification_data gen_ood_data gen_regression_data perturb
        regression_target run_classification_study run_regression_study
        train_ensemble""",
}
# public name -> the submodule that defines it; a submodule's name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names.split())}


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    return module if name == _SOURCE[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_SOURCE})


__version__ = "0.1.0"
