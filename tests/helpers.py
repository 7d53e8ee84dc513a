"""Hand-constructed exact models used as oracles in several test modules."""

import math

import numpy as np

from luq.flow import ConditionalFlow, CouplingLayer, ReluNet
from luq.gmm import ClassConditionalGmm, GaussianComponent, Gmm
from luq.linalg import cholesky
from luq.priors import CategoricalPrior


def gaussian_1d_gmm(mean, var):
    comp = GaussianComponent(
        log_weight=0.0, mean=np.array([mean]), cov_chol=cholesky(np.array([[var]]))
    )
    return Gmm(dim=1, components=(comp,))


def gmm_with_logdensity_at_zero(target):
    """1-D Gaussian centered at 0 whose log density at 0 is exactly
    ``target``: solve -0.5 (log 2 pi + log s2) = target for s2."""
    var = math.exp(-2.0 * target) / (2 * math.pi)
    return gaussian_1d_gmm(0.0, var)


def two_class_density(log_dens_a=-1.0, log_dens_b=-2.0):
    return ClassConditionalGmm(
        dim=1,
        classes=(0, 1),
        per_class={
            0: gmm_with_logdensity_at_zero(log_dens_a),
            1: gmm_with_logdensity_at_zero(log_dens_b),
        },
    )


def uniform_prior_over(classes):
    k = len(classes)
    return CategoricalPrior(classes=tuple(classes), log_probs=np.full(k, -math.log(k)))


def gaussian_conditional_flow(scale_log=0.0):
    """Exact 1-D conditional flow with p(z | y) = N(y, exp(-2 s)) where
    s = ``scale_log``: the forward map is u = (z - y) exp(s).

    The translate net realizes -y as relu(y) mapped through [-1, 1] minus
    relu(-y); the scale net is constant via its output bias.
    """
    alpha = 2.0
    cond = ReluNet(weights=[np.array([[1.0, -1.0]])], biases=[np.zeros(2)])
    translate = ReluNet(
        weights=[np.zeros((0, 2)), np.array([[-1.0], [1.0]])],
        biases=[np.zeros(2), np.zeros(1)],
        lift=np.eye(2),
    )
    scale = ReluNet(
        weights=[np.zeros((0, 2)), np.zeros((2, 1))],
        biases=[np.zeros(2), np.array([alpha * np.arctanh(scale_log / alpha)])],
        lift=np.zeros((2, 2)),
    )
    layer = CouplingLayer(
        part1=np.array([], dtype=np.intp),
        part2=np.array([0], dtype=np.intp),
        scale_net=scale,
        translate_net=translate,
        cond_net=cond,
        scale_clamp=alpha,
    )
    return ConditionalFlow(dim=1, cond_dim=1, layers=[layer])


def condition_free_flow():
    """1-D flow whose density ignores the condition: p(z | y) = N(0, 1)."""
    flow = gaussian_conditional_flow(0.0)
    flow.layers[0].translate_net.lift[:] = 0.0
    return flow
