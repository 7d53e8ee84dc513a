"""Gaussian mixture density estimation via EM, plus the per-class bundle
used to model the output-conditional latent density for classification.

One kernel, ``_log_joint``, scores every component from stacked log-weights
(k,), means (k, d) and lower Cholesky factors (k, d, d); EM's E-step and
``gmm_log_prob`` both call it.  Both hold the rows feature-major, (d, n),
and EM its responsibilities as (k, n), so that numpy's element-wise passes
run along the n rows and not along the short feature axis d.  EM keeps its
parameters as stacks and builds the ``GaussianComponent`` objects once.

All responsibilities and likelihoods are handled in log space; covariances
carry an explicit ridge (``cov_reg``) so long-tailed or tiny classes stay
positive definite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._pool import worker_pool
from .errors import (
    ClassTooSmallError,
    DegenerateComponentError,
    DimMismatchError,
    NotPositiveDefiniteError,
    TooFewSamplesError,
)
from .linalg import CholeskyFactor, as_matrix, logsumexp

LOG_2PI = float(np.log(2.0 * np.pi))

FULL_COVARIANCE = "full_per_component"
TIED_COVARIANCE = "tied_across_components"


@dataclass(frozen=True)
class GaussianComponent:
    log_weight: float
    mean: np.ndarray
    cov_chol: CholeskyFactor

    def __post_init__(self):
        if np.shape(self.mean) != (self.cov_chol.dim,):
            raise DimMismatchError(f"component mean has shape {np.shape(self.mean)}, "
                                   f"covariance factor is {self.cov_chol.dim}-D")
        if not np.isfinite(self.mean).all():
            raise ValueError("component mean is not finite")


@dataclass(frozen=True)
class Gmm:
    """Mixture of full-covariance Gaussians.

    ``em_log`` records the mean training log-likelihood at each EM iteration
    (first entry is the value at initialization); it is excluded from
    equality and from serialization.
    """

    dim: int
    components: tuple[GaussianComponent, ...]
    em_log: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(c.cov_chol.dim != self.dim for c in self.components):
            raise DimMismatchError(f"a component is not {self.dim}-D")
        total = logsumexp(np.array([c.log_weight for c in self.components]))
        if not abs(total) <= 1e-9:
            raise ValueError(f"mixture weights sum to exp({total}), not 1")


@dataclass(frozen=True)
class ClassConditionalGmm:
    """One mixture per predicted class, all sharing the feature dimension."""

    dim: int
    classes: tuple[int, ...]
    per_class: dict[int, Gmm]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("the density holds no classes")
        for c in self.classes:
            if c not in self.per_class:
                raise ValueError(f"class {c} has no density")
            if self.per_class[c].dim != self.dim:
                raise DimMismatchError(f"class {c} density has wrong dimension")


@dataclass(frozen=True)
class EmOptions:
    n_components: int = 1
    max_iter: int = 200
    tol: float = 1e-6
    cov_reg: float = 1e-6
    covariance_mode: str = FULL_COVARIANCE
    seed: int = 0

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not 0.0 <= self.cov_reg < np.inf:
            raise ValueError("cov_reg must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.covariance_mode not in (FULL_COVARIANCE, TIED_COVARIANCE):
            raise ValueError(f"unknown covariance_mode {self.covariance_mode!r}")


def _log_joint(xt: np.ndarray, log_w: np.ndarray, means: np.ndarray,
               lowers: np.ndarray) -> np.ndarray:
    """(k, n) matrix of log w_j + log N(x | mean_j, L_j L_j^T) for rows held
    as the columns of ``xt`` (d, n), over stacked log-weights (k,), means
    (k, d) and lower Cholesky factors (k, d, d).

    The factor stack is inverted once and each residual is whitened with one
    GEMM, ||L_j^-1 (x - mu_j)||^2: several times faster than a triangular
    solve, as accurate.  With rows as columns the residual, its square and
    the sum over d all run along n.  A residual too large to square gives
    the log density -inf, with no warning.
    """
    k, d = means.shape
    inv = np.linalg.inv(lowers)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(lowers, axis1=1, axis2=2)), axis=1)
    out = np.empty((k, xt.shape[1]))
    with np.errstate(over="ignore"):
        for j in range(k):
            sol = inv[j] @ (xt - means[j][:, None])
            out[j] = log_w[j] - 0.5 * (d * LOG_2PI + log_dets[j] + np.sum(sol * sol, axis=0))
    return out


def gmm_log_prob(g: Gmm, z) -> float | np.ndarray:
    """Mixture log density, in nats.

    Accepts a single vector (returns float) or an (n, dim) batch
    (returns an array of n values).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != g.dim:
        raise DimMismatchError(f"expected vectors of length {g.dim}, got {z.shape}")
    log_w = np.array([c.log_weight for c in g.components])
    means = np.array([c.mean for c in g.components])
    lowers = np.array([c.cov_chol.lower for c in g.components])
    zt = np.ascontiguousarray(np.atleast_2d(z).T)
    out = logsumexp(_log_joint(zt, log_w, means, lowers), axis=0)
    return float(out[0]) if z.ndim == 1 else out


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread the initial means over the data."""
    n = x.shape[0]
    means = np.empty((k, x.shape[1]))
    means[0] = x[rng.integers(n)]
    closest = np.sum((x - means[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        means[j] = x[idx]
        closest = np.minimum(closest, np.sum((x - means[j]) ** 2, axis=1))
    return means


def _factor(scatters: np.ndarray, reg: float) -> np.ndarray:
    """Lower Cholesky factors of a (k, d, d) stack of scatters, each
    symmetrized and given the ridge ``reg`` on its diagonal.  A pivot <= 0
    is a NotPositiveDefiniteError, as in ``linalg.cholesky``."""
    covs = 0.5 * (scatters + scatters.transpose(0, 2, 1))
    diag = np.arange(covs.shape[1])
    covs[:, diag, diag] += reg
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def em_fit(data, opts: EmOptions) -> Gmm:
    """Fit a Gaussian mixture by expectation-maximization.

    The recorded mean log-likelihood (``Gmm.em_log``) is non-decreasing
    across iterations; fitting stops when the relative improvement drops
    below ``opts.tol`` or after ``opts.max_iter`` iterations.  A component
    whose responsibility mass underflows is re-seeded from the point the
    current model finds most surprising; the fit fails only if that recovery
    is needed more than twice for the same component.
    """
    x = as_matrix(data)
    n, d = x.shape
    k = opts.n_components
    if n < k:
        raise TooFewSamplesError(f"{n} rows cannot support {k} components")
    if not np.all(np.isfinite(x)):
        raise ValueError("em_fit input has non-finite entries")

    rng = np.random.default_rng(opts.seed)
    means = _kmeanspp_means(x, k, rng)
    global_cov = np.cov(x, rowvar=False).reshape(1, d, d) if n > 1 else np.zeros((1, d, d))
    init_lower = _factor(global_cov, max(opts.cov_reg, 1e-12))
    lowers = np.repeat(init_lower, k, axis=0)
    log_w = np.full(k, -np.log(k))

    tied = opts.covariance_mode == TIED_COVARIANCE
    history: list[float] = []
    recoveries = np.zeros(k, dtype=int)

    xt = np.ascontiguousarray(x.T)
    for it in range(opts.max_iter + 1):  # the last pass only records the likelihood
        joint = _log_joint(xt, log_w, means, lowers)
        row_ll = logsumexp(joint, axis=0)
        history.append(float(np.mean(row_ll)))
        converged = it > 0 and history[-1] - history[-2] < opts.tol * abs(history[-2])
        if converged or it == opts.max_iter:
            break

        resp = np.exp(joint - row_ll)
        mass = resp.sum(axis=1)
        dead = np.nonzero(mass < 1e-10)[0]
        if dead.size:
            for j in dead:
                recoveries[j] += 1
                if recoveries[j] > 2:
                    raise DegenerateComponentError(
                        f"component {j} lost all responsibility mass repeatedly"
                    )
                means[j] = x[int(np.argmin(row_ll))]
                lowers[j] = init_lower[0]
            log_w = np.full(k, -np.log(k))
            continue

        means = (resp @ x) / mass[:, None]
        diffs = (xt - mu[:, None] for mu in means)  # one (d, n) residual at a time
        scatters = np.array([(diff * r) @ diff.T for diff, r in zip(diffs, resp)])
        if tied:  # a running sum in component order; ``sum`` goes pairwise when d = 1
            scatters = np.repeat(np.add.accumulate(scatters)[-1:], k, axis=0) / n
        else:
            scatters /= mass[:, None, None]
        lowers = _factor(scatters, opts.cov_reg)
        log_w = np.log(mass / n)

    components = tuple(GaussianComponent(float(w), mean, CholeskyFactor(d, lower))
                       for w, mean, lower in zip(log_w, means, lowers))
    return Gmm(dim=d, components=components, em_log=tuple(history))


def _fit_class(c: int, rows: np.ndarray, opts: EmOptions) -> Gmm:
    try:
        return em_fit(rows, opts)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"class {c}: {exc}") from exc


def fit_class_conditional(features, predicted_labels, opts: EmOptions,
                          classes=None) -> ClassConditionalGmm:
    """Fit one mixture per predicted class on that class's feature rows.

    Classes with fewer rows than ``opts.n_components`` get their component
    count reduced to floor(count/2) (minimum 1) with a warning, mirroring
    long-tail label distributions.  A class with no rows is a
    ClassTooSmallError; a singular covariance (``cov_reg`` 0 on a constant
    feature) is a NotPositiveDefiniteError that names the class.

    The rows are split and checked, and the warnings raised, in the calling
    thread in class order; the fits then run concurrently on a
    ``_pool.worker_pool``.  Each fit is deterministic, so the result does
    not depend on the number of workers.  When several classes fail, the
    lowest class id's error is raised.
    """
    x = as_matrix(features)
    labels = np.asarray(predicted_labels).astype(np.int64).ravel()
    if labels.size != x.shape[0]:
        raise DimMismatchError(f"{labels.size} labels for {x.shape[0]} feature rows")
    class_list = sorted({int(c) for c in (np.unique(labels) if classes is None else classes)})
    fits = []
    for c in class_list:
        rows = x[labels == c]
        count = rows.shape[0]
        if count == 0:
            raise ClassTooSmallError(c, 0)
        k = opts.n_components
        if count < k:
            k = max(1, count // 2)
            warnings.warn(f"class {c} has {count} samples; reducing components "
                          f"{opts.n_components} -> {k}")
        fits.append((c, rows, replace(opts, n_components=k)))
    with worker_pool(len(fits)) as pool:
        futures = [pool.submit(_fit_class, *fit) for fit in fits]
    per_class = {c: future.result() for c, future in zip(class_list, futures)}
    return ClassConditionalGmm(dim=x.shape[1], classes=tuple(class_list), per_class=per_class)
