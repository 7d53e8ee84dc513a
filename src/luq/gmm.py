"""Gaussian mixture density estimation via EM, plus the per-class bundle
used to model the output-conditional latent density for classification.

All responsibilities and likelihoods are handled in log space; covariances
carry an explicit ridge (``cov_reg``) so long-tailed or tiny classes stay
positive definite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ClassTooSmallError,
    DegenerateComponentError,
    DimMismatchError,
    TooFewSamplesError,
)
from .linalg import CholeskyFactor, as_matrix, cholesky, log_det, logsumexp

LOG_2PI = float(np.log(2.0 * np.pi))

FULL_COVARIANCE = "full_per_component"
TIED_COVARIANCE = "tied_across_components"


@dataclass(frozen=True)
class GaussianComponent:
    log_weight: float
    mean: np.ndarray
    cov_chol: CholeskyFactor


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
        total = logsumexp(np.array([c.log_weight for c in self.components]))
        if abs(total) > 1e-9:
            raise ValueError(f"mixture weights sum to exp({total}), not 1")


@dataclass(frozen=True)
class ClassConditionalGmm:
    """One mixture per predicted class, all sharing the feature dimension."""

    dim: int
    classes: tuple[int, ...]
    per_class: dict[int, Gmm]

    def __post_init__(self):
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
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.cov_reg < 0:
            raise ValueError("cov_reg must be >= 0")
        if self.covariance_mode not in (FULL_COVARIANCE, TIED_COVARIANCE):
            raise ValueError(f"unknown covariance_mode {self.covariance_mode!r}")


def _component_log_pdf(x: np.ndarray, mean: np.ndarray, chol: CholeskyFactor) -> np.ndarray:
    """Per-row Gaussian log density, via the whitened residual
    ||(x - mu) L^-T||^2.

    An explicit inverse of the d x d factor and one GEMM beat a
    triangular solve over the rows by several times, at equal accuracy.
    """
    d = mean.size
    sol = (x - mean) @ np.linalg.inv(chol.lower).T
    quad = np.sum(sol * sol, axis=1)
    return -0.5 * (d * LOG_2PI + log_det(chol) + quad)


def _joint_log_probs(x, means, chols, log_w) -> np.ndarray:
    """(n, k) matrix of log_weight_k + log N_k(x_i)."""
    cols = [
        log_w[j] + _component_log_pdf(x, means[j], chols[j])
        for j in range(len(chols))
    ]
    return np.stack(cols, axis=1)


def gmm_log_prob(g: Gmm, z) -> float | np.ndarray:
    """Mixture log density, in nats.

    Accepts a single vector (returns float) or an (n, dim) batch
    (returns an array of n values).
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != g.dim:
        raise DimMismatchError(f"expected vectors of length {g.dim}, got {z.shape}")
    means = [c.mean for c in g.components]
    chols = [c.cov_chol for c in g.components]
    log_w = np.array([c.log_weight for c in g.components])
    out = logsumexp(_joint_log_probs(z, means, chols, log_w), axis=1)
    return float(out[0]) if single else out


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


def _regularized_cov(scatter: np.ndarray, reg: float) -> np.ndarray:
    cov = 0.5 * (scatter + scatter.T)
    cov[np.diag_indices_from(cov)] += reg
    return cov


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
    if n > 1:
        global_cov = np.cov(x, rowvar=False).reshape(d, d)
    else:
        global_cov = np.zeros((d, d))
    init_cov = _regularized_cov(global_cov, max(opts.cov_reg, 1e-12))
    init_chol = cholesky(init_cov)
    chols = [init_chol] * k
    log_w = np.full(k, -np.log(k))

    tied = opts.covariance_mode == TIED_COVARIANCE
    history: list[float] = []
    recoveries = np.zeros(k, dtype=int)

    for _ in range(opts.max_iter):
        joint = _joint_log_probs(x, means, chols, log_w)
        row_ll = logsumexp(joint, axis=1)
        mean_ll = float(np.mean(row_ll))
        if history and mean_ll - history[-1] < opts.tol * abs(history[-1]):
            history.append(mean_ll)
            break
        history.append(mean_ll)

        resp = np.exp(joint - row_ll[:, None])
        mass = resp.sum(axis=0)
        dead = np.nonzero(mass < 1e-10)[0]
        if dead.size:
            for j in dead:
                recoveries[j] += 1
                if recoveries[j] > 2:
                    raise DegenerateComponentError(
                        f"component {j} lost all responsibility mass repeatedly"
                    )
                means[j] = x[int(np.argmin(row_ll))]
                chols[j] = init_chol
            log_w = np.full(k, -np.log(k))
            continue

        means = (resp.T @ x) / mass[:, None]
        if tied:
            pooled = np.zeros((d, d))
            for j in range(k):
                diff = x - means[j]
                pooled += (diff * resp[:, j : j + 1]).T @ diff
            shared = cholesky(_regularized_cov(pooled / n, opts.cov_reg))
            chols = [shared] * k
        else:
            new_chols = []
            for j in range(k):
                diff = x - means[j]
                scatter = (diff * resp[:, j : j + 1]).T @ diff / mass[j]
                new_chols.append(cholesky(_regularized_cov(scatter, opts.cov_reg)))
            chols = new_chols
        log_w = np.log(mass / n)
    else:
        joint = _joint_log_probs(x, means, chols, log_w)
        history.append(float(np.mean(logsumexp(joint, axis=1))))

    components = tuple(
        GaussianComponent(log_weight=float(log_w[j]), mean=means[j].copy(), cov_chol=chols[j])
        for j in range(k)
    )
    return Gmm(dim=d, components=components, em_log=tuple(history))


def fit_class_conditional(
    features,
    predicted_labels,
    opts: EmOptions,
    classes=None,
    reduce_small_classes: bool = True,
) -> ClassConditionalGmm:
    """Fit one mixture per predicted class on that class's feature rows.

    Classes with fewer rows than ``opts.n_components`` get their component
    count reduced to floor(count/2) (minimum 1) with a warning, mirroring
    long-tail label distributions; pass ``reduce_small_classes=False`` to
    make that case raise ClassTooSmallError instead.
    """
    x = as_matrix(features)
    labels = np.asarray(predicted_labels).astype(np.int64).ravel()
    if labels.size != x.shape[0]:
        raise DimMismatchError(
            f"{labels.size} labels for {x.shape[0]} feature rows"
        )
    if classes is None:
        class_list = [int(c) for c in np.unique(labels)]
    else:
        class_list = sorted(set(int(c) for c in classes))
    per_class: dict[int, Gmm] = {}
    for c in class_list:
        rows = x[labels == c]
        count = rows.shape[0]
        if count == 0:
            raise ClassTooSmallError(c, 0)
        k = opts.n_components
        if count < k:
            if not reduce_small_classes:
                raise ClassTooSmallError(c, count)
            k = max(1, count // 2)
            warnings.warn(
                f"class {c} has {count} samples; reducing components "
                f"{opts.n_components} -> {k}"
            )
        per_class[c] = em_fit(rows, replace(opts, n_components=k))
    return ClassConditionalGmm(dim=x.shape[1], classes=tuple(class_list), per_class=per_class)
