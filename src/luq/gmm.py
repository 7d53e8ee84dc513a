"""Gaussian mixture density estimation via EM, plus the per-class bundle
used to model the output-conditional latent density for classification.

One kernel, ``_log_joint``, scores every component from stacked log-weights
(k,), means (k, d) and lower Cholesky factors (k, d, d), in one stacked
product over all components per block of ``CHUNK`` rows, each mean folded
into its whitening matrix; EM's E-step and ``gmm_log_prob`` both call it.
EM's M-step sums its k scatters over the same blocks, one stacked product
of the (k, d, CHUNK) weighted residuals per block; a pass of either holds
one such array, never a (k, d, n) stack.  The kernel and EM hold the rows feature-major, (d, n),
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
from .linalg import LOG_2PI, CholeskyFactor, as_matrix, logsumexp, row_blocks

# Rows per pass of the stacked kernel and of EM's scatter sums: a pass holds
# (k, d, CHUNK) arrays, not (k, d, n).  A constant, so that the passes do not
# depend on the caller.
# Of the sizes measured on the benchmark's GMM scoring, 384 was the fastest:
# smaller chunks and larger ones, and a loop over the components, were slower.
CHUNK = 384

FULL_COVARIANCE = "full"
TIED_COVARIANCE = "tied"


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
        if sorted(self.classes) != sorted(self.per_class):
            raise ValueError(f"the classes {list(self.classes)} are not those with a "
                             f"density, {sorted(self.per_class)}, each once")
        for c in self.classes:
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
            raise ValueError(f"covariance_mode must be {FULL_COVARIANCE!r} or "
                             f"{TIED_COVARIANCE!r}, got {self.covariance_mode!r}")


def _log_joint(xt: np.ndarray, log_w: np.ndarray, means: np.ndarray,
               lowers: np.ndarray) -> np.ndarray:
    """(k, n) matrix of log w_j + log N(x | mean_j, L_j L_j^T) for rows held
    as the columns of ``xt`` (d, n), over stacked log-weights (k,), means
    (k, d) and lower Cholesky factors (k, d, d).

    The factor stack is inverted once, and each inverse gets the whitened
    offset of its mean as a last column, -L_j^-1 (mu_j - c), about c, the
    mean of the means.  Each block of ``CHUNK`` rows (``linalg.row_blocks``)
    is centred once at c, given a row of ones, and whitened for all
    components in one stacked GEMM, L_j^-1 (x - c) - L_j^-1 (mu_j - c):
    several times faster than a triangular solve.  The fold rounds each
    whitened residual to a few units in the last place of
    ||L_j^-1 (x - c)|| + D_j, D_j = ||L_j^-1 (mu_j - c)||, not of the
    residual itself: near a mean that lies D_j whitened units from c, the
    log density is good to about D_j * eps rather than eps.  Each
    component's product and sums are the ones a loop over the components
    would run on that block, bit for bit.  A pass holds one (k, d, CHUNK)
    product, freed before the next pass makes its own.  A residual too
    large to square gives the log density -inf, with no warning.
    """
    k, d = means.shape
    inv = np.linalg.inv(lowers)
    centre = np.mean(means, axis=0)
    folded = np.concatenate([inv, -(inv @ (means - centre)[:, :, None])], axis=2)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(lowers, axis1=1, axis2=2)), axis=1)
    consts = (d * LOG_2PI + log_dets)[:, None]
    out = np.empty((k, xt.shape[1]))
    with np.errstate(over="ignore"):
        for lo, hi in row_blocks(xt.shape[1], CHUNK):
            block = np.ones((d + 1, hi - lo))
            np.subtract(xt[:, lo:hi], centre[:, None], out=block[:d])
            sol = folded @ block
            quad = np.einsum("kdm,kdm->km", sol, sol)
            quad += consts
            quad *= 0.5
            np.subtract(log_w[:, None], quad, out=out[:, lo:hi])
            del sol, block
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

    The mean log-likelihood is recorded at each iteration (``Gmm.em_log``).
    An exact M-step would never lower it; the covariance ridge makes the
    step inexact, so it may fall slightly, as for a component that
    collapses onto a few rows.  Fitting stops at the first value that
    exceeds the one before by less than ``opts.tol`` relative, a fall
    included, or after ``opts.max_iter`` iterations.  A component whose
    responsibility mass underflows is re-seeded from the point the current
    model finds most surprising, with uniform weights and the initial
    covariance; the step after a re-seed is never taken as convergence,
    since the model was changed by fiat.  The fit fails with
    DegenerateComponentError if the same component needs that recovery a
    third time.
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
    reseeded = False

    xt = np.ascontiguousarray(x.T)
    for it in range(opts.max_iter + 1):  # the last pass only records the likelihood
        joint = _log_joint(xt, log_w, means, lowers)
        row_ll = logsumexp(joint, axis=0)
        history.append(float(np.mean(row_ll)))
        converged = (it > 0 and not reseeded
                     and history[-1] - history[-2] < opts.tol * abs(history[-2]))
        if converged or it == opts.max_iter:
            break

        resp = np.exp(joint - row_ll)
        mass = resp.sum(axis=1)
        dead = np.nonzero(mass < 1e-10)[0]
        reseeded = dead.size > 0
        if reseeded:
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
        scatters = np.zeros((k, d, d))
        for lo, hi in row_blocks(n, CHUNK):  # (k, d, CHUNK) residuals at a time
            w = xt[:, lo:hi] - means[:, :, None]
            w *= np.sqrt(resp[:, None, lo:hi])
            scatters += w @ w.transpose(0, 2, 1)
            del w
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
    long-tail label distributions.  ``classes`` declares the class set
    (the labels present by default); a label outside it is a ValueError, as
    in ``fit_categorical``.  A class with no rows is a ClassTooSmallError;
    a singular covariance (``cov_reg`` 0 on a constant feature) is a
    NotPositiveDefiniteError that names the class.

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
    present = {int(c) for c in np.unique(labels)}
    class_list = sorted(present if classes is None else {int(c) for c in classes})
    if not present <= set(class_list):
        raise ValueError("labels contain ids outside the declared class set")
    fits = []
    for c in class_list:
        rows = x[labels == c]
        count = rows.shape[0]
        if count == 0:
            raise ClassTooSmallError(f"class {c} has only 0 sample(s)")
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
