"""Core uncertainty scoring.

Epistemic uncertainty is the surprisal -log p(z) of a latent vector under
the training-set latent density p(z) = sum_y w_y p(z|y) p(y); aleatoric
uncertainty is the entropy of the Bayes posterior p(y|z).  One kernel,
``_posterior_scores``, computes both from log p(z|y) + log p(y) and the
quadrature weights w_y: 1 for classes, trapezoid weights on a support grid
for scalar outputs.  A ``SupportGrid`` is its range and point count
(lo, hi, n); its points and spacing follow from them.  The single-row
``epistemic_*`` and ``aleatoric_*`` functions are views of
``score_classification`` and ``score_regression``.  Regression scoring
conditions the flow on the support grid once per call
(``flow.flow_condition``) and runs each latent row against that shared
conditioning.  All sums of densities run in log space with a max shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridTooCoarseWarning, MassUnreachableError, MissingClassDensityError
from .gmm import ClassConditionalGmm, gmm_log_prob
from .linalg import as_matrix
from .priors import CategoricalPrior, OutputPrior

if TYPE_CHECKING:  # flow loads where regression scoring runs, not for class scoring
    from .flow import ConditionalFlow


@dataclass(frozen=True)
class SupportGrid:
    """``n`` equidistant output values from ``lo`` to ``hi``, used for the
    regression marginalization; ``points`` and ``spacing`` follow from
    them."""

    lo: float
    hi: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    spacing: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.lo < self.hi and self.n >= 2):
            raise ValueError(f"a support grid needs lo < hi and at least 2 points, "
                             f"got [{self.lo}, {self.hi}] with {self.n}")
        object.__setattr__(self, "points", np.linspace(self.lo, self.hi, self.n))
        object.__setattr__(self, "spacing", (self.hi - self.lo) / (self.n - 1))

    @classmethod
    def from_range(cls, lo: float, hi: float, n: int) -> "SupportGrid":
        return cls(lo, hi, n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w

    def refined(self) -> "SupportGrid":
        """Same range at half the spacing (keeps the original points)."""
        return SupportGrid(self.lo, self.hi, 2 * self.n - 1)


@dataclass(frozen=True)
class ConfidenceRegion:
    lower: float
    upper: float
    mass: float


@dataclass(frozen=True)
class UncertaintyScores:
    """Per-sample (epistemic nats, aleatoric nats) plus the posterior the
    aleatoric entropy was computed from."""

    epistemic: np.ndarray
    aleatoric: np.ndarray
    posterior: np.ndarray | None = None

    def __post_init__(self):
        if len(self.epistemic) != len(self.aleatoric):
            raise ValueError("score vectors must have equal length")


def _posterior_scores(log_joint: np.ndarray, weights=1.0):
    """Scores from a (n, K) matrix of log p(z|y_k) + log p(y_k).

    ``weights`` are the quadrature weights of the K outputs: 1 for classes,
    the trapezoid weights for a support grid.  Returns, per row, -log p(z),
    the posterior entropy, and the posterior (a probability over classes,
    a density on a grid).  A row with p(z) = 0 gets +inf and NaN for both.

    Each row is shifted by its maximum before the weights enter, so a
    log-joint too large in size to hold log(weight) in its last bits (a
    latent far from the data) still gives a posterior that sums to 1.
    """
    top = np.max(log_joint, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0  # a row with p(z) = 0 has no finite maximum
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = log_joint - top
        log_norm = np.log(np.sum(weights * np.exp(shifted), axis=1, keepdims=True))
        log_post = shifted - log_norm
        post = np.exp(log_post)
        ent = -np.sum(np.where(post == 0.0, 0.0, weights * post * log_post), axis=1) + 0.0
    return -(top + log_norm)[:, 0], ent, post


def class_log_joint(d: ClassConditionalGmm, prior: CategoricalPrior, z) -> np.ndarray:
    """(n, K) matrix of log p(z|k) + log p(k) over the prior's classes."""
    missing = [c for c in prior.classes if c not in d.per_class]
    if missing:
        raise MissingClassDensityError(f"no density for classes {missing}")
    z = as_matrix(z)
    cols = [
        gmm_log_prob(d.per_class[c], z) + prior.log_probs[i]
        for i, c in enumerate(prior.classes)
    ]
    return np.stack(cols, axis=1)


def epistemic_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z):
    """-log p(z) by summing the class-conditional densities against the
    class prior."""
    single = np.asarray(z).ndim == 1
    epi = score_classification(d, prior, z).epistemic
    return float(epi[0]) if single else epi


def aleatoric_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z):
    """Entropy of the Bayes posterior over classes, plus that posterior."""
    single = np.asarray(z).ndim == 1
    s = score_classification(d, prior, z)
    if single:
        return float(s.aleatoric[0]), s.posterior[0]
    return s.aleatoric, s.posterior


def score_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z) -> UncertaintyScores:
    """Both classification scores for a batch, sharing one density pass."""
    epi, ent, post = _posterior_scores(class_log_joint(d, prior, z))
    return UncertaintyScores(epistemic=epi, aleatoric=ent, posterior=post)


@dataclass(frozen=True)
class RegressionPosterior:
    """Bayes posterior density over the support grid for one latent vector.

    ``log_marginal`` records the pre-normalization quadrature mass
    log p(z); the stored density is renormalized so it integrates to 1 on
    the grid exactly.
    """

    grid: SupportGrid
    density: np.ndarray
    log_marginal: float


def prior_on_grid(prior: OutputPrior, grid: SupportGrid) -> np.ndarray:
    """log p(y) at the grid points; a ValueError if the prior puts no mass
    on the grid, where no posterior exists."""
    log_prior_grid = prior.log_pdf(grid.points)
    if not np.any(log_prior_grid > -np.inf):
        raise ValueError(f"the prior puts no mass on the support grid "
                         f"[{grid.lo:g}, {grid.hi:g}]")
    return log_prior_grid


def score_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid,
                     z, keep_posteriors: bool = False) -> UncertaintyScores:
    """Both regression scores for a batch of latent vectors.

    The flow is conditioned on the grid once; each row is then scored
    against the whole grid with one flow call.  Pass ``keep_posteriors``
    to retain the (n, grid) posterior densities.  A grid on which the prior
    density is zero everywhere is a ValueError (``prior_on_grid``).
    """
    from .flow import flow_condition, flow_log_prob

    z = as_matrix(z)
    n = z.shape[0]
    log_prior_grid = prior_on_grid(prior, grid)
    cond = flow_condition(flow, grid.points[:, None])
    w = grid.trapezoid_weights()
    epi, ale = np.empty(n), np.empty(n)
    post = np.empty((n, grid.n)) if keep_posteriors else None
    for i in range(n):
        log_joint = flow_log_prob(flow, z[i:i + 1], cond) + log_prior_grid
        epi[i:i + 1], ale[i:i + 1], q = _posterior_scores(log_joint[None, :], w)
        if post is not None:
            post[i] = q[0]
    return UncertaintyScores(epistemic=epi, aleatoric=ale, posterior=post)


def epistemic_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid,
                         z, self_check: bool = False) -> float:
    """-log p(z) of one latent vector by trapezoid quadrature of
    p(z|y) p(y) over the grid.

    With ``self_check`` the quadrature is repeated at half the spacing and
    a GridTooCoarseWarning is emitted if the value moves by more than 1e-3.
    """
    z = np.reshape(z, (1, -1))
    value = float(score_regression(flow, prior, grid, z).epistemic[0])
    if self_check:
        moved = abs(score_regression(flow, prior, grid.refined(), z).epistemic[0] - value)
        if moved > 1e-3:
            warnings.warn(f"halving the grid spacing moved -log p(z) by {moved:.3e}",
                          GridTooCoarseWarning)
    return value


def aleatoric_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid, z):
    """Differential entropy of the posterior over outputs for one latent
    vector, plus the posterior itself.

    The entropy of a density may be negative; it is reported as-is.
    """
    s = score_regression(flow, prior, grid, np.reshape(z, (1, -1)), keep_posteriors=True)
    return float(s.aleatoric[0]), RegressionPosterior(grid, s.posterior[0], float(-s.epistemic[0]))


def confidence_region(posterior: RegressionPosterior, prediction: float,
                      mass: float) -> ConfidenceRegion:
    """Smallest symmetric-by-probability region around the prediction
    holding the target mass.

    Grid points are visited outward from the one nearest the prediction:
    that point, then one step right and one step left in turn, then what
    remains on the longer side.  The region ends at the first point at
    which the running sum of point masses, added in visit order, reaches
    the target, and spans the points visited so far.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")
    pts = posterior.grid.points
    if not pts[0] <= prediction <= pts[-1]:
        raise ValueError(f"prediction {prediction} outside the grid range")
    pm = posterior.grid.trapezoid_weights() * posterior.density
    if pm.sum() < mass - 1e-12:
        raise MassUnreachableError(
            f"grid holds {pm.sum():.6f} probability, target is {mass}"
        )
    i0 = int(np.argmin(np.abs(pts - prediction)))
    near = min(i0, pts.size - 1 - i0)  # steps to the nearer grid end
    steps = np.arange(1, near + 1)
    order = np.concatenate([[i0], np.column_stack([i0 + steps, i0 - steps]).ravel(),
                            np.arange(i0 + near + 1, pts.size),
                            np.arange(i0 - near - 1, -1, -1)])
    reached = ~(np.cumsum(pm[order]) < mass - 1e-12)
    if not reached.any():
        raise MassUnreachableError("both grid ends reached before the target mass")
    visited = order[:int(np.argmax(reached)) + 1]
    return ConfidenceRegion(
        lower=float(min(pts[visited.min()], prediction)),
        upper=float(max(pts[visited.max()], prediction)),
        mass=mass,
    )
