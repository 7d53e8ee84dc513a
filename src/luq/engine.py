"""Core uncertainty scoring.

Epistemic uncertainty is the surprisal -log p(z) of a latent vector under
the training-set latent density p(z) = sum_y w_y p(z|y) p(y); aleatoric
uncertainty is the entropy of the Bayes posterior p(y|z).  One kernel,
``_posterior_scores``, computes both from log p(z|y) + log p(y) and the
quadrature weights w_y: 1 for classes, trapezoid weights on a support grid
for scalar outputs.  A ``SupportGrid`` is its range and point count
(lo, hi, n); its points and spacing follow from them.  The single-row
``epistemic_*`` and ``aleatoric_*`` functions are views of
``score_classification`` and ``score_regression``.  Both scorers run on
worker threads (``_pool.worker_pool``), whose tasks return their rows:
classification takes log p(z|k) in one task per class and block of rows,
regression scores one block of latent rows per task.  Only the calling
thread writes the scores.  Regression conditions the flow on the
support grid once per call, in chunks of ``GRID_CHUNK`` points
(``flow.flow_condition``), and runs each latent row against those shared
chunks.  The scores do not depend on the number of workers, bit for bit.
All sums of densities run in log space with a max shift.

A grid end that lies strictly inside the prior's support can cut the
posterior off: the renormalized posterior then piles up against that end
and reads as falsely certain.  ``score_regression`` reports, per row, the
posterior density at each such end over the posterior's peak, a ratio that
does not shrink with the grid spacing, and leaves what to do about it to
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._pool import worker_pool
from .errors import (
    DimMismatchError,
    MassUnreachableError,
    MissingClassDensityError,
)
from .gmm import ClassConditionalGmm, gmm_log_prob
from .linalg import as_matrix, row_blocks
from .priors import CategoricalPrior, OutputPrior

if TYPE_CHECKING:  # flow loads where regression scoring runs, not for class scoring
    from .flow import ConditionalFlow

# Rows per classification scoring task, latent rows per regression scoring
# task, and grid points per conditioned chunk of the flow, whose forward
# pass then holds (GRID_CHUNK, hidden) arrays per thread.  Constants, not
# options, so that the work does not split by the machine or the worker
# count.
BLOCK = 4096
REGRESSION_BLOCK = 8
GRID_CHUNK = 256


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
        if not (self.lo < self.hi and np.isfinite(float(self.hi) - float(self.lo))
                and self.n >= 2):
            raise ValueError(f"a support grid needs lo < hi with a finite hi - lo and at "
                             f"least 2 points, got [{self.lo}, {self.hi}] with {self.n}")
        object.__setattr__(self, "points", np.linspace(self.lo, self.hi, self.n))
        object.__setattr__(self, "spacing", (self.hi - self.lo) / (self.n - 1))

    @classmethod
    def from_range(cls, lo: float, hi: float, n: int) -> "SupportGrid":
        return cls(lo, hi, n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class ConfidenceRegion:
    lower: float
    upper: float


@dataclass(frozen=True)
class UncertaintyScores:
    """Per-sample (epistemic nats, aleatoric nats) plus the posterior the
    aleatoric entropy was computed from.  Regression scores also carry
    ``end_ratio``, (n, 2): the posterior density at the lower and at the
    upper grid end over the posterior's peak on the grid, 0 at an end where
    the prior has no density just beyond the grid."""

    epistemic: np.ndarray
    aleatoric: np.ndarray
    posterior: np.ndarray | None = None
    end_ratio: np.ndarray | None = None

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


def epistemic_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z) -> float:
    """-log p(z) of one latent vector by summing the class-conditional
    densities against the class prior."""
    return float(score_classification(d, prior, np.reshape(z, (1, -1))).epistemic[0])


def aleatoric_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z):
    """Entropy of the Bayes posterior over classes for one latent vector,
    plus that posterior."""
    s = score_classification(d, prior, np.reshape(z, (1, -1)))
    return float(s.aleatoric[0]), s.posterior[0]


def score_classification(d: ClassConditionalGmm, prior: CategoricalPrior, z) -> UncertaintyScores:
    """Both classification scores for a batch, sharing one density pass
    over the (n, K) matrix of log p(z|k) + log p(k).

    The width of ``z`` and the class densities are checked first.  Each
    task on a ``_pool.worker_pool`` returns log p(z|k) of one class on one
    block of rows; the calling thread adds log p(k), writes the block into
    the matrix and takes the scores from it.  Blocks start at multiples of
    ``BLOCK``; a tail under ``BLOCK / 2`` rows joins the last block
    (``linalg.row_blocks``).  Each row is then computed bit for bit as in one
    pass over the batch, on any number of workers: the BLAS product steps
    through the rows in groups that divide ``BLOCK`` and takes a ragged
    last group apart, and a tiny block would take another path (one row is
    a matrix-vector product).
    """
    missing = [c for c in prior.classes if c not in d.per_class]
    if missing:
        raise MissingClassDensityError(f"no density for classes {missing}")
    z = as_matrix(z)
    if z.shape[1] != d.dim:
        raise DimMismatchError(f"expected vectors of length {d.dim}, got {z.shape}")
    blocks = row_blocks(z.shape[0], BLOCK)
    with worker_pool(len(blocks) * len(prior.classes)) as pool:
        futures = iter([pool.submit(gmm_log_prob, d.per_class[c], z[lo:hi])
                        for c in prior.classes for lo, hi in blocks])
    log_joint = np.empty((z.shape[0], len(prior.classes)))
    for i, log_prior in enumerate(prior.log_probs):
        for lo, hi in blocks:
            log_joint[lo:hi, i] = next(futures).result() + log_prior
    epi, ent, post = _posterior_scores(log_joint)
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


def _score_rows(z: np.ndarray, flow: ConditionalFlow, conds, log_prior_grid: np.ndarray,
                w: np.ndarray, cuts: np.ndarray, keep_posteriors: bool):
    """The regression scores of the rows of ``z``: epistemic, aleatoric,
    end ratios and, if ``keep_posteriors``, the posteriors (else None).  Each
    row runs against every conditioned chunk of the grid in turn; one
    posterior pass then takes the block's (rows, grid) log-joint."""
    from .flow import flow_log_prob

    log_joint = np.empty((z.shape[0], log_prior_grid.size))
    for i in range(z.shape[0]):
        lo = 0
        for cond in conds:
            log_joint[i, lo:lo + cond.rows] = flow_log_prob(flow, z[i:i + 1], cond)
            lo += cond.rows
    epi, ale, q = _posterior_scores(log_joint + log_prior_grid, w)
    ratio = cuts * q[:, [0, -1]] / np.max(q, axis=1, keepdims=True)
    return epi, ale, ratio, q if keep_posteriors else None


def score_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid,
                     z, keep_posteriors: bool = False) -> UncertaintyScores:
    """Both regression scores for a batch of latent vectors.

    The flow is conditioned on the grid once, in chunks of ``GRID_CHUNK``
    points that start at multiples of it, a tail under ``GRID_CHUNK / 2``
    points joining the last (``linalg.row_blocks``).  The rows are then
    scored on a ``_pool.worker_pool``, one task per block of
    ``REGRESSION_BLOCK`` rows that returns the block's scores, which the
    calling thread joins in row order; each row runs against the chunks with
    one flow call each, so its scores do not depend on the worker count.  Pass
    ``keep_posteriors`` to retain the (n, grid) posterior densities.  A grid
    on which the prior density is zero everywhere is a ValueError
    (``prior_on_grid``).  Each row's ``end_ratio`` counts a grid end only
    where the prior's density one float step beyond it is positive, so a
    grid that ends at the edge of a bounded prior reports 0 there.

    Each worker holds its own temporaries: the chunks bound them by
    ``GRID_CHUNK``, not by the grid's length, and the lean conditioning
    (``flow.flow_condition``) keeps a large grid's conditioning small.  On a
    grid longer than one chunk the chunks change the scores in the last bits
    against one pass per row, as OpenBLAS takes its small-matrix kernel for
    the smaller products.
    """
    from .flow import flow_condition

    z = as_matrix(z)
    log_prior_grid = prior_on_grid(prior, grid)
    conds = [flow_condition(flow, grid.points[lo:hi, None])
             for lo, hi in row_blocks(grid.n, GRID_CHUNK)]
    beyond = prior.log_pdf(np.nextafter([grid.lo, grid.hi], [-np.inf, np.inf]))
    cuts = beyond > -np.inf  # the grid ends that cut the prior's support
    w = grid.trapezoid_weights()
    starts = range(0, max(z.shape[0], 1), REGRESSION_BLOCK)  # no rows: one empty task
    with worker_pool(len(starts)) as pool:
        futures = [pool.submit(_score_rows, z[lo:lo + REGRESSION_BLOCK], flow, conds,
                               log_prior_grid, w, cuts, keep_posteriors) for lo in starts]
    epi, ale, ratio, post = zip(*(future.result() for future in futures))
    return UncertaintyScores(epistemic=np.concatenate(epi), aleatoric=np.concatenate(ale),
                             posterior=np.concatenate(post) if keep_posteriors else None,
                             end_ratio=np.concatenate(ratio))


def epistemic_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid,
                         z) -> float:
    """-log p(z) of one latent vector by trapezoid quadrature of
    p(z|y) p(y) over the grid."""
    return float(score_regression(flow, prior, grid, np.reshape(z, (1, -1))).epistemic[0])


def aleatoric_regression(flow: ConditionalFlow, prior: OutputPrior, grid: SupportGrid, z):
    """Differential entropy of the posterior over outputs for one latent
    vector, plus the posterior itself.

    The entropy of a density may be negative; it is reported as-is.
    """
    s = score_regression(flow, prior, grid, np.reshape(z, (1, -1)), keep_posteriors=True)
    return float(s.aleatoric[0]), RegressionPosterior(grid, s.posterior[0], float(-s.epistemic[0]))


def _visit_order(size: int, i0: int) -> np.ndarray:
    """The indices of a ``size``-point grid outward from ``i0``: ``i0``, one
    step right and one step left in turn, then the rest of the longer side.
    The sort key 2 |i - i0| - (i > i0) is distinct for every index."""
    offset = np.arange(size) - i0
    return np.argsort(2 * np.abs(offset) - (offset > 0))


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
    order = _visit_order(pts.size, int(np.argmin(np.abs(pts - prediction))))
    reached = ~(np.cumsum(pm[order]) < mass - 1e-12)
    if not reached.any():
        raise MassUnreachableError("both grid ends reached before the target mass")
    visited = order[:int(np.argmax(reached)) + 1]
    return ConfidenceRegion(
        lower=float(min(pts[visited.min()], prediction)),
        upper=float(max(pts[visited.max()], prediction)),
    )
