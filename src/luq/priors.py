"""Models of the output distribution p(y-hat).

The marginalization behind the epistemic score and the Bayes posterior
behind the aleatoric score both need a prior over the network's outputs:
categorical (label counting) for classification, and uniform / beta-prime /
histogram densities for scalar regression outputs.  Every ``log_pdf`` takes
a scalar (and returns a float) or an array of outputs (and returns an array
of the same shape); outside the support, NaN included, it is -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmptyInputError, MomentInversionFailedError


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class CategoricalPrior:
    """Probability mass over a declared set of class ids."""

    classes: tuple[int, ...]
    log_probs: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        if lp.shape != (len(self.classes),):
            raise ValueError("one log-probability per class required")
        if len(set(self.classes)) < len(self.classes):
            raise ValueError(f"a class id repeats in {list(self.classes)}")
        if not abs(np.exp(lp).sum() - 1.0) <= 1e-9:
            raise ValueError("categorical prior does not normalize")
        object.__setattr__(self, "log_probs", lp)

    def log_pdf(self, y):
        """Log-probability of the class ``int(y)``."""
        k = np.trunc(np.asarray(y, dtype=np.float64))
        out = np.full(k.shape, -np.inf)
        for c, lp in zip(self.classes, self.log_probs):
            out[k == c] = lp
        return _scalar_or_array(out)


@dataclass(frozen=True)
class UniformPrior:
    """Constant density on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(float(self.hi) - float(self.lo))):
            raise ValueError("uniform prior needs finite lo < hi with a finite hi - lo")

    def log_pdf(self, y):
        y = np.asarray(y, dtype=np.float64)
        inside = (self.lo <= y) & (y <= self.hi)
        return _scalar_or_array(np.where(inside, -math.log(self.hi - self.lo), -np.inf))


@dataclass(frozen=True)
class BetaPrimePrior:
    """Beta-prime density x^(a-1) (1+x)^(-a-b) / B(a, b) on x > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("beta-prime parameters must be finite and positive")

    def log_pdf(self, y):
        y = np.asarray(y, dtype=np.float64)
        a, b = self.alpha, self.beta
        log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (a - 1.0) * np.log(y) - (a + b) * np.log1p(y) - log_norm
        return _scalar_or_array(np.where(y > 0, val, -np.inf))

    def mean(self) -> float:
        if self.beta <= 1:
            return math.inf
        return self.alpha / (self.beta - 1.0)

    def variance(self) -> float:
        a, b = self.alpha, self.beta
        if b <= 2:
            return math.inf
        return a * (a + b - 1.0) / ((b - 2.0) * (b - 1.0) ** 2)


@dataclass(frozen=True)
class HistogramPrior:
    """Piecewise-constant density over the bins between ``edges``."""

    edges: np.ndarray
    log_densities: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        ld = np.asarray(self.log_densities, dtype=np.float64)
        if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
                or not math.isfinite(float(edges[-1]) - float(edges[0]))
                or np.any(np.diff(edges) <= 0)):
            raise ValueError("histogram edges must be finite and strictly increasing, "
                             "with a finite span")
        if ld.shape != (edges.size - 1,):
            raise ValueError("one density per bin required")
        mass = float(np.sum(np.exp(ld) * np.diff(edges)))
        if not abs(mass - 1.0) <= 1e-9:
            raise ValueError(f"histogram integrates to {mass!r}, not 1")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "log_densities", ld)

    def log_pdf(self, y):
        """Density of the bin [e_i, e_i+1) holding ``y``; the last bin also
        holds the upper edge."""
        y = np.asarray(y, dtype=np.float64)
        edges = self.edges
        idx = np.minimum(np.searchsorted(edges, y, side="right") - 1, edges.size - 2)
        inside = (edges[0] <= y) & (y <= edges[-1])
        return _scalar_or_array(np.where(inside, self.log_densities[idx], -np.inf))


OutputPrior = Union[CategoricalPrior, UniformPrior, BetaPrimePrior, HistogramPrior]


def fit_categorical(predicted_labels, classes=None) -> CategoricalPrior:
    """Estimate class probabilities by counting predicted labels.

    ``classes`` declares the class set (defaults to the labels present).
    When a declared class has zero count, add-one Laplace smoothing is
    applied across all classes so the marginalization never hard-zeros a
    class the density model carries; otherwise plain counts are used.
    """
    labels = np.asarray(predicted_labels)
    if labels.size == 0:
        raise EmptyInputError("fit_categorical on empty labels")
    labels = labels.astype(np.int64)
    if classes is None:
        classes = np.unique(labels)
    classes = tuple(int(c) for c in sorted(set(int(c) for c in classes)))
    if not set(labels.tolist()) <= set(classes):
        raise ValueError("labels contain ids outside the declared class set")
    counts = np.array([np.sum(labels == c) for c in classes], dtype=np.float64)
    if np.any(counts == 0):
        counts = counts + 1.0
    log_probs = np.log(counts / counts.sum())
    return CategoricalPrior(classes=classes, log_probs=log_probs)


def betaprime_fit_mom(samples) -> BetaPrimePrior:
    """Method-of-moments beta-prime fit.

    Inverts mean = a/(b-1) and var = a(a+b-1)/((b-2)(b-1)^2), which reduces
    to b = 2 + m(m+1)/v and a = m(b-1).  Raises MomentInversionFailedError
    when the sample moments are infeasible (e.g. zero variance).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 10:
        raise ValueError("betaprime_fit_mom needs at least 10 samples")
    if np.any(x <= 0):
        raise ValueError("beta-prime samples must be positive")
    m = float(x.mean())
    v = float(x.var(ddof=1))
    if v <= 0 or m <= 0:
        raise MomentInversionFailedError(
            f"moments mean={m!r} var={v!r} outside the beta-prime family"
        )
    beta = 2.0 + m * (m + 1.0) / v
    alpha = m * (beta - 1.0)
    if not (math.isfinite(alpha) and math.isfinite(beta)) or alpha <= 0:
        raise MomentInversionFailedError(
            f"inverted parameters alpha={alpha!r} beta={beta!r} are invalid"
        )
    return BetaPrimePrior(alpha=alpha, beta=beta)


def fit_histogram(samples, bins: int = 32) -> HistogramPrior:
    """Equal-width histogram density of scalar samples.  Samples whose range
    is wider than the largest float are an OverflowError."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyInputError("fit_histogram on empty samples")
    lo, hi = float(x.min()), float(x.max())
    if math.isinf(hi - lo):
        raise OverflowError(f"the samples span [{lo:g}, {hi:g}], wider than the largest float")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    width = edges[1] - edges[0]
    with np.errstate(divide="ignore"):
        log_densities = np.log(counts / (counts.sum() * width))
    return HistogramPrior(edges=edges, log_densities=log_densities)
