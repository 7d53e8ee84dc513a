"""Threshold-free evaluation metrics.

AUROC, average precision, FPR at a target TPR, calibration curves,
error-below-uncertainty accumulation, and an exact discrete-entropy helper.
All functions are pure; scores follow the convention "higher = more
positive" (e.g. more OOD, more uncertain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, NotNormalizedError, OneClassOnlyError


def _binary_set(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if scores.size == 0:
        raise EmptyInputError("empty score set")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise OneClassOnlyError("ranking metrics need both classes present")
    return scores, pos


def auroc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Mann-Whitney form; ties count 1/2.
    """
    scores, pos = _binary_set(scores, labels)
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    # average ranks: a tied group spanning ranks [first, last] gets their mean
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _threshold_counts(scores, pos):
    """Cumulative TP/FP counts at each distinct score, descending.

    A threshold t classifies score >= t as positive; tied scores are
    collapsed into a single threshold so the result is independent of input
    order.
    """
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order]
    # last index of each tied group marks the threshold boundary
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    boundary = np.append(boundary, scores.size - 1)
    tp = np.cumsum(sorted_pos)[boundary]
    fp = np.cumsum(~sorted_pos)[boundary]
    return tp, fp


def average_precision(s_scores, labels) -> float:
    """Step-interpolated AP: sum over recall increments of the precision
    at each distinct-score threshold.

    Tied scores form a single precision/recall step, so the value equals the
    tie-order expectation (all scores equal with p positives of n gives p/n).
    """
    scores, pos = _binary_set(s_scores, labels)
    n_pos = int(pos.sum())
    tp, fp = _threshold_counts(scores, pos)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    d_recall = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(d_recall * precision))


def fpr_at_tpr(scores, labels, tpr_target: float = 0.95) -> float:
    """Minimal false-positive rate among thresholds reaching the target
    true-positive rate."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValueError("tpr_target must be in (0, 1]")
    scores, pos = _binary_set(scores, labels)
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    tp, fp = _threshold_counts(scores, pos)
    tpr = tp / n_pos
    ok = tpr >= tpr_target
    # FPR is non-decreasing as the threshold is lowered, so the first
    # admissible threshold is the minimizer
    first = int(np.argmax(ok))
    return float(fp[first] / n_neg)


@dataclass(frozen=True)
class CalibrationCurve:
    """Accuracy among samples whose uncertainty falls at or below sliding
    percentile thresholds."""

    percentiles: np.ndarray
    accuracies: np.ndarray


def calibration_curve(uncertainties, correct, percentile_step: float = 5.0) -> CalibrationCurve:
    """Accuracy over samples with uncertainty <= the q-th percentile value,
    for q sweeping up to 100 in ``percentile_step`` increments.

    The final point (q = 100) always equals the overall accuracy.
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    c = np.asarray(correct, dtype=np.float64)
    if u.shape != c.shape or u.ndim != 1:
        raise ValueError("uncertainties and correctness must be equal-length vectors")
    if u.size == 0:
        raise EmptyInputError("calibration_curve on empty input")
    if not 0.0 < percentile_step <= 100.0:
        raise ValueError("percentile_step must be in (0, 100]")
    qs = np.arange(percentile_step, 100.0 + 1e-9, percentile_step)
    if qs[-1] < 100.0:
        qs = np.append(qs, 100.0)
    accs = np.array([c[u <= t].mean() for t in np.percentile(u, qs)])
    return CalibrationCurve(percentiles=qs, accuracies=accs)


def rmse_below_uncertainty(errors, uncertainties, thresholds) -> np.ndarray:
    """RMSE over samples with uncertainty <= threshold, for each threshold.

    Empty buckets yield NaN, never interpolated values.
    """
    e = np.asarray(errors, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    if e.shape != u.shape or e.ndim != 1:
        raise ValueError("errors and uncertainties must be equal-length vectors")
    out = np.empty(len(thresholds), dtype=np.float64)
    for i, t in enumerate(np.asarray(thresholds, dtype=np.float64)):
        sel = u <= t
        out[i] = np.sqrt(np.mean(e[sel] ** 2)) if sel.any() else np.nan
    return out


def discrete_entropy(probabilities) -> float:
    """Shannon entropy -sum(p log p) in nats, with 0 log 0 = 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        raise EmptyInputError("entropy of an empty distribution")
    if np.any(p < 0):
        raise NotNormalizedError("negative probability")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise NotNormalizedError(f"probabilities sum to {total!r}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))
