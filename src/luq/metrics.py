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
    if np.isnan(scores).any():
        raise ValueError("scores hold NaN, which has no rank")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise OneClassOnlyError("ranking metrics need both classes present")
    return scores, pos


def _threshold_counts(scores, pos):
    """Cumulative TP/FP counts at each distinct score, descending; the last
    entries are the class sizes.

    A threshold t classifies score >= t as positive; tied scores are
    collapsed into a single threshold so the result is independent of input
    order.
    """
    order = np.argsort(-scores)  # not stable: each tie is counted whole
    sorted_scores = scores[order]
    sorted_pos = pos[order]
    # last index of each tied group (!=, as a difference splits ties at inf)
    boundary = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0]
    boundary = np.append(boundary, scores.size - 1)
    tp = np.cumsum(sorted_pos)[boundary]
    fp = np.cumsum(~sorted_pos)[boundary]
    return tp, fp


def auroc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, ties
    counting 1/2: the trapezoid area under the ROC steps of
    ``_threshold_counts``, summed exactly in integer counts."""
    scores, pos = _binary_set(scores, labels)
    tp, fp = (np.concatenate(([0], c)) for c in _threshold_counts(scores, pos))
    return float(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])) / (2 * tp[-1] * fp[-1]))


def average_precision(s_scores, labels) -> float:
    """Step-interpolated AP: sum over recall increments of the precision
    at each distinct-score threshold.

    Tied scores form a single precision/recall step, so the value equals the
    tie-order expectation (all scores equal with p positives of n gives p/n).
    """
    scores, pos = _binary_set(s_scores, labels)
    tp, fp = _threshold_counts(scores, pos)
    recall = tp / tp[-1]
    precision = tp / (tp + fp)
    d_recall = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(d_recall * precision))


def fpr_at_tpr(scores, labels, tpr_target: float = 0.95) -> float:
    """Minimal false-positive rate among thresholds reaching the target
    true-positive rate."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValueError("tpr_target must be in (0, 1]")
    scores, pos = _binary_set(scores, labels)
    tp, fp = _threshold_counts(scores, pos)
    tpr = tp / tp[-1]
    ok = tpr >= tpr_target
    # FPR is non-decreasing as the threshold is lowered, so the first
    # admissible threshold is the minimizer
    first = int(np.argmax(ok))
    return float(fp[first] / fp[-1])


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
    if not np.all(p >= 0):  # NaN included
        raise NotNormalizedError("negative or NaN probability")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise NotNormalizedError(f"probabilities sum to {total!r}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))
