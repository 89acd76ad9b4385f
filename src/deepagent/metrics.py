"""Confusion counts, per-class precision/recall/F1, macro F1, ROC and AUC,
and the 0.5 decision rule that turns a fake-class score into a prediction.

The confusion matrix is a plain 2 x 2 int array and a ROC curve a K x 3
array of (fpr, tpr, threshold) rows. All values are fractions in [0, 1];
report renderers multiply by 100.
Undefined 0/0 ratios are reported as 0.0 and flagged rather than NaN so
report files stay finite; the AUC of rows that hold one class is reported
as None and flagged the same way.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import UsageError


def _check_binary(values, name):
    arr = np.asarray(values)
    if not np.all(np.isin(arr, (0, 1))):
        raise UsageError(f"{name} must contain only 0/1 values")
    return arr.astype(int)


def confusion(labels, predictions) -> np.ndarray:
    """2 x 2 int counts: [i, j] = samples of true class i predicted as j."""
    y = _check_binary(labels, "labels")
    p = _check_binary(predictions, "predictions")
    if len(y) != len(p):
        raise UsageError(f"length mismatch: {len(y)} labels vs {len(p)} predictions")
    return np.bincount(2 * y + p, minlength=4).reshape(2, 2)


def class_rates(cm: np.ndarray) -> dict:
    """Accuracy, per-class precision/recall/F1 and macro F1 of a 2 x 2
    confusion matrix, plus the names of the precision and recall ratios
    that were 0/0 (reported as 0.0). F1 is 2*TP / (2*TP + FP + FN), and a
    zero denominator contributes 0."""
    undefined = []
    prec, rec, f1 = [], [], []
    for c in (0, 1):
        tp, fp, fn = int(cm[c, c]), int(cm[1 - c, c]), int(cm[c, 1 - c])
        prec.append(tp / (tp + fp) if tp + fp else 0.0)
        if tp + fp == 0:
            undefined.append(f"precision_{c}")
        rec.append(tp / (tp + fn) if tp + fn else 0.0)
        if tp + fn == 0:
            undefined.append(f"recall_{c}")
        denom = 2 * tp + fp + fn
        f1.append(2 * tp / denom if denom else 0.0)
    return {
        "accuracy": float(np.trace(cm) / cm.sum()),
        "precision_per_class": prec,
        "recall_per_class": rec,
        "f1_per_class": f1,
        "macro_f1": 0.5 * (f1[0] + f1[1]),
        "undefined": undefined,
    }


def decide(scores) -> np.ndarray:
    """The fake-class decision: True where a score is >= 0.5."""
    return np.asarray(scores) >= 0.5


def roc_auc(labels, scores) -> tuple[np.ndarray, float]:
    """ROC points and trapezoidal AUC over thresholds at each distinct score.

    The points are a K x 3 array of (fpr, tpr, threshold) rows, thresholds
    descending from +inf to -inf. Tied scores enter the curve in a single
    step, so the curve (and AUC) matches the pairwise-comparison definition
    including half credit for ties.
    """
    y = _check_binary(labels, "labels")
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UsageError("ROC needs both classes present")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # cumulative class counts at the last sample of each run of tied scores
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    tp = np.cumsum(y[order])[ends]
    fp = ends + 1 - tp
    points = np.column_stack([
        np.concatenate([[0.0], fp / n_neg, [1.0]]),
        np.concatenate([[0.0], tp / n_pos, [1.0]]),
        np.concatenate([[np.inf], s_sorted[ends], [-np.inf]]),
    ])
    fpr, tpr = points[:, 0], points[:, 1]
    # left-to-right trapezoid accumulation
    auc = 0.0
    for area in np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0:
        auc += area
    return points, float(auc)


def metric_report(labels, predictions, scores) -> dict:
    """``class_rates`` of the predictions with the AUC of the scores and the
    confusion counts (values as fractions)."""
    cm = confusion(labels, predictions)
    rates = class_rates(cm)
    undefined = rates.pop("undefined")
    auc = roc_auc(labels, scores)[1] if cm.sum(axis=1).all() else None
    if auc is None:  # rows of one class have no ROC
        undefined.append("auc")
    return {**rates, "auc": auc, "confusion": cm.tolist(), "undefined": undefined}
