"""Confusion counts, per-class precision/recall/F1, macro F1, ROC and AUC.

The confusion matrix is a plain 2 x 2 int array and a ROC curve a K x 3
array of (fpr, tpr, threshold) rows. All values are fractions in [0, 1];
report renderers multiply by 100.
Undefined 0/0 ratios are reported as 0.0 and flagged rather than NaN so
report files stay finite.
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


def _counts(cm: np.ndarray, c: int) -> tuple[int, int, int]:
    """(TP, FP, FN) for class c."""
    return int(cm[c, c]), int(cm[1 - c, c]), int(cm[c, 1 - c])


def accuracy(cm: np.ndarray) -> float:
    return float(np.trace(cm) / cm.sum())


def precision(cm: np.ndarray, c: int) -> tuple[float, bool]:
    """(value, defined); 0/0 yields (0.0, False)."""
    tp, fp, _ = _counts(cm, c)
    if tp + fp == 0:
        return 0.0, False
    return tp / (tp + fp), True


def recall(cm: np.ndarray, c: int) -> tuple[float, bool]:
    tp, _, fn = _counts(cm, c)
    if tp + fn == 0:
        return 0.0, False
    return tp / (tp + fn), True


def f1_per_class(cm: np.ndarray, c: int) -> float:
    """2*TP / (2*TP + FP + FN); a zero denominator contributes 0."""
    tp, fp, fn = _counts(cm, c)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def macro_f1(cm: np.ndarray) -> float:
    return 0.5 * (f1_per_class(cm, 0) + f1_per_class(cm, 1))


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


def metric_report(labels, predictions, scores=None) -> dict:
    """Assemble the metric report dictionary (values as fractions)."""
    cm = confusion(labels, predictions)
    undefined = []
    prec, rec = [], []
    for c in (0, 1):
        v, ok = precision(cm, c)
        prec.append(v)
        if not ok:
            undefined.append(f"precision_{c}")
        v, ok = recall(cm, c)
        rec.append(v)
        if not ok:
            undefined.append(f"recall_{c}")
    report = {
        "accuracy": accuracy(cm),
        "precision_per_class": prec,
        "recall_per_class": rec,
        "f1_per_class": [f1_per_class(cm, 0), f1_per_class(cm, 1)],
        "macro_f1": macro_f1(cm),
        "auc": None,
        "confusion": cm.tolist(),
        "undefined": undefined,
    }
    if scores is not None:
        report["auc"] = roc_auc(labels, scores)[1]
    return report
