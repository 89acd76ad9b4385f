"""Cross-validated evaluation of the fused model on the N x 2 score matrix.

Per video the two agents each contribute one score in [0, 1]; row i of the
score matrix holds ``[agent1, agent2]`` for video i. Those rows (or their
four-component complement expansion when ``meta_dims=4``) feed a random
forest evaluated under stratified K-fold cross-validation. The
standardizer is fit on each fold's training split only. Each fold yields
one JSON-ready row dict; ``fold_report`` appends their mean.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import UsageError
from deepagent.forest import predict_forest_batch, stratified_kfold, train_forest
from deepagent.metrics import (
    accuracy,
    confusion,
    macro_f1,
    precision,
    recall,
    roc_auc,
)

# metric keys of a fold row, in report order; precision/recall are for the
# fake class, the *_macro pair averages both classes
_METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "auc",
                "precision_macro", "recall_macro")


def expand_meta(scores: np.ndarray, meta_dims: int) -> np.ndarray:
    """The N x 2 scores, or the redundant N x 4 variant
    [p1(real), p1(fake), p2(consistent), p2(inconsistent)]."""
    if meta_dims == 2:
        return scores
    if meta_dims == 4:
        return np.column_stack([1.0 - scores[:, 0], scores[:, 0],
                                1.0 - scores[:, 1], scores[:, 1]])
    raise UsageError(f"meta_dims must be 2 or 4, got {meta_dims}")


def cross_validate_meta(scores, labels, *, folds: int = 5, n_trees: int = 100,
                        seed: int = 42, meta_dims: int = 2) -> list[dict]:
    """One row per fold: the metrics as fractions plus the fold's ROC points."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if scores.shape != (len(y), 2):
        raise UsageError(
            f"scores must be N x 2 for {len(y)} labels, got shape {scores.shape}")
    Z = expand_meta(scores, meta_dims)
    rows = []
    for f, (train_idx, val_idx) in enumerate(stratified_kfold(y, folds, seed)):
        model = train_forest(Z[train_idx], y[train_idx], n_trees=n_trees,
                             seed=seed + f)
        probs, preds = predict_forest_batch(model, Z[val_idx])
        cm = confusion(y[val_idx], preds)
        points, auc = roc_auc(y[val_idx], probs)
        rows.append({
            "fold": f + 1,
            "accuracy": accuracy(cm),
            "precision": precision(cm, 1)[0],
            "recall": recall(cm, 1)[0],
            "f1": macro_f1(cm),
            "auc": auc,
            "precision_macro": (precision(cm, 0)[0] + precision(cm, 1)[0]) / 2.0,
            "recall_macro": (recall(cm, 0)[0] + recall(cm, 1)[0]) / 2.0,
            # strict JSON has no Infinity literal: the end-point sentinel
            # thresholds become the strings "inf" and "-inf"
            "roc": [[fpr, tpr, thr if np.isfinite(thr) else str(thr)]
                    for fpr, tpr, thr in points.tolist()],
        })
    return rows


def fold_report(rows: list[dict]) -> list[dict]:
    """The fold rows followed by their mean row (no ROC)."""
    mean = {"fold": "mean"}
    for key in _METRIC_KEYS:
        mean[key] = float(np.mean([r[key] for r in rows]))
    return rows + [mean]
