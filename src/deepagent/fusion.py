"""Cross-validated evaluation of the fused model on the N x 2 score matrix.

Per video the two agents each contribute one score in [0, 1]; row i of the
score matrix holds ``[agent1, agent2]`` for video i. Those rows, the
level-0 outputs alone, feed a random forest evaluated under stratified
K-fold cross-validation; the trees split the raw scores. Each fold yields
one JSON-ready row dict, and the report ends with their mean.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import UsageError
from deepagent.forest import predict_forest_batch, stratified_kfold, train_forest
from deepagent.metrics import class_rates, confusion, roc_auc


def cross_validate_meta(scores, labels, *, folds: int, n_trees: int,
                        seed: int) -> list[dict]:
    """The fold report: one row per fold, with the metrics as fractions and
    the fold's ROC points, then their mean row without ROC. Precision and
    recall are for the fake class; the *_macro pair averages both classes."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if scores.shape != (len(y), 2):
        raise UsageError(
            f"scores must be N x 2 for {len(y)} labels, got shape {scores.shape}")
    rows = []
    for f, (train_idx, val_idx) in enumerate(stratified_kfold(y, folds, seed)):
        model = train_forest(scores[train_idx], y[train_idx], n_trees=n_trees,
                             seed=seed + f)
        probs, preds = predict_forest_batch(model, scores[val_idx])
        rates = class_rates(confusion(y[val_idx], preds))
        prec, rec = rates["precision_per_class"], rates["recall_per_class"]
        points, auc = roc_auc(y[val_idx], probs)
        rows.append({
            "fold": f + 1,
            "accuracy": rates["accuracy"],
            "precision": prec[1],
            "recall": rec[1],
            "f1": rates["macro_f1"],
            "auc": auc,
            "precision_macro": (prec[0] + prec[1]) / 2.0,
            "recall_macro": (rec[0] + rec[1]) / 2.0,
            # strict JSON has no Infinity literal: the end-point sentinel
            # thresholds become the strings "inf" and "-inf"
            "roc": [[fpr, tpr, thr if np.isfinite(thr) else str(thr)]
                    for fpr, tpr, thr in points.tolist()],
        })
    mean = {key: float(np.mean([r[key] for r in rows]))
            for key in rows[0] if key not in ("fold", "roc")}
    return rows + [{"fold": "mean", **mean}]
