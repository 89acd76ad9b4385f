"""Classification losses over batches.

Each returns the mean loss plus its gradient with respect to the
predictions, which is what the training loops and the gradient checker
consume. Log arguments are clamped at ``LOG_FLOOR``.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-12


def cce_batch(probs: np.ndarray, onehot: np.ndarray):
    """Mean categorical cross-entropy over a batch and its gradient."""
    p = np.clip(probs, LOG_FLOOR, 1.0)
    n = probs.shape[0]
    loss = float(-(onehot * np.log(p)).sum() / n)
    grad = np.where(probs > LOG_FLOOR, -onehot / p, 0.0) / n
    return loss, grad


def bce_batch(y_hat: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy over a batch and its gradient."""
    p = np.clip(y_hat, LOG_FLOOR, 1.0 - LOG_FLOOR)
    n = y_hat.shape[0]
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
    inside = (y_hat > LOG_FLOOR) & (y_hat < 1.0 - LOG_FLOOR)
    grad = np.where(inside, (p - y) / (p * (1.0 - p)), 0.0) / n
    return loss, grad
