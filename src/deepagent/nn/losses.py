"""Classification heads: softmax / sigmoid over a batch of logits.

The networks end at their last dense layer. Each head maps ``(logits,
targets)`` to ``(loss, probabilities, logit gradient)``: the mean
cross-entropy, the head's probabilities, and the gradient of that mean
loss with respect to the logits, ``(p - y) / n``. Taken at the logits, the
gradient stays exact when the head saturates. Training, validation and the
gradient checks all call these. Log arguments are clamped at ``LOG_FLOOR``.

Probabilities keep the dtype of float logits (other logits are read as
float64), and so does the logit gradient when the targets share it, so a
float32 net backpropagates in float32; the scalar loss is always reduced
in float64, where ``1 - LOG_FLOOR`` is still below 1.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import ConfigurationError

LOG_FLOOR = 1e-12


def _floating(x) -> np.ndarray:
    """``x`` as an array: float input keeps its dtype, any other is float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(float)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-_floating(x)))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; needs at least two classes."""
    z = _floating(z)
    if z.shape[-1] < 2:
        raise ConfigurationError(f"softmax needs >= 2 classes, got {z.shape[-1]}")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cce(logits: np.ndarray, onehot: np.ndarray):
    """Softmax head, mean categorical cross-entropy: N x K logits, one-hot targets."""
    probs = softmax(logits)
    n = probs.shape[0]
    p = np.clip(probs.astype(float, copy=False), LOG_FLOOR, 1.0)
    loss = float(-(onehot * np.log(p)).sum() / n)
    return loss, probs, (probs - onehot) / n


def sigmoid_bce(logits: np.ndarray, y: np.ndarray):
    """Sigmoid head, mean binary cross-entropy: logits and 0/1 targets share
    one shape (N x 1 for a one-unit layer)."""
    probs = sigmoid(logits)
    p = np.clip(probs.astype(float, copy=False), LOG_FLOOR, 1.0 - LOG_FLOOR)
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
    return loss, probs, (probs - y) / probs.shape[0]
