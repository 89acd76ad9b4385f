"""Minimal neural-network engine: layers, heads, Adam, DAMC checkpoints.

Tensors are numpy ndarrays (float64 by default, float32 selectable at build
time). Every layer works on batches: spatial data is channels-last
``N x H x W x C``, dense data is ``N x F``. Each layer declares its
persistent arrays once, in ``STATE``: trained parameters, batch-norm
running statistics, a ``Standardize`` layer's fitted mean and sigma.
Checkpoints, weight snapshots and the optimizer all read that list.
Networks end at their logits; the softmax and sigmoid heads in ``losses``
turn them into probabilities, a loss and the logit gradient.

The package re-exports nothing: import names from ``layers``, ``losses``,
``optim`` and ``checkpoint``.
"""
