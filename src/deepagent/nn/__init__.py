"""Minimal neural-network engine: layers, losses, Adam, DAMC checkpoints.

Tensors are numpy ndarrays (float64 by default, float32 selectable at build
time). Every layer works on batches: spatial data is channels-last
``N x H x W x C``, dense data is ``N x F``.
"""

from deepagent.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2D,
    Param,
    ReLU,
    Sequential,
    Sigmoid,
    SoftmaxLayer,
    sigmoid,
    softmax,
)
from deepagent.nn.losses import bce_batch, cce_batch
from deepagent.nn.optim import Adam
from deepagent.nn.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "BatchNorm",
    "Conv2D",
    "Dense",
    "Dropout",
    "GlobalAvgPool",
    "MaxPool2D",
    "Param",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SoftmaxLayer",
    "bce_batch",
    "cce_batch",
    "load_checkpoint",
    "save_checkpoint",
    "sigmoid",
    "softmax",
]
