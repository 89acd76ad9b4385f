"""The two detection agents: visual CNN and multimodal dense network.

Agent-1 is a five-block convolutional stack (channels-last) ending in
global average pooling and two logits; its per-frame fake probability is
the softmax component for class 1. ``predict_frames`` scores frames from
any mix of videos, and ``score_video`` reduces one video's frame
probabilities to their plain mean. Agent-2 is a 14 -> 128 -> 64 -> 32 -> 1
dense network over the multimodal feature vector, read through a sigmoid;
its first layer is a ``Standardize`` fit on the training features.
``predict_agent2`` scores an N x 14 matrix of raw features. Both are one
:class:`Agent` type; a checkpoint stores its net's ``state()``. Every
inference forward, in prediction and in validation, runs through
``logits``, in slices of ``forward_rows`` rows.

``train agent1`` trains (and validates) Agent-1 in ``AGENT1_TRAIN_DTYPE``;
``load_agent`` always builds the float64 net, so prediction and fusion
forward in float64 at either stored width.

Both agents train in one Adam epoch loop, with the head's loss gradient
taken at the logits, on one validation schedule (``STOP_PATIENCE``,
``LR_PATIENCE`` and ``LR_FACTOR``).
Training is single-threaded and fully seeded: batch shuffling, dropout,
and augmentation all derive from the one seed, so identical runs produce
identical weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from deepagent.config import Agent1Config, Agent2Config
from deepagent.errors import (ConfigurationError, IngestionError, TrainingError,
                              UsageError)
from deepagent.metrics import decide
from deepagent.nn import checkpoint as ckpt
from deepagent.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    Sequential,
    Standardize,
)
from deepagent.nn.losses import sigmoid, sigmoid_bce, softmax, softmax_cce
from deepagent.nn.optim import Adam
from deepagent.semantic import FEATURE_DIM
from deepagent.vision import augment

# Agent-1 input sides a checkpoint may declare: conv1's 11-pixel valid
# kernel needs at least 11, and 224 is the reference geometry
AGENT1_SIZES = range(11, 225)

# input values per inference forward, in scoring and in validation: 16
# Agent-1 frames at desk scale (64 px) and one at 224, so a forward holds
# one input slice, about one desk-scale batch's activations and one 1 MiB
# im2col band (16 frames at 224 would hold a 24 MB conv1 output); 14,043
# Agent-2 feature rows
FORWARD_VALUES = 16 * 64 * 64 * 3

# the dtype ``train agent1`` trains Agent-1 in, as Keras does by default
AGENT1_TRAIN_DTYPE = np.float32

# the validation schedule both agents train on, Agent-2's fixed Keras one:
# each epoch without a new best validation accuracy is stale; every
# ``LR_PATIENCE``-th stale epoch in a row multiplies the rate by
# ``LR_FACTOR``, and the ``STOP_PATIENCE``-th stops training
STOP_PATIENCE = 10
LR_PATIENCE = 5
LR_FACTOR = 0.5


@dataclass
class Agent:
    """A net plus its checkpoint metadata: DAMC model kind, input side
    (Agent-1) or width (Agent-2), and dtype."""

    net: Sequential
    kind: int
    input_size: int
    seed: int
    dtype: type = np.float64

    @property
    def row_shape(self) -> tuple:
        """One input row: an S x S x 3 frame (Agent-1) or S features."""
        s = self.input_size
        return (s, s, 3) if self.kind == ckpt.MODEL_AGENT1 else (s,)


def build_agent1(seed: int, input_size: int = 224, dtype=np.float64) -> Agent:
    """Five conv blocks -> GAP -> 1024 -> 512 -> 2 logits.

    ``input_size`` 224 is the reference geometry; smaller inputs keep the
    same stack but clamp a pool window that no longer fits (desk-scale runs).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    drop_rng = lambda i: np.random.default_rng(np.random.SeedSequence([seed, 2, i]))

    layers: list = []
    shape = (input_size, input_size, 3)

    def add(layer):
        nonlocal shape
        layers.append(layer)
        shape = layer.out_shape(shape)

    def add_pool():
        p = min(3, shape[0], shape[1])
        s = min(2, p)
        add(MaxPool2D(p, s))

    blocks = [
        (64, 11, 4, "valid", True),
        (128, 5, 1, "same", True),
        (256, 3, 1, "same", False),
        (256, 3, 1, "same", False),
        (128, 3, 1, "same", True),
    ]
    for i, (ch, k, stride, pad, pool) in enumerate(blocks):
        add(Conv2D(shape[2], ch, k, stride, pad, rng=rng, dtype=dtype,
                   name=f"conv{i + 1}"))
        add(ReLU())
        add(BatchNorm(ch, dtype=dtype, name=f"bn{i + 1}"))
        if pool:
            add_pool()
    add(GlobalAvgPool())
    add(Dense(shape[0], 1024, rng=rng, dtype=dtype, name="fc1"))
    add(ReLU())
    add(Dropout(0.5, rng=drop_rng(0)))
    add(BatchNorm(1024, dtype=dtype, name="bn_fc1"))
    add(Dense(1024, 512, rng=rng, dtype=dtype, name="fc2"))
    add(ReLU())
    add(Dropout(0.5, rng=drop_rng(1)))
    add(Dense(512, 2, rng=rng, dtype=dtype, init="xavier", name="out"))
    return Agent(Sequential(layers), ckpt.MODEL_AGENT1, input_size, seed, dtype)


def build_agent2(seed: int) -> Agent:
    """Input standardization, then a dense stack with dropout 0.2 after the
    first two layers and one logit."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    drop_rng = lambda i: np.random.default_rng(np.random.SeedSequence([seed, 4, i]))
    layers = [
        Standardize(FEATURE_DIM),
        Dense(FEATURE_DIM, 128, rng=rng, name="d1"),
        ReLU(),
        Dropout(0.2, rng=drop_rng(0)),
        Dense(128, 64, rng=rng, name="d2"),
        ReLU(),
        Dropout(0.2, rng=drop_rng(1)),
        Dense(64, 32, rng=rng, name="d3"),
        ReLU(),
        Dense(32, 1, rng=rng, init="xavier", name="d4"),
    ]
    return Agent(Sequential(layers), ckpt.MODEL_AGENT2, FEATURE_DIM, seed)


# prediction ---------------------------------------------------------------

def forward_rows(model: Agent) -> int:
    """Rows per inference forward: ``max(1, FORWARD_VALUES // prod(row_shape))``."""
    return max(1, FORWARD_VALUES // math.prod(model.row_shape))


def logits(model: Agent, rows) -> np.ndarray:
    """Inference-mode logits of ``rows`` (an array, or a ``pipeline.FrameSet``
    that reads them from disk), forwarded ``forward_rows(model)`` rows at a
    time in the model dtype, one slice held at a time; no rows still run one
    empty forward."""
    width = forward_rows(model)
    out = []
    for start in range(0, max(len(rows), 1), width):
        batch = np.asarray(rows[start:start + width], dtype=model.dtype)
        if batch.shape[1:] != model.row_shape:
            raise UsageError(f"rows must be {model.row_shape}, got {batch.shape[1:]}")
        out.append(model.net.forward(batch, train=False))
        # freed before the next slice is read, not after
        del batch
    return np.concatenate(out)


def predict_frames(model: Agent, frames) -> np.ndarray:
    """Fake-class probability of each normalized frame (array or FrameSet)."""
    return softmax(logits(model, frames))[:, 1]


def score_video(frame_probs: np.ndarray) -> float:
    """Video score: the mean of its frames' fake-class probabilities."""
    return float(np.mean(frame_probs))


def predict_agent2(model: Agent, X: np.ndarray) -> np.ndarray:
    """Fake-class probability for each row of an N x width feature matrix."""
    return sigmoid(logits(model, X)[:, 0])


# training -----------------------------------------------------------------

def _train_labels(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if len(np.unique(labels)) < 2:
        raise UsageError("training set must contain both classes")
    return labels


def _fit(model, X, labels, val_X, val_labels, cfg, head, encode, stream, *,
         transform=None) -> list[dict]:
    """The Adam epoch loop both agents train with; returns per-epoch history.

    ``X`` and ``val_X`` are arrays, or anything whose ``X[idx]`` gives the
    rows at an index array or slice (``pipeline.FrameSet`` reads them from
    disk); the loop asks for one batch or validation slice at a time and
    casts it to the model dtype. ``encode`` turns labels into the head's
    targets. Each batch of the ``stream``-seeded shuffle runs a train-mode
    forward to the logits; ``head`` gives the loss and the logit gradient
    that is backpropagated, one Adam step fused into the backward: each
    layer's gradients are applied and dropped as soon as its backward
    returns.
    ``transform`` rewrites each batch first (augmentation).
    A net holding batch norm skips batches of fewer than two rows.
    A non-empty validation set is scored by ``logits`` after every epoch, in
    slices of ``forward_rows(model)`` rows; a new best accuracy copies the
    weights into one snapshot, allocated at the first, stale epochs reduce
    the rate and stop early on the ``LR_PATIENCE``/``STOP_PATIENCE``
    schedule, and the best-validation weights are restored. Without one,
    training runs the full epoch budget.
    """
    net = model.net
    targets = encode(labels)
    val = None
    if val_X is not None and len(val_X):
        val_labels = np.asarray(val_labels, dtype=int)
        val = (val_X, encode(val_labels), val_labels)
    opt = Adam(net.params(), eta=cfg.learning_rate)
    best_acc, stale = -np.inf, 0
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([model.seed, stream]))
    min_batch = 2 if any(isinstance(layer, BatchNorm) for layer in net.layers) else 1
    best = None
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(X))
        losses, correct, seen = [], 0, 0
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if len(idx) < min_batch:
                continue
            batch = np.asarray(X[idx], dtype=model.dtype)
            if transform is not None:
                batch = transform(batch)
            loss, probs, grad = head(net.forward(batch, train=True), targets[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            net.backward(grad, opt)
            losses.append(loss)
            correct += int((decide(probs[:, -1]) == labels[idx]).sum())
            seen += len(idx)
        row = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else 0.0,
            "train_acc": correct / seen if seen else 0.0,
            "val_loss": None,
            "val_acc": None,
            "lr": opt.eta,
        }
        history.append(row)
        if val is None:
            continue
        val_X, val_targets, val_labels = val
        row["val_loss"], probs, _ = head(logits(model, val_X), val_targets)
        row["val_acc"] = float((decide(probs[:, -1]) == val_labels).mean())
        if row["val_acc"] > best_acc:
            best_acc, stale = row["val_acc"], 0
            if best is None:
                best = [np.empty_like(arr) for _, arr in net.state()]
            for (_, arr), saved in zip(net.state(), best):
                np.copyto(saved, arr)
            continue
        stale += 1
        if stale % LR_PATIENCE == 0:
            opt.eta *= LR_FACTOR
        if stale >= STOP_PATIENCE:
            break
    if best is not None:
        for (_, arr), saved in zip(net.state(), best):
            arr[...] = saved
    return history


def train_agent1(model: Agent, frames: np.ndarray, labels: np.ndarray,
                 val_frames: np.ndarray | None = None,
                 val_labels: np.ndarray | None = None, *,
                 config: Agent1Config) -> list[dict]:
    """Minimize softmax cross-entropy over one-hot targets with ``_fit``.

    ``frames`` are normalized [0, 1] frames shaped N x S x S x 3 with labels
    in {0, 1}: an ndarray, or a ``pipeline.FrameSet`` that reads each batch
    from disk when ``_fit`` asks for it, so training memory is set by the
    batch and not by the size of the split; ``val_frames`` likewise. With
    ``config.augment``, every batch is augmented with ``vision.augment``'s
    fixed ranges, redrawn every epoch from the model seed.
    """
    labels = _train_labels(labels)
    onehot = np.eye(2, dtype=model.dtype)
    transform = None
    if config.augment:
        aug_rng = np.random.default_rng(np.random.SeedSequence([model.seed, 6]))
        transform = lambda batch: np.stack(
            [augment(img, aug_rng) for img in batch]).astype(model.dtype)
    return _fit(model, frames, labels, val_frames, val_labels, config, softmax_cce,
                lambda y: onehot[y], stream=5, transform=transform)


def train_agent2(model: Agent, X: np.ndarray, y: np.ndarray,
                 val_X: np.ndarray | None = None,
                 val_y: np.ndarray | None = None, *,
                 config: Agent2Config) -> list[dict]:
    """Minimize sigmoid cross-entropy with ``_fit``; the net's input
    standardization is fit on ``X`` first."""
    X = np.asarray(X, dtype=model.dtype)
    y = _train_labels(y)
    model.net.layers[0].fit(X)
    return _fit(model, X, y, val_X, val_y, config, sigmoid_bce,
                lambda labels: labels[:, None].astype(model.dtype), stream=7)


# checkpoints ---------------------------------------------------------------

def save_agent(model: Agent, path) -> None:
    """Write the net's state at the model dtype's width, 32 or 64 bits."""
    bits = 32 if model.dtype == np.float32 else 64
    ckpt.save_checkpoint(path, model.net.state(), model_kind=model.kind,
                         input_size=model.input_size, dtype_bits=bits)


def load_agent(path, kind: int | None = None) -> Agent:
    """Rebuild Agent-1 or Agent-2 from a checkpoint as a float64 net; the
    header's ``dtype_bits`` sets only the width the records were stored at.
    ``ckpt.load_checkpoint`` reads the file in one pass: it checks the
    header, builds the net from it, then streams the records into the net.
    Given ``kind`` (1 or 2), a checkpoint of the other agent raises a
    ConfigurationError naming the path and its flag, ``--agent<kind>``."""
    model = None

    def build(header):
        nonlocal model
        size = header["input_size"]
        if kind is not None and header["model_kind"] != kind:
            raise ConfigurationError(f"--agent{kind} {path}: holds an Agent-"
                                     f"{header['model_kind']} checkpoint, expected "
                                     f"Agent-{kind}")
        # checked before building, so a corrupt size cannot size the layers
        if header["model_kind"] == ckpt.MODEL_AGENT1:
            if size not in AGENT1_SIZES:
                raise IngestionError(
                    f"{path}: record 0: Agent-1 input size must be within "
                    f"[{AGENT1_SIZES[0]}, {AGENT1_SIZES[-1]}], got {size}")
            model = build_agent1(seed=0, input_size=size)
        else:  # load_checkpoint admits only the two model kinds
            if size != FEATURE_DIM:
                raise IngestionError(
                    f"{path}: record 0: Agent-2 input width must be {FEATURE_DIM}, "
                    f"got {size}")
            model = build_agent2(seed=0)
        return model.net.state()

    ckpt.load_checkpoint(path, build)
    return model
