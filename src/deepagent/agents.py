"""The two detection agents: visual CNN and multimodal dense network.

Agent-1 is a five-block convolutional stack (channels-last) ending in
global average pooling and a two-way softmax head; its per-frame fake
probability is the softmax component for class 1 and per-video scores are
the plain mean over frames. Agent-2 is a 14 -> 128 -> 64 -> 32 -> 1
sigmoid network over the multimodal feature vector. ``score_video`` turns
a video's frames into one float and ``predict_agent2`` scores a whole N x 14
feature matrix in one forward.

Training is single-threaded and fully seeded: batch shuffling, dropout,
and augmentation all derive from the one seed, so identical runs produce
identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from deepagent.config import Agent1Config, Agent2Config
from deepagent.errors import IngestionError, TrainingError, UsageError
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
    Sigmoid,
    SoftmaxLayer,
)
from deepagent.nn.layers import sigmoid as sigmoid_fn
from deepagent.nn.layers import softmax as softmax_fn
from deepagent.nn.losses import bce_batch, cce_batch
from deepagent.nn.optim import Adam
from deepagent.vision import AugmentPolicy, Frame, augment


@dataclass
class Agent1Model:
    net: Sequential
    input_size: int
    seed: int
    dtype: type = np.float64

    def state(self):
        """(kind, array) per checkpoint record after the metadata."""
        return self.net.state()


@dataclass
class Agent2Model:
    net: Sequential
    input_width: int
    hidden: tuple
    seed: int
    dtype: type = np.float64
    # per-feature input conditioning, fit on the training set; equivalent to
    # reparameterizing the first dense layer, so the function family is the
    # same dense stack
    input_mu: np.ndarray = field(default=None)
    input_sigma: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.input_mu is None:
            self.input_mu = np.zeros(self.input_width, dtype=self.dtype)
        if self.input_sigma is None:
            self.input_sigma = np.ones(self.input_width, dtype=self.dtype)

    def condition(self, X: np.ndarray) -> np.ndarray:
        return (X - self.input_mu) / self.input_sigma

    def state(self):
        """(kind, array) per checkpoint record after the metadata."""
        return [(ckpt.KIND_STD_MU, self.input_mu),
                (ckpt.KIND_STD_SIGMA, self.input_sigma)] + self.net.state()


def build_agent1(seed: int, input_size: int = 224, dtype=np.float64) -> Agent1Model:
    """Five conv blocks -> GAP -> 1024 -> 512 -> 2-way softmax.

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
    add(SoftmaxLayer())
    return Agent1Model(Sequential(layers), input_size, seed, dtype)


def agent1_shape_chain(model: Agent1Model) -> list[tuple]:
    """Per-sample shape after every shape-changing layer, input included."""
    size = model.input_size
    return model.net.shape_chain((size, size, 3))


def build_agent2(seed: int, input_width: int = 14, hidden=(128, 64, 32),
                 dtype=np.float64) -> Agent2Model:
    """Dense stack with dropout 0.2 after the first two layers, sigmoid head."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    drop_rng = lambda i: np.random.default_rng(np.random.SeedSequence([seed, 4, i]))
    h1, h2, h3 = hidden
    layers = [
        Dense(input_width, h1, rng=rng, dtype=dtype, name="d1"),
        ReLU(),
        Dropout(0.2, rng=drop_rng(0)),
        Dense(h1, h2, rng=rng, dtype=dtype, name="d2"),
        ReLU(),
        Dropout(0.2, rng=drop_rng(1)),
        Dense(h2, h3, rng=rng, dtype=dtype, name="d3"),
        ReLU(),
        Dense(h3, 1, rng=rng, dtype=dtype, init="xavier", name="d4"),
        Sigmoid(),
    ]
    return Agent2Model(Sequential(layers), input_width, tuple(hidden), seed, dtype)


# prediction ---------------------------------------------------------------

def predict_frames(model: Agent1Model, frames: np.ndarray) -> np.ndarray:
    """Fake-class probability for a batch of normalized frames."""
    frames = np.asarray(frames, dtype=model.dtype)
    expect = (model.input_size, model.input_size, 3)
    if frames.shape[1:] != expect:
        raise UsageError(f"frames must be {expect}, got {frames.shape[1:]}")
    probs = model.net.forward(frames, train=False)
    return probs[:, 1]


def score_video(model: Agent1Model, frames: np.ndarray) -> float:
    """Video score: the mean fake-class probability over its frames."""
    if len(frames) == 0:
        raise UsageError("cannot score a video with no frames")
    return float(np.mean(predict_frames(model, frames)))


def predict_agent2(model: Agent2Model, X: np.ndarray) -> np.ndarray:
    """Fake-class probability for each row of an N x width feature matrix."""
    X = np.asarray(X, dtype=model.dtype)
    if X.ndim != 2 or X.shape[1] != model.input_width:
        raise UsageError(
            f"features must be N x {model.input_width}, got shape {X.shape}")
    return model.net.forward(model.condition(X), train=False)[:, 0]


# training -----------------------------------------------------------------

class TrainController:
    """Early stopping and learning-rate reduction driven by validation accuracy.

    Improvement resets both patience counters; ``lr_patience`` stagnant
    epochs halve the rate (factor configurable), ``stop_patience`` stagnant
    epochs stop training. The best-epoch weights are restored at exit.
    """

    def __init__(self, stop_patience: int, lr_patience: int, lr_factor: float):
        self.stop_patience = stop_patience
        self.lr_patience = lr_patience
        self.lr_factor = lr_factor
        self.best = -np.inf
        self.stale = 0
        self.lr_stale = 0

    def update(self, metric: float) -> tuple[bool, bool]:
        """Feed one epoch's validation metric; returns (stop, reduce_lr)."""
        if metric > self.best:
            self.best = metric
            self.stale = 0
            self.lr_stale = 0
            return False, False
        self.stale += 1
        self.lr_stale += 1
        reduce = False
        if self.lr_stale >= self.lr_patience:
            reduce = True
            self.lr_stale = 0
        return self.stale >= self.stop_patience, reduce


def _check_two_classes(labels: np.ndarray) -> None:
    if len(np.unique(labels)) < 2:
        raise UsageError("training set must contain both classes")


def _snapshot(net: Sequential):
    return [arr.copy() for _, arr in net.state()]


def _restore(net: Sequential, snap) -> None:
    for (_, arr), saved in zip(net.state(), snap):
        arr[...] = saved


def train_agent1(model: Agent1Model, frames: np.ndarray, labels: np.ndarray,
                 val_frames: np.ndarray | None = None,
                 val_labels: np.ndarray | None = None,
                 config: Agent1Config | None = None,
                 augment_policy: AugmentPolicy | None = None) -> list[dict]:
    """Minimize categorical cross-entropy with Adam; returns per-epoch history.

    ``frames`` are normalized [0, 1] arrays shaped N x S x S x 3 with labels
    in {0, 1}. Augmentation (when a policy is given) redraws every epoch
    from the model seed.
    """
    cfg = config or Agent1Config()
    frames = np.asarray(frames, dtype=model.dtype)
    labels = np.asarray(labels, dtype=int)
    _check_two_classes(labels)
    onehot = np.eye(2, dtype=model.dtype)[labels]

    opt = Adam(model.net.params(), eta=cfg.learning_rate, beta1=cfg.beta1,
               beta2=cfg.beta2, epsilon=cfg.epsilon)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([model.seed, 5]))
    aug_rng = np.random.default_rng(np.random.SeedSequence([model.seed, 6]))
    # train against the logits so the loss gradient (probs - onehot) stays
    # exact even when the softmax saturates; the softmax layer itself holds
    # no parameters
    body = Sequential(model.net.layers[:-1])
    history = []
    n = len(frames)
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        losses = []
        correct = 0
        seen = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue  # batch norm needs >= 2 samples
            batch = frames[idx]
            if augment_policy is not None:
                batch = np.stack([
                    augment(Frame(img), augment_policy, aug_rng).pixels
                    for img in batch
                ]).astype(model.dtype)
            logits = body.forward(batch, train=True)
            probs = softmax_fn(logits)
            loss, _ = cce_batch(probs, onehot[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            model.net.zero_grad()
            body.backward((probs - onehot[idx]) / len(idx))
            opt.step()
            losses.append(loss)
            correct += int((probs.argmax(axis=1) == labels[idx]).sum())
            seen += len(idx)
        row = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else 0.0,
            "train_acc": correct / seen if seen else 0.0,
            "val_loss": None,
            "val_acc": None,
            "lr": opt.eta,
        }
        if val_frames is not None and len(val_frames):
            # in batch-size slices, so validation memory does not grow with
            # the validation set
            vprobs = np.concatenate([
                model.net.forward(np.asarray(val_frames[i:i + cfg.batch_size],
                                             dtype=model.dtype), train=False)
                for i in range(0, len(val_frames), cfg.batch_size)])
            vloss, _ = cce_batch(vprobs, np.eye(2)[np.asarray(val_labels, dtype=int)])
            row["val_loss"] = vloss
            row["val_acc"] = float(
                (vprobs.argmax(axis=1) == np.asarray(val_labels)).mean())
        history.append(row)
    return history


def train_agent2(model: Agent2Model, X: np.ndarray, y: np.ndarray,
                 val_X: np.ndarray | None = None,
                 val_y: np.ndarray | None = None,
                 config: Agent2Config | None = None) -> list[dict]:
    """Minimize binary cross-entropy with Adam, early stopping, LR reduction.

    Validation accuracy drives both schedules; the best-validation weights
    are restored before returning. Without a validation set the schedules
    are inactive and training runs the full epoch budget.
    """
    cfg = config or Agent2Config()
    X = np.asarray(X, dtype=model.dtype)
    y = np.asarray(y, dtype=int)
    _check_two_classes(y)
    yf = y.astype(model.dtype)

    model.input_mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    model.input_sigma = np.where(sigma == 0.0, 1.0, sigma)
    X = model.condition(X)

    opt = Adam(model.net.params(), eta=cfg.learning_rate, beta1=cfg.beta1,
               beta2=cfg.beta2, epsilon=cfg.epsilon)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([model.seed, 7]))
    controller = TrainController(cfg.early_stop_patience, cfg.lr_patience,
                                 cfg.lr_factor)
    best_weights = _snapshot(model.net)
    # gradient taken at the logit, (probs - y), so a saturated sigmoid
    # cannot zero out learning; the sigmoid layer holds no parameters
    body = Sequential(model.net.layers[:-1])
    history = []
    n = len(X)
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            logits = body.forward(X[idx], train=True)[:, 0]
            out = sigmoid_fn(logits)
            loss, _ = bce_batch(out, yf[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            model.net.zero_grad()
            body.backward(((out - yf[idx]) / len(idx))[:, None])
            opt.step()
            losses.append(loss)
            correct += int(((out >= 0.5).astype(int) == y[idx]).sum())
        row = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)),
            "train_acc": correct / n,
            "val_loss": None,
            "val_acc": None,
            "lr": opt.eta,
        }
        if val_X is not None and len(val_X):
            vout = predict_agent2(model, val_X)
            vloss, _ = bce_batch(vout, np.asarray(val_y, dtype=model.dtype))
            vacc = float(((vout >= 0.5).astype(int) == np.asarray(val_y)).mean())
            row["val_loss"] = vloss
            row["val_acc"] = vacc
            improved = vacc > controller.best
            stop, reduce = controller.update(vacc)
            if improved:
                best_weights = _snapshot(model.net)
            if reduce:
                opt.eta *= cfg.lr_factor
            history.append(row)
            if stop:
                break
        else:
            history.append(row)
    if val_X is not None and len(val_X):
        _restore(model.net, best_weights)
    return history


# checkpoints ---------------------------------------------------------------

def save_agent(model, path) -> None:
    if isinstance(model, Agent1Model):
        kind, size = ckpt.MODEL_AGENT1, model.input_size
    else:
        kind, size = ckpt.MODEL_AGENT2, model.input_width
    bits = 32 if model.dtype == np.float32 else 64
    ckpt.save_checkpoint(path, model.state(), model_kind=kind,
                         input_size=size, dtype_bits=bits)


def _load_state(state, records, path) -> None:
    """Check every record against the model's state, then copy them in."""
    if len(records) != len(state):
        # record 0 is the metadata, so the first missing or extra one is
        # numbered one past the shorter list
        raise IngestionError(
            f"{path}: record {min(len(records), len(state)) + 1}: expected "
            f"{len(state)} records after the metadata, found {len(records)}")
    for i, ((kind, target), (got_kind, arr)) in enumerate(zip(state, records), 1):
        if got_kind != kind or arr.shape != target.shape:
            raise IngestionError(
                f"{path}: record {i}: expected kind {kind} shape {target.shape}, "
                f"found kind {got_kind} shape {arr.shape}")
    for (_, target), (_, arr) in zip(state, records):
        target[...] = arr


def load_agent(path):
    """Rebuild an agent from a checkpoint; returns Agent1Model or Agent2Model."""
    header, records = ckpt.load_checkpoint(path)
    dtype = np.float32 if header["dtype_bits"] == 32 else np.float64
    if header["model_kind"] == ckpt.MODEL_AGENT1:
        model = build_agent1(seed=0, input_size=header["input_size"], dtype=dtype)
    else:  # load_checkpoint admits only the two model kinds
        model = build_agent2(seed=0, input_width=header["input_size"], dtype=dtype)
    _load_state(model.state(), records, path)
    return model
