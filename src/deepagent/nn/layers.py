"""Layer forward/backward passes for the from-scratch network engine.

Layers operate on batches only (``N x H x W x C`` for spatial layers,
``N x F`` for dense ones) and cache whatever backward needs, but only when
``train=True``; inference passes leave no state behind and are safe to run
concurrently on frozen weights. Conv, pool, batch-norm and dense layers
drop their cache in backward, so a training step's largest buffers (the
im2col copies) are freed before the optimizer step and the next forward.

Each layer lists its persistent arrays once, in ``STATE``, paired with their
checkpoint kind codes; trainable parameters, checkpoints and weight
snapshots all read that list.

``backward(grad, input_grad=True)`` accumulates the parameter gradients and
returns the gradient with respect to the layer input. With
``input_grad=False`` a layer may skip forming it and return None;
:class:`Sequential` asks this of its first layer that holds parameters and
runs no backward below it, because nothing reads the gradient with respect
to the network input.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import ConfigurationError, UsageError
from deepagent.nn import checkpoint as ckpt


class Param:
    """Named trainable array paired with its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        # not zeros_like: calloc'd pages stay untouched until a backward
        self.grad = np.zeros(value.shape, dtype=value.dtype)


class Layer:
    # (attribute, checkpoint kind) per persistent array, in checkpoint order;
    # Param attributes are trained, plain arrays are buffers
    STATE: tuple = ()

    def params(self) -> list[Param]:
        values = (getattr(self, attr) for attr, _ in self.STATE)
        return [v for v in values if isinstance(v, Param)]

    def state(self) -> list[tuple[int, np.ndarray]]:
        """(kind, array) per persistent array; loading writes them in place."""
        out = []
        for attr, kind in self.STATE:
            value = getattr(self, attr)
            out.append((kind, value.value if isinstance(value, Param) else value))
        return out

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def out_shape(self, shape: tuple) -> tuple:
        """Shape one sample has after this layer (no batch dimension)."""
        return shape


def _pad_amounts(size: int, k: int, stride: int, padding: str) -> tuple[int, int, int]:
    """Return (out_size, pad_before, pad_after) along one spatial axis."""
    if padding == "valid":
        if size < k:
            raise ConfigurationError(
                f"valid padding needs input >= kernel, got {size} < {k}"
            )
        return (size - k) // stride + 1, 0, 0
    # same: symmetric zero padding, extra pixel on the trailing side when odd
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    before = total // 2
    return out, before, total - before


class Conv2D(Layer):
    """2-D convolution, channels-last, 'valid' or 'same' zero padding.

    The kernel is ``k x k x in_channels x out_channels``; weights are
    He-uniform from the supplied rng (the layers are ReLU-activated), biases
    start at zero.
    """

    STATE = (("kernel", ckpt.KIND_CONV_KERNEL), ("bias", ckpt.KIND_CONV_BIAS))

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding="valid", *, rng, dtype=np.float64, name="conv"):
        if kernel_size < 1:
            raise ConfigurationError(f"kernel size must be >= 1, got {kernel_size}")
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        if padding not in ("valid", "same"):
            raise ConfigurationError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        k = kernel_size
        limit = np.sqrt(6.0 / (k * k * in_channels))
        kernel = rng.uniform(-limit, limit, size=(k, k, in_channels, out_channels))
        self.kernel = Param(f"{name}.kernel", kernel.astype(dtype))
        self.bias = Param(f"{name}.bias", np.zeros(out_channels, dtype=dtype))
        self._cache = None

    def out_shape(self, shape):
        h, w, c = shape
        if c != self.in_channels:
            raise ConfigurationError(
                f"input depth {c} does not match kernel depth {self.in_channels}"
            )
        oh, _, _ = _pad_amounts(h, self.kernel_size, self.stride, self.padding)
        ow, _, _ = _pad_amounts(w, self.kernel_size, self.stride, self.padding)
        return (oh, ow, self.out_channels)

    def _patches(self, x):
        """im2col: (N, OH, OW, k, k, C) view over the zero-padded input."""
        n, h, w, c = x.shape
        k, s = self.kernel_size, self.stride
        oh, pt, pb = _pad_amounts(h, k, s, self.padding)
        ow, pl, pr = _pad_amounts(w, k, s, self.padding)
        if pt or pb or pl or pr:
            x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        x = np.ascontiguousarray(x)
        sn, sh, sw, sc = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, oh, ow, k, k, c),
            strides=(sn, sh * s, sw * s, sh, sw, sc),
            writeable=False,
        )
        return view, x.shape, (pt, pl)

    def forward(self, x, train=False):
        if x.shape[3] != self.in_channels:
            raise ConfigurationError(
                f"input depth {x.shape[3]} does not match kernel depth {self.in_channels}"
            )
        n = x.shape[0]
        view, padded_shape, _ = self._patches(x)
        _, oh, ow, k, _, c = view.shape
        cols = view.reshape(n * oh * ow, k * k * c)
        kmat = self.kernel.value.reshape(k * k * c, self.out_channels)
        out = cols @ kmat
        out += self.bias.value
        out = out.reshape(n, oh, ow, self.out_channels)
        if train:
            self._cache = (cols, padded_shape, x.shape, (oh, ow))
        return out

    def backward(self, grad, input_grad=True):
        if self._cache is None:
            raise UsageError("conv backward called without a cached forward pass")
        cols, padded_shape, in_shape, (oh, ow) = self._cache
        self._cache = None
        n = in_shape[0]
        k, s, c = self.kernel_size, self.stride, self.in_channels
        gmat = grad.reshape(n * oh * ow, self.out_channels)
        self.kernel.grad += (cols.T @ gmat).reshape(self.kernel.value.shape)
        self.bias.grad += gmat.sum(axis=0)
        if not input_grad:
            return None
        kmat = self.kernel.value.reshape(k * k * c, self.out_channels)
        dcols = (gmat @ kmat.T).reshape(n, oh, ow, k, k, c)
        dx_pad = np.zeros(padded_shape, dtype=grad.dtype)
        for m in range(k):
            for q in range(k):
                dx_pad[:, m:m + oh * s:s, q:q + ow * s:s, :] += dcols[:, :, :, m, q, :]
        ph = padded_shape[1] - in_shape[1]
        pw = padded_shape[2] - in_shape[2]
        pt, pl = ph // 2, pw // 2
        return dx_pad[:, pt:pt + in_shape[1], pl:pl + in_shape[2], :]


class MaxPool2D(Layer):
    """Max pooling over p x p windows; train mode caches the argmax positions
    for backward, inference reduces the strided window view directly."""

    def __init__(self, pool_size, stride):
        if pool_size < 1 or stride < 1:
            raise ConfigurationError("pool size and stride must be >= 1")
        self.pool_size = pool_size
        self.stride = stride
        self._cache = None

    def out_shape(self, shape):
        h, w, c = shape
        p = self.pool_size
        if p > h or p > w:
            raise ConfigurationError(f"pool window {p} larger than input {h}x{w}")
        s = self.stride
        return ((h - p) // s + 1, (w - p) // s + 1, c)

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        p, s = self.pool_size, self.stride
        if p > h or p > w:
            raise ConfigurationError(f"pool window {p} larger than input {h}x{w}")
        oh = (h - p) // s + 1
        ow = (w - p) // s + 1
        x = np.ascontiguousarray(x)
        sn, sh, sw, sc = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, oh, ow, p, p, c),
            strides=(sn, sh * s, sw * s, sh, sw, sc),
            writeable=False,
        )
        if not train:
            return view.max(axis=(3, 4))
        windows = view.reshape(n, oh, ow, p * p, c)
        idx = windows.argmax(axis=3)
        self._cache = (idx, x.shape, (oh, ow))
        return windows.max(axis=3)

    def backward(self, grad, input_grad=True):
        if self._cache is None:
            raise UsageError("maxpool backward called without a cached forward pass")
        idx, in_shape, (oh, ow) = self._cache
        self._cache = None
        p, s = self.pool_size, self.stride
        dx = np.zeros(in_shape, dtype=grad.dtype)
        for m in range(p):
            for q in range(p):
                sel = grad * (idx == m * p + q)
                dx[:, m:m + oh * s:s, q:q + ow * s:s, :] += sel
        return dx


class BatchNorm(Layer):
    """Per-channel batch normalization over batch (and spatial) dimensions.

    Train mode uses batch statistics and folds them into the running
    estimates with ``running = MOMENTUM * running + (1 - MOMENTUM) * batch``;
    inference always reads the running estimates. Momentum and epsilon are
    fixed, at the Keras defaults.
    """

    STATE = (("gamma", ckpt.KIND_BN_GAMMA), ("beta", ckpt.KIND_BN_BETA),
             ("running_mean", ckpt.KIND_BN_MEAN), ("running_var", ckpt.KIND_BN_VAR))
    MOMENTUM = 0.99
    EPSILON = 1e-3

    def __init__(self, channels, *, dtype=np.float64, name="bn"):
        self.channels = channels
        self.gamma = Param(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Param(f"{name}.beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self._cache = None

    def forward(self, x, train=False):
        axes = tuple(range(x.ndim - 1))
        if x.shape[-1] != self.channels:
            raise ConfigurationError(
                f"batchnorm over {self.channels} channels got input depth {x.shape[-1]}"
            )
        if train:
            if x.shape[0] < 2:
                raise UsageError("batch normalization needs batch size >= 2 in train mode")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            inv = 1.0 / np.sqrt(var + self.EPSILON)
            xhat = (x - mean) * inv
            m = self.MOMENTUM
            self.running_mean = m * self.running_mean + (1.0 - m) * mean
            self.running_var = m * self.running_var + (1.0 - m) * var
            self._cache = (xhat, inv, axes, int(np.prod([x.shape[a] for a in axes])))
            return self.gamma.value * xhat + self.beta.value
        inv = 1.0 / np.sqrt(self.running_var + self.EPSILON)
        return self.gamma.value * (x - self.running_mean) * inv + self.beta.value

    def backward(self, grad, input_grad=True):
        if self._cache is None:
            raise UsageError("batchnorm backward called without a cached forward pass")
        xhat, inv, axes, nred = self._cache
        self._cache = None
        self.gamma.grad += (grad * xhat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        dxhat = grad * self.gamma.value
        # standard batch-norm backward through the batch statistics
        dx = (inv / nred) * (
            nred * dxhat
            - dxhat.sum(axis=axes)
            - xhat * (dxhat * xhat).sum(axis=axes)
        )
        return dx


class Standardize(Layer):
    """Fixed per-feature input standardization ``(x - mean) / sigma``.

    ``fit`` sets the population mean and standard deviation of each column
    (a constant column keeps sigma 1); training never changes them, so the
    layer has no parameters and no backward. Placed first, it is a
    reparameterization of the layer after it.
    """

    STATE = (("mean", ckpt.KIND_STD_MU), ("sigma", ckpt.KIND_STD_SIGMA))

    def __init__(self, width, *, dtype=np.float64):
        self.mean = np.zeros(width, dtype=dtype)
        self.sigma = np.ones(width, dtype=dtype)

    def fit(self, x: np.ndarray) -> "Standardize":
        if len(x) == 0:
            raise UsageError("cannot fit a standardizer on an empty set")
        self.mean = x.mean(axis=0)
        sigma = x.std(axis=0)
        self.sigma = np.where(sigma == 0.0, 1.0, sigma)
        return self

    def forward(self, x, train=False):
        return (x - self.mean) / self.sigma


class GlobalAvgPool(Layer):
    """Reduce each channel's feature map to its spatial mean."""

    def out_shape(self, shape):
        return (shape[2],)

    def forward(self, x, train=False):
        if train:
            self._cache = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad, input_grad=True):
        n, h, w, c = self._cache
        return np.broadcast_to(grad[:, None, None, :], (n, h, w, c)) / (h * w)


class Dense(Layer):
    """Affine map ``x @ W + b`` with W of shape in x out."""

    STATE = (("weights", ckpt.KIND_DENSE_W), ("bias", ckpt.KIND_DENSE_B))

    def __init__(self, in_width, out_width, *, rng, dtype=np.float64,
                 init="he", name="dense"):
        self.in_width = in_width
        self.out_width = out_width
        fan = in_width + out_width if init == "xavier" else in_width
        limit = np.sqrt(6.0 / fan)
        w = rng.uniform(-limit, limit, size=(in_width, out_width))
        self.weights = Param(f"{name}.weights", w.astype(dtype))
        self.bias = Param(f"{name}.bias", np.zeros(out_width, dtype=dtype))
        self._cache = None

    def out_shape(self, shape):
        return (self.out_width,)

    def forward(self, x, train=False):
        if x.shape[1] != self.in_width:
            raise ConfigurationError(
                f"dense layer expects width {self.in_width}, got {x.shape[1]}"
            )
        out = x @ self.weights.value + self.bias.value
        if train:
            self._cache = x
        return out

    def backward(self, grad, input_grad=True):
        if self._cache is None:
            raise UsageError("dense backward called without a cached forward pass")
        x = self._cache
        self._cache = None
        self.weights.grad += x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        if not input_grad:
            return None
        return grad @ self.weights.value.T


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad, input_grad=True):
        return grad * self._cache


class Dropout(Layer):
    """Inverted dropout: zero units with probability p at train time and
    scale survivors by 1/(1-p); inference is the identity map."""

    def __init__(self, p, *, rng):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout rate must satisfy 0 <= p < 1, got {p}")
        self.p = p
        self.rng = rng
        self._cache = None

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            return x
        mask = self.rng.random(x.shape) >= self.p
        scale = 1.0 / (1.0 - self.p)
        self._cache = (mask, scale)
        return x * mask * scale

    def backward(self, grad, input_grad=True):
        if self._cache is None:
            return grad
        mask, scale = self._cache
        return grad * mask * scale


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def state(self):
        return [s for layer in self.layers for s in layer.state()]

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        """Accumulate every parameter gradient; nothing reads the gradient
        with respect to the network input, so backward stops at the first
        layer that holds parameters, without forming its input gradient."""
        first = next(i for i, layer in enumerate(self.layers) if layer.params())
        for layer in self.layers[:first:-1]:
            grad = layer.backward(grad)
        self.layers[first].backward(grad, input_grad=False)

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0.0

