"""Layer forward/backward passes for the from-scratch network engine.

Layers operate on batches only (``N x H x W x C`` for spatial layers,
``N x F`` for dense ones) and cache whatever backward needs, but only when
``train=True``; inference passes leave no state behind and are safe to run
concurrently on frozen weights. Every backward takes its cache through
``Layer._take_cache``, which drops it, so each layer's cached activations
are freed as the backward passes it, and raises a ``UsageError`` when no
train-mode forward left one. Conv and max pooling share one window view,
``_windows``; conv's backward sums window gradients back onto the input
positions they read through its transpose, ``_fold`` (Dumoulin & Visin,
arXiv:1603.07285). Each ``forward`` takes its output size from
``out_shape``.

Conv's forward, in both modes and either dtype, copies its windows into an
im2col matrix one band of at most ``BAND_BYTES`` at a time, and each band's
GEMM writes its slice of the output (Chetlur et al., arXiv:1410.0759).
Train mode caches the padded input, and backward lowers it again band by
band, over the forward's bands: each band adds its share of the kernel
gradient and folds its window gradients into the input gradient, so no
pass holds more than a band of the matrix or of its gradient: recompute
instead of store (Chen et al., arXiv:1604.06174).

Each layer lists its persistent arrays once, in ``STATE``, paired with their
checkpoint kind codes; trainable parameters, checkpoints and weight
snapshots all read that list.

``backward(grad, input_grad=True)`` sets each parameter's gradient for
this step (``Param.grad``, None between steps, read and dropped by
``Adam.step``) and returns the gradient with respect to the layer input. With
``input_grad=False`` a layer may skip forming it and return None;
:class:`Sequential` asks this of its first layer that holds parameters and
runs no backward below it, because nothing reads the gradient with respect
to the network input. Given an optimizer, ``Sequential.backward`` steps each
layer's parameters as soon as that layer's backward returns, so a parameter
gradient lives for one layer's update, and the net holds one layer's
gradients at a time (Lv et al., arXiv:2306.09782).
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import ConfigurationError, UsageError
from deepagent.nn import checkpoint as ckpt

# window bytes per im2col band of a Conv2D forward or backward, in either dtype
BAND_BYTES = 2 ** 20


class Param:
    """Named trainable array and the gradient of the current step, which
    its layer's backward sets and ``Adam.step`` consumes, in a fused
    backward before the layer below runs its backward; None in between."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = None


class Layer:
    # (attribute, checkpoint kind) per persistent array, in checkpoint order;
    # Param attributes are trained, plain arrays are buffers
    STATE: tuple = ()
    # what backward needs, set by a train-mode forward
    _cache = None

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

    def _take_cache(self):
        """The train-mode forward's cache, dropped as it is read."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise UsageError(
                f"{type(self).__name__} backward called without a cached forward pass")
        return cache


def _windows(x, k, s, oh, ow):
    """Read-only (N, OH, OW, k, k, C) view of the k x k windows at stride s."""
    x = np.ascontiguousarray(x)
    n, _, _, c = x.shape
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, k, k, c),
        strides=(sn, sh * s, sw * s, sh, sw, sc), writeable=False)


def _fold(dwin, out, s):
    """Transpose of ``_windows``: add the (..., OH, OW, k, k, C) window
    gradients ``dwin`` onto ``out``, the (..., H, W, C) view whose first row
    and column the first window starts at, so that each input position sums
    the window gradients that read it, in (row, column) offset order."""
    oh, ow, k = dwin.shape[-5:-2]
    for m in range(k):
        for q in range(k):
            out[..., m:m + oh * s:s, q:q + ow * s:s, :] += dwin[..., m, q, :]


def _split(count, most):
    """(lo, hi) bounds of the fewest near-equal runs of at most ``most``
    that cover ``range(count)``, longer runs first; one empty run when
    ``count`` is 0."""
    parts = max(1, -(-count // most))
    edges = [-(-count * j // parts) for j in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _bands(n, oh, row_values, itemsize):
    """Index tuples that split an (N, OH, ...) array into bands of at most
    ``BAND_BYTES`` of window values, given ``row_values`` per output row and
    ``itemsize`` bytes per value: near-equal groups of whole samples while
    one sample fits, otherwise near-equal runs of one sample's rows. A GEMM
    of a few rows may round differently from the whole-matrix product, so
    no band is a sliver: where there are several, each holds more than a
    third of ``BAND_BYTES`` (or one row that alone exceeds it)."""
    most = BAND_BYTES // itemsize
    if oh * row_values <= most:
        return [(slice(lo, hi),) for lo, hi in _split(n, most // (oh * row_values))]
    return [(i, slice(lo, hi)) for i in range(n)
            for lo, hi in _split(oh, max(1, most // row_values))]


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
        self.kernel = Param(f"{name}.kernel", kernel.astype(dtype, copy=False))
        self.bias = Param(f"{name}.bias", np.zeros(out_channels, dtype=dtype))

    def out_shape(self, shape):
        h, w, c = shape
        k, s = self.kernel_size, self.stride
        if c != self.in_channels:
            raise ConfigurationError(
                f"input depth {c} does not match kernel depth {self.in_channels}")
        if self.padding == "same":
            return (-(-h // s), -(-w // s), self.out_channels)
        if min(h, w) < k:
            raise ConfigurationError(
                f"valid padding needs input >= kernel, got {h if h < k else w} < {k}")
        return ((h - k) // s + 1, (w - k) // s + 1, self.out_channels)

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        oh, ow, _ = self.out_shape((h, w, c))
        k, s, oc = self.kernel_size, self.stride, self.out_channels
        # the zero padding the output size needs ('same' only), split
        # symmetrically with the extra pixel on the trailing side
        ph, pw = max((oh - 1) * s + k - h, 0), max((ow - 1) * s + k - w, 0)
        if ph or pw:
            padded = np.zeros((n, h + ph, w + pw, c), dtype=x.dtype)
            padded[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w] = x
            x = padded
        windows = _windows(x, k, s, oh, ow)
        kmat = self.kernel.value.reshape(k * k * c, oc)
        out = np.empty((n, oh, ow, oc), dtype=np.result_type(x, kmat))
        for at in _bands(n, oh, ow * k * k * c, x.itemsize):
            np.matmul(windows[at].reshape(-1, k * k * c), kmat,
                      out=out[at].reshape(-1, oc))
        out += self.bias.value
        if train:
            self._cache = (x, (h, w))
        return out

    def backward(self, grad, input_grad=True):
        padded, (h, w) = self._take_cache()
        n, oh, ow, oc = grad.shape
        k, s, c = self.kernel_size, self.stride, self.in_channels
        windows = _windows(padded, k, s, oh, ow)
        kmat = self.kernel.value.reshape(k * k * c, oc)
        dkernel = part = None
        dx_pad = (np.zeros(padded.shape, dtype=np.result_type(grad, kmat))
                  if input_grad else None)
        # the forward's bands, last first: a row band's input rows overlap
        # the next band's, and each position then sums its window gradients
        # in the whole fold's order
        for at in reversed(_bands(n, oh, ow * k * k * c, padded.itemsize)):
            band = windows[at]
            gband = grad[at].reshape(-1, oc)
            cols = band.reshape(-1, k * k * c)
            if dkernel is None:
                dkernel = cols.T @ gband
            else:
                part = np.matmul(cols.T, gband, out=part)
                dkernel += part
            del cols
            if input_grad:
                # one sample's output rows lo:hi read its input rows from lo * s
                into = dx_pad[at[0], at[1].start * s:] if len(at) == 2 else dx_pad[at]
                _fold((gband @ kmat.T).reshape(band.shape), into, s)
        self.kernel.grad = dkernel.reshape(self.kernel.value.shape)
        self.bias.grad = grad.reshape(-1, oc).sum(axis=0)
        if not input_grad:
            return None
        pt, pl = (padded.shape[1] - h) // 2, (padded.shape[2] - w) // 2
        return dx_pad[:, pt:pt + h, pl:pl + w, :]


class MaxPool2D(Layer):
    """Max pooling over p x p windows, a reduce of the strided window view
    in both modes. Train mode caches the input and the output; backward
    gives each window's gradient to its first maximum in (row, column)
    order, argmax's tie rule, so a window holding NaN routes none."""

    def __init__(self, pool_size, stride):
        if pool_size < 1 or stride < 1:
            raise ConfigurationError("pool size and stride must be >= 1")
        self.pool_size = pool_size
        self.stride = stride

    def out_shape(self, shape):
        h, w, c = shape
        p = self.pool_size
        if p > h or p > w:
            raise ConfigurationError(f"pool window {p} larger than input {h}x{w}")
        s = self.stride
        return ((h - p) // s + 1, (w - p) // s + 1, c)

    def forward(self, x, train=False):
        oh, ow, _ = self.out_shape(x.shape[1:])
        out = _windows(x, self.pool_size, self.stride, oh, ow).max(axis=(3, 4))
        if train:
            self._cache = (x, out)
        return out

    def backward(self, grad, input_grad=True):
        x, out = self._take_cache()
        _, oh, ow, _ = out.shape
        p, s = self.pool_size, self.stride
        dx = np.zeros(x.shape, dtype=grad.dtype)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for m in range(p):
            for q in range(p):
                at = (slice(None), slice(m, m + oh * s, s), slice(q, q + ow * s, s))
                hit = x[at] == out
                hit &= free
                free &= ~hit
                dx[at] += grad * hit
        return dx


class BatchNorm(Layer):
    """Per-channel batch normalization over batch (and spatial) dimensions.

    Train mode uses batch statistics and folds them into zero-started moving
    averages; after step t the running estimates are those averages
    debiased by ``1 - MOMENTUM**t`` (as Adam's moments are). Inference folds
    them with gamma and beta into one per-channel scale and shift.
    Momentum and epsilon are fixed, at the Keras defaults.
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
        self._ema = np.zeros((2, channels), dtype=dtype)  # mean, var
        self._steps = 0

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
            # the centred input, formed once: var reads its square, and it
            # is scaled in place into xhat
            xhat = x - mean
            out = np.square(xhat)
            var = out.mean(axis=axes)
            inv = 1.0 / np.sqrt(var + self.EPSILON)
            xhat *= inv
            m = self.MOMENTUM
            self._ema = m * self._ema + (1.0 - m) * np.stack([mean, var])
            self._steps += 1
            self.running_mean, self.running_var = self._ema / (1.0 - m ** self._steps)
            self._cache = (xhat, inv, axes, int(np.prod([x.shape[a] for a in axes])))
            np.multiply(xhat, self.gamma.value, out=out)
            out += self.beta.value
            return out
        scale = self.gamma.value / np.sqrt(self.running_var + self.EPSILON)
        out = x * scale
        out += self.beta.value - self.running_mean * scale
        return out

    def backward(self, grad, input_grad=True):
        xhat, inv, axes, nred = self._take_cache()
        prod = grad * xhat
        self.gamma.grad = prod.sum(axis=axes)
        self.beta.grad = grad.sum(axis=axes)
        dx = grad * self.gamma.value  # dxhat, turned into dx in place
        # standard batch-norm backward through the batch statistics:
        # dx = (inv / nred) * (nred * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        dsum = dx.sum(axis=axes)
        dxsum = np.multiply(dx, xhat, out=prod).sum(axis=axes)
        dx *= nred
        dx -= dsum
        dx -= np.multiply(xhat, dxsum, out=xhat)
        dx *= inv / nred
        return dx


class Standardize(Layer):
    """Fixed per-feature input standardization ``(x - mean) / sigma``.

    ``fit`` sets the population mean and standard deviation of each column
    (a constant column keeps sigma 1); training never changes them, so the
    layer has no parameters and no backward. Placed first, it is a
    reparameterization of the layer after it.
    """

    STATE = (("mean", ckpt.KIND_STD_MU), ("sigma", ckpt.KIND_STD_SIGMA))

    def __init__(self, width):
        self.mean = np.zeros(width)
        self.sigma = np.ones(width)

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
        n, h, w, c = self._take_cache()
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
        self.weights = Param(f"{name}.weights", w.astype(dtype, copy=False))
        self.bias = Param(f"{name}.bias", np.zeros(out_width, dtype=dtype))

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
        x = self._take_cache()
        self.weights.grad = x.T @ grad
        self.bias.grad = grad.sum(axis=0)
        if not input_grad:
            return None
        return grad @ self.weights.value.T


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad, input_grad=True):
        return grad * self._take_cache()


class Dropout(Layer):
    """Inverted dropout: zero units with probability p at train time and
    scale survivors by 1/(1-p); inference is the identity map."""

    def __init__(self, p, *, rng):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout rate must satisfy 0 <= p < 1, got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, train=False):
        if not train:
            return x
        mask = self.rng.random(x.shape) >= self.p
        scale = 1.0 / (1.0 - self.p)
        self._cache = (mask, scale)
        return x * mask * scale

    def backward(self, grad, input_grad=True):
        mask, scale = self._take_cache()
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

    def backward(self, grad, opt=None):
        """Set every parameter gradient; nothing reads the gradient
        with respect to the network input, so backward stops at the first
        layer that holds parameters, without forming its input gradient.

        Given an optimizer, the backward is one step of it (``opt.advance``):
        each layer's parameters are stepped, and their gradients dropped, as
        soon as that layer's backward has formed its input gradient from the
        old weights, so one layer's gradients are alive at a time."""
        first = next(i for i, layer in enumerate(self.layers) if layer.params())
        if opt is not None:
            opt.advance()
        for i in range(len(self.layers) - 1, first - 1, -1):
            layer = self.layers[i]
            grad = layer.backward(grad, input_grad=i > first)
            params = layer.params()
            if opt is not None and params:
                opt.step(params)

