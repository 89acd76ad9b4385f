"""Independent reference implementations and test-only tools.

The references are written the slow, obvious way (explicit loops, naive
DFT sums) so they share no code path with the package implementations they
check. The tools (finite-difference gradient check, layer shape chain)
drive the package's own layers, which only tests need.
"""

import math
from collections import deque

import numpy as np

from deepagent.nn.layers import (BatchNorm, Conv2D, Dense, Dropout, GlobalAvgPool,
                                 MaxPool2D, ReLU)


def naive_dft_magnitudes(signal):
    """|X_k| for k = 0..N/2 via the direct DFT sum."""
    n = len(signal)
    bins = n // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        re = im = 0.0
        for t in range(n):
            angle = -2.0 * math.pi * k * t / n
            re += signal[t] * math.cos(angle)
            im += signal[t] * math.sin(angle)
        out[k] = math.hypot(re, im)
    return out


def naive_dft_matrix(frame_length):
    """Complex DFT basis for the first frame_length//2 + 1 bins."""
    bins = frame_length // 2 + 1
    t = np.arange(frame_length)
    k = np.arange(bins)
    return np.exp(-2j * np.pi * np.outer(k, t) / frame_length)


def reference_mfcc_mean(samples, sample_rate=16000, frame_length=400, hop=160,
                        n_filters=13, n_coeffs=13):
    """End-to-end reference: frames -> naive DFT -> mel -> log -> DCT -> mean.

    Mirrors the documented contract (periodic Hann, power-spectrum mel
    energies, 1e-10 floor) but computes every stage independently.
    """
    x = np.asarray(samples, dtype=float)
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * i / frame_length)
                       for i in range(frame_length)])
    n_frames = (len(x) - frame_length) // hop + 1
    basis = naive_dft_matrix(frame_length)
    bins = frame_length // 2 + 1

    # triangular mel weights, built point by point
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    f_max = sample_rate / 2.0
    mel_points = [inv_mel(mel(0.0) + (mel(f_max) - mel(0.0)) * i / (n_filters + 1))
                  for i in range(n_filters + 2)]
    bin_freqs = [k * sample_rate / frame_length for k in range(bins)]
    weights = np.zeros((n_filters, bins))
    for m in range(n_filters):
        left, center, right = mel_points[m], mel_points[m + 1], mel_points[m + 2]
        for k, f in enumerate(bin_freqs):
            if left < f <= center:
                weights[m, k] = (f - left) / (center - left)
            elif center < f < right:
                weights[m, k] = (right - f) / (right - center)
            elif f == center:
                weights[m, k] = 1.0

    coeff_sum = np.zeros(n_coeffs)
    for fr in range(n_frames):
        frame = x[fr * hop:fr * hop + frame_length] * window
        spectrum = np.abs(basis @ frame)
        power = spectrum ** 2
        energies = np.zeros(n_filters)
        for m in range(n_filters):
            energies[m] = float(np.dot(weights[m], power))
        log_e = np.log(np.maximum(energies, 1e-10))
        for c in range(n_coeffs):
            acc = 0.0
            for m in range(1, n_filters + 1):
                acc += log_e[m - 1] * math.cos(math.pi * c * (m - 0.5) / n_filters)
            coeff_sum[c] += acc
    return coeff_sum / n_frames


def naive_bilinear_resize(pixels, out_h, out_w):
    """Per-pixel bilinear resize with half-pixel centers, plain loops."""
    h, w, c = pixels.shape
    out = np.zeros((out_h, out_w, c))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                top = pixels[y0, x0, ch] * (1 - fx) + pixels[y0, x1, ch] * fx
                bot = pixels[y1, x0, ch] * (1 - fx) + pixels[y1, x1, ch] * fx
                out[oy, ox, ch] = top * (1 - fy) + bot * fy
    return out


def _offset_conv(x, layer):
    """Convolution as one tensor product per kernel offset over strided
    slices of the zero-padded input."""
    kernel, k, s = layer.kernel.value, layer.kernel_size, layer.stride
    n, h, w, _ = x.shape
    if layer.padding == "same":
        oh, ow = -(-h // s), -(-w // s)
        ph, pw = max((oh - 1) * s + k - h, 0), max((ow - 1) * s + k - w, 0)
        x = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2),
                       (0, 0)))
    else:
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
    out = np.zeros((n, oh, ow, kernel.shape[3]))
    for i in range(k):
        for j in range(k):
            window = x[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s, :]
            out += np.tensordot(window, kernel[i, j], axes=([3], [0]))
    return out + layer.bias.value


def _offset_maxpool(x, p, s):
    """Max pooling as the running maximum of the p * p window offsets."""
    _, h, w, _ = x.shape
    oh, ow = (h - p) // s + 1, (w - p) // s + 1
    out = np.full((x.shape[0], oh, ow, x.shape[3]), -np.inf)
    for i in range(p):
        for j in range(p):
            out = np.maximum(out, x[:, i:i + s * (oh - 1) + 1:s,
                                    j:j + s * (ow - 1) + 1:s, :])
    return out


class ArgmaxMaxPool2D(MaxPool2D):
    """Max pooling whose train mode stacks every window's p * p values,
    caches their flattened argmax (the first maximum in (row, column)
    order), and whose backward scales a one-hot of it by the output
    gradient and adds it back onto the input one window offset at a time:
    the argmax formulation of the max-pool gradient."""

    def forward(self, x, train=False):
        if not train:
            return _offset_maxpool(x, self.pool_size, self.stride).astype(x.dtype)
        p, s = self.pool_size, self.stride
        oh, ow = (x.shape[1] - p) // s + 1, (x.shape[2] - p) // s + 1
        windows = np.stack([x[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s, :]
                            for i in range(p) for j in range(p)], axis=3)
        self._cache = (windows.argmax(axis=3), x.shape)
        return windows.max(axis=3)

    def backward(self, grad, input_grad=True):
        idx, shape = self._take_cache()
        _, oh, ow, _ = idx.shape
        p, s = self.pool_size, self.stride
        hits = idx[:, :, :, None, :] == np.arange(p * p)[:, None]
        dwin = grad[:, :, :, None, :] * hits
        dx = np.zeros(shape, dtype=dwin.dtype)
        for i in range(p):
            for j in range(p):
                dx[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s, :] += (
                    dwin[:, :, :, i * p + j, :])
        return dx


class FormulaBatchNorm(BatchNorm):
    """Batch normalization whose train mode is written as the textbook
    formulas, each a fresh array: ``xhat = (x - mean) / sqrt(var + eps)``
    from ``x.mean`` and ``x.var``, ``gamma * xhat + beta``, and the backward
    through the batch statistics (Ioffe & Szegedy, arXiv:1502.03167)."""

    def forward(self, x, train=False):
        if not train:
            return super().forward(x)
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv = 1.0 / np.sqrt(var + self.EPSILON)
        xhat = (x - mean) * inv
        m = self.MOMENTUM
        self._ema = m * self._ema + (1.0 - m) * np.stack([mean, var])
        self._steps += 1
        self.running_mean, self.running_var = self._ema / (1.0 - m ** self._steps)
        self._cache = (xhat, inv, axes, int(np.prod([x.shape[a] for a in axes])))
        return self.gamma.value * xhat + self.beta.value

    def backward(self, grad, input_grad=True):
        xhat, inv, axes, nred = self._take_cache()
        self.gamma.grad = (grad * xhat).sum(axis=axes)
        self.beta.grad = grad.sum(axis=axes)
        dxhat = grad * self.gamma.value
        return (inv / nred) * (
            nred * dxhat
            - dxhat.sum(axis=axes)
            - xhat * (dxhat * xhat).sum(axis=axes)
        )


def with_formula_layers(model):
    """``model`` with every MaxPool2D and BatchNorm turned, in place, into
    ``ArgmaxMaxPool2D`` and ``FormulaBatchNorm``; their state is kept."""
    swap = {MaxPool2D: ArgmaxMaxPool2D, BatchNorm: FormulaBatchNorm}
    for layer in model.net.layers:
        layer.__class__ = swap.get(type(layer), type(layer))
    return model


def reference_agent1_probs(model, frames):
    """Fake-class probability per ``N x S x S x 3`` frame: Agent-1's
    inference forward in float64, layer by layer, with none of the package's
    window views or BatchNorm arithmetic (the unfolded
    ``gamma * (x - mean) / sqrt(var + eps) + beta``)."""
    x = np.asarray(frames, dtype=np.float64)
    for layer in model.net.layers:
        if isinstance(layer, Conv2D):
            x = _offset_conv(x, layer)
        elif isinstance(layer, MaxPool2D):
            x = _offset_maxpool(x, layer.pool_size, layer.stride)
        elif isinstance(layer, BatchNorm):
            x = (layer.gamma.value * (x - layer.running_mean)
                 / np.sqrt(layer.running_var + BatchNorm.EPSILON) + layer.beta.value)
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, GlobalAvgPool):
            x = x.mean(axis=(1, 2))
        elif isinstance(layer, Dense):
            x = x @ layer.weights.value + layer.bias.value
        elif not isinstance(layer, Dropout):  # dropout is the identity here
            raise TypeError(f"no reference for {type(layer).__name__}")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e[:, 1] / e.sum(axis=1)


def pairwise_auc(labels, scores):
    """P(score_pos > score_neg) + 0.5 * P(tie) over all (pos, neg) pairs."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def mel_energies_triple_loop(magnitudes, weights):
    """E_m(tau) = sum_f H_m(f) |S(f, tau)|^2 by explicit triple loop."""
    frames, bins = magnitudes.shape
    n_filters = weights.shape[0]
    out = np.zeros((frames, n_filters))
    for tau in range(frames):
        for m in range(n_filters):
            acc = 0.0
            for f in range(bins):
                acc += weights[m, f] * magnitudes[tau, f] ** 2
            out[tau, m] = acc
    return out


def mfcc_double_loop(energies, n_coeffs=13):
    """Eq-by-eq cosine transform of floored log energies."""
    frames, n_filters = energies.shape
    out = np.zeros((frames, n_coeffs))
    for tau in range(frames):
        log_e = [math.log(max(e, 1e-10)) for e in energies[tau]]
        for c in range(n_coeffs):
            acc = 0.0
            for m in range(1, n_filters + 1):
                acc += log_e[m - 1] * math.cos(math.pi * c * (m - 0.5) / n_filters)
            out[tau, c] = acc
    return out


def _reference_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float((p * p).sum())


def reference_grow(X, y, idx, rng):
    """CART grower scanning every midpoint threshold with one bincount each.

    Same contract as the package grower (mtry = 1 with fall-through to the
    remaining features, strict-< first minimum, majority leaves with ties
    to class 1, one ``rng.random(d)`` per splittable node in breadth-first
    order with the stable argsort as its feature order), but the search is
    the slow one and nodes are grown one at a time from a queue. Returns
    nested tuples: ``("leaf", vote)`` or ``(feature, threshold, left, right)``.
    """
    # breadth-first: ("leaf", vote) or (feature, threshold, left id, right id)
    specs = []
    queue = deque([idx])
    while queue:
        idx = queue.popleft()
        ys = y[idx]
        ones = int(ys.sum())
        specs.append(("leaf", 1 if ones >= len(ys) - ones else 0))
        if len(idx) < 2 or ys.min() == ys.max():
            continue
        for f in np.argsort(rng.random(X.shape[1]), kind="stable"):
            vals = np.unique(X[idx, f])
            if len(vals) < 2:
                continue
            col = X[idx, f]
            best_cost, best_thr = np.inf, None
            for thr in (vals[:-1] + vals[1:]) / 2.0:
                left = col <= thr
                n_left = int(left.sum())
                n_right = len(idx) - n_left
                if n_left == 0 or n_right == 0:
                    continue
                cl = np.bincount(ys[left], minlength=2)
                cr = np.bincount(ys[~left], minlength=2)
                cost = (n_left * _reference_gini(cl)
                        + n_right * _reference_gini(cr)) / len(idx)
                if cost < best_cost:
                    best_cost, best_thr = cost, thr
            if best_thr is None:
                continue
            mask = col <= best_thr
            child = len(specs) + len(queue)
            specs[-1] = (int(f), float(best_thr), child, child + 1)
            queue += [idx[mask], idx[~mask]]
            break
    for i in reversed(range(len(specs))):  # children are numbered after parents
        if specs[i][0] != "leaf":
            f, thr, lo, hi = specs[i]
            specs[i] = (f, thr, specs[lo], specs[hi])
    return specs[0]


def tree_vote(node, x):
    """Walk one tree (nodes with feature/threshold/left/right/vote) for x."""
    while node.vote < 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.vote


def reference_adam_step(value, grad, m, v, t, eta, beta1, beta2, epsilon):
    """One whole-array Adam update in place; t is the step count after it."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    value -= eta * (m / bc1) / (np.sqrt(v / bc2) + epsilon)


def naive_affine_sample(pixels, matrix):
    """Per-pixel bilinear sampling of an inverse affine map, plain loops.

    Destination (x, y) reads source ``matrix @ (x, y, 1)``, clipped to the
    image (edge-replicate fill).
    """
    h, w, c = pixels.shape
    out = np.zeros((h, w, c))
    for y in range(h):
        for x in range(w):
            sx = matrix[0][0] * x + matrix[0][1] * y + matrix[0][2]
            sy = matrix[1][0] * x + matrix[1][1] * y + matrix[1][2]
            sx = min(max(sx, 0.0), w - 1.0)
            sy = min(max(sy, 0.0), h - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = sx - x0, sy - y0
            for ch in range(c):
                top = pixels[y0, x0, ch] * (1 - fx) + pixels[y0, x1, ch] * fx
                bot = pixels[y1, x0, ch] * (1 - fx) + pixels[y1, x1, ch] * fx
                out[y, x, ch] = top * (1 - fy) + bot * fy
    return out


def matmul3(a, b):
    """Product of two 3x3 matrices given as nested lists."""
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def gradient_check(model, loss_fn, x, y, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Runs ``model`` (a ``Sequential``) in train mode, so batch statistics and
    dropout paths are exercised. Every ``Dropout`` generator is rewound to
    its starting state before each forward pass, so all passes draw the same
    mask; otherwise the central differences would sample different noise on
    every evaluation. Only meaningful in 64-bit precision.

    ``loss_fn(logits, y)`` returns ``(loss, probabilities, dloss_dlogits)``,
    as the heads in ``deepagent.nn.losses`` do, so a head's logit gradient
    is checked by the same finite differences as the layers below it.
    The relative error per parameter entry is
    ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``.
    """
    drops = [(layer, layer.rng.bit_generator.state)
             for layer in model.layers if isinstance(layer, Dropout)]

    def forward():
        for layer, state in drops:
            layer.rng.bit_generator.state = state
        return model.forward(x, train=True)

    _, _, dout = loss_fn(forward(), y)
    model.backward(dout)
    analytic = [p.grad.copy() for p in model.params()]

    worst = 0.0
    for param, agrad in zip(model.params(), analytic):
        flat = param.value.reshape(-1)
        aflat = agrad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(forward(), y)[0]
            flat[i] = orig - h
            lm = loss_fn(forward(), y)[0]
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(aflat[i] - fd) / denom)
    return worst


def shape_chain(net, in_shape):
    """Per-sample shape after each stage layer (conv/pool/gap/dense) of a
    ``Sequential``, input included; activations and regularizers are
    transparent."""
    chain = [in_shape]
    shape = in_shape
    for layer in net.layers:
        shape = layer.out_shape(shape)
        if isinstance(layer, (Conv2D, MaxPool2D, GlobalAvgPool, Dense)):
            chain.append(shape)
    return chain


def agent1_shape_chain(model):
    """Per-sample shape after every shape-changing Agent-1 layer, input
    included."""
    size = model.input_size
    return shape_chain(model.net, (size, size, 3))
