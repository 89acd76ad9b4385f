"""Adam optimizer with bias-corrected moment estimates; the decay rates and
epsilon are fixed at the Keras defaults (Kingma & Ba, arXiv:1412.6980).

Training fuses the optimizer into the backward pass
(``Sequential.backward(grad, opt)``): one batch is one step, so the step
counter advances once (``advance``), and each layer's parameters are
updated, and their gradients dropped, as soon as that layer's backward has
returned (``step(layer.params())``), so the net holds one layer's gradients
at a time (Lv et al., LOMO, arXiv:2306.09782). ``step()`` with no
arguments is the whole step over every parameter, after a plain backward.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import TrainingError, UsageError
from deepagent.nn.layers import Param

# elements per update slice: the slices of a parameter, its gradient and
# both moments stay in cache with the two scratch buffers across the whole
# update; whole-array temporaries of a 2M-element parameter do not
CHUNK = 16384


class Adam:
    """Adam over a list of Params; holds the moments, step counter and rate."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-7

    def __init__(self, params: list[Param], eta=0.0001):
        self.params = params
        self.eta = eta
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self._moments = {p: (m, v) for p, m, v in zip(params, self.m, self.v)}
        width = min(max((p.value.size for p in params), default=0), CHUNK)
        self._scratch = {dt: (np.empty(width, dt), np.empty(width, dt))
                         for dt in {p.value.dtype for p in params}}

    def advance(self):
        """Start the next step: every update until the next ``advance``
        reads its count in the bias corrections."""
        self.t += 1

    def step(self, params=None):
        """Apply the current step's update to ``params`` in place and drop
        each gradient it applied (``p.grad = None``). Without ``params`` it
        is one whole step: it advances the counter and updates every
        parameter. A missing or non-finite gradient aborts before any of
        ``params`` changes (and before a whole step advances the counter),
        naming the offending parameter; in a fused backward the layers
        above it have then already stepped.

        Each parameter is updated in slices of at most ``CHUNK`` elements
        with the same elementwise operations, in the same order, as the
        whole-array formula ``m = m*b1 + (1-b1)*g``,
        ``v = v*b2 + ((1-b2)*g)*g``,
        ``value -= eta*(m/bc1) / (sqrt(v/bc2) + eps)``, so every bit of the
        result is the same.
        """
        whole = params is None
        if whole:
            params = self.params
        for p in params:
            if p.grad is None:
                raise UsageError(f"no gradient for {p.name}: step needs a backward first")
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient for {p.name}")
        if whole:
            self.advance()
        b1, b2, eta, eps = self.BETA1, self.BETA2, self.eta, self.EPSILON
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p in params:
            m_all, v_all = self._moments[p]
            value = p.value.reshape(-1, copy=False)
            grad = p.grad.reshape(-1)
            m_all = m_all.reshape(-1, copy=False)
            v_all = v_all.reshape(-1, copy=False)
            buf_a, buf_b = self._scratch[value.dtype]
            for lo in range(0, value.size, CHUNK):
                hi = min(lo + CHUNK, value.size)
                g, m, v, w = grad[lo:hi], m_all[lo:hi], v_all[lo:hi], value[lo:hi]
                a, b = buf_a[:hi - lo], buf_b[:hi - lo]
                np.multiply(m, b1, out=m)
                np.multiply(g, 1.0 - b1, out=a)
                np.add(m, a, out=m)
                np.multiply(v, b2, out=v)
                np.multiply(g, 1.0 - b2, out=a)
                np.multiply(a, g, out=a)
                np.add(v, a, out=v)
                np.divide(v, bc2, out=a)
                np.sqrt(a, out=a)
                np.add(a, eps, out=a)
                np.divide(m, bc1, out=b)
                np.multiply(b, eta, out=b)
                np.divide(b, a, out=b)
                np.subtract(w, b, out=w)
            p.grad = None
