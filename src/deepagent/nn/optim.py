"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from deepagent.errors import TrainingError
from deepagent.nn.layers import Param


class Adam:
    """Adam over a list of Params; holds the moments, step counter and rate."""

    def __init__(self, params: list[Param], eta=0.0001, beta1=0.9,
                 beta2=0.999, epsilon=1e-7):
        self.params = params
        self.eta = eta
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        """Apply one update in place; a non-finite gradient aborts the step,
        naming the offending parameter."""
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient for {p.name}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.value -= self.eta * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
