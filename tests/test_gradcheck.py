"""Finite-difference gradient battery over layers and micro-networks.

Everything runs in float64; the acceptance bound is a max relative error
below 1e-4, checked per network.
"""

import numpy as np

from deepagent.nn import (
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
from deepagent.nn.losses import bce_batch, cce_batch

from oracles import gradient_check

TOL = 1e-4


def cce_loss_fn(out, y):
    return cce_batch(out, y)


def bce_loss_fn(out, y):
    loss, grad = bce_batch(out[:, 0], y)
    return loss, grad[:, None]


RNG = np.random.default_rng(321)


def weighted_sum_loss(out, _):
    # random but fixed weights keep every parameter's gradient away from the
    # degenerate exact-zero case (a plain sum zeroes batch-norm gamma grads)
    w = np.random.default_rng(99).normal(size=out.shape)
    return float((w * out).sum()), w


def check(net, x, y=None, loss_fn=weighted_sum_loss):
    # zero-init biases can park ReLU pre-activations exactly on the kink,
    # where central differences straddle the non-differentiable point; any
    # trained network has nonzero biases, so the check does too
    nudge = np.random.default_rng(17)
    for p in net.params():
        if not p.value.any():
            p.value += nudge.uniform(-0.2, 0.2, size=p.value.shape)
    err = gradient_check(net, loss_fn, x, y)
    assert err < TOL, f"max relative error {err}"
    return err


class TestSingleLayers:
    def test_dense(self):
        net = Sequential([Dense(4, 3, rng=RNG)])
        check(net, RNG.normal(size=(5, 4)))

    def test_conv_valid(self):
        net = Sequential([Conv2D(2, 3, 3, rng=RNG)])
        check(net, RNG.normal(size=(2, 6, 6, 2)))

    def test_conv_same_strided(self):
        net = Sequential([Conv2D(2, 2, 3, stride=2, padding="same", rng=RNG)])
        check(net, RNG.normal(size=(2, 7, 7, 2)))

    def test_conv_pool(self):
        net = Sequential([Conv2D(1, 2, 3, rng=RNG), MaxPool2D(2, 2)])
        check(net, RNG.normal(size=(2, 6, 6, 1)))

    def test_batchnorm_dense_mode(self):
        # relu between affine and norm, as deployed; a bias feeding batch
        # norm directly is structurally gradient-free and FD cannot resolve
        # an exact zero against rounding noise
        net = Sequential([Dense(3, 4, rng=RNG), ReLU(), BatchNorm(4)])
        check(net, RNG.normal(size=(6, 3)))

    def test_batchnorm_conv_mode(self):
        net = Sequential([Conv2D(2, 3, 3, padding="same", rng=RNG), ReLU(),
                          BatchNorm(3)])
        check(net, RNG.normal(size=(3, 5, 5, 2)))

    def test_gap(self):
        net = Sequential([Conv2D(2, 3, 3, rng=RNG), GlobalAvgPool()])
        check(net, RNG.normal(size=(2, 5, 5, 2)))

    def test_dropout_with_pinned_mask(self):
        net = Sequential([Dense(6, 6, rng=RNG),
                          Dropout(0.4, rng=np.random.default_rng(5)),
                          Dense(6, 2, rng=RNG)])
        check(net, RNG.normal(size=(4, 6)))

    def test_sigmoid_head(self):
        net = Sequential([Dense(3, 1, rng=RNG), Sigmoid()])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        check(net, RNG.normal(size=(4, 3)), y, bce_loss_fn)


class TestMicroNetworks:
    def test_dense_relu_softmax_cce(self):
        net = Sequential([
            Dense(5, 6, rng=RNG), ReLU(),
            Dense(6, 3, rng=RNG), SoftmaxLayer(),
        ])
        y = np.eye(3)[[0, 2, 1, 1]]
        check(net, RNG.normal(size=(4, 5)), y, cce_loss_fn)

    def test_conv_pool_gap_micro_net(self):
        net = Sequential([
            Conv2D(2, 4, 3, padding="same", rng=RNG), ReLU(),
            MaxPool2D(2, 2),
            GlobalAvgPool(),
            Dense(4, 2, rng=RNG), SoftmaxLayer(),
        ])
        y = np.eye(2)[[0, 1, 1]]
        check(net, RNG.normal(size=(3, 6, 6, 2)), y, cce_loss_fn)

    def test_agent2_head_at_width_four(self):
        # same stack as the multimodal head, shrunk to width 4
        net = Sequential([
            Dense(4, 4, rng=RNG), ReLU(), Dropout(0.2, rng=np.random.default_rng(6)),
            Dense(4, 4, rng=RNG), ReLU(), Dropout(0.2, rng=np.random.default_rng(7)),
            Dense(4, 4, rng=RNG), ReLU(),
            Dense(4, 1, rng=RNG, init="xavier"), Sigmoid(),
        ])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        check(net, RNG.normal(size=(5, 4)), y, bce_loss_fn)

    def test_agent1_head_micro(self):
        # conv blocks with batch norm feeding the GAP + regularized dense head
        net = Sequential([
            Conv2D(2, 3, 3, stride=2, padding="valid", rng=RNG), ReLU(), BatchNorm(3),
            MaxPool2D(2, 1),
            Conv2D(3, 4, 3, padding="same", rng=RNG), ReLU(), BatchNorm(4),
            GlobalAvgPool(),
            Dense(4, 6, rng=RNG), ReLU(),
            Dropout(0.5, rng=np.random.default_rng(8)), BatchNorm(6),
            Dense(6, 4, rng=RNG), ReLU(),
            Dropout(0.5, rng=np.random.default_rng(9)),
            Dense(4, 2, rng=RNG, init="xavier"), SoftmaxLayer(),
        ])
        y = np.eye(2)[[0, 1, 0]]
        check(net, RNG.normal(size=(3, 9, 9, 2)), y, cce_loss_fn)
