"""Finite-difference gradient battery: every case of the acceptance
gradient suite, one test each.

Everything runs in float64; the acceptance bound is a max relative error
below 1e-4, checked per network. Networks with a head end at their logits
and take the loss and logit gradient from the head functions training uses.
"""

import numpy as np

from oracles import gradient_check
from test_acceptance import gradient_suite

TOL = 1e-4


def check(case):
    """Gradient-check the acceptance suite case named ``case``."""
    (name, net, x, y, loss), = [c for c in gradient_suite() if c[0] == case]
    # zero-init biases can park ReLU pre-activations exactly on the kink,
    # where central differences straddle the non-differentiable point; any
    # trained network has nonzero biases, so the check does too
    nudge = np.random.default_rng(17)
    for p in net.params():
        if not p.value.any():
            p.value += nudge.uniform(-0.2, 0.2, size=p.value.shape)
    err = gradient_check(net, loss, x, y)
    assert err < TOL, f"{name}: max relative error {err}"


class TestSingleLayers:
    def test_dense(self):
        check("dense")

    def test_relu(self):
        check("relu")

    def test_conv_valid(self):
        check("conv_valid")

    def test_conv_same_strided(self):
        check("conv_same_strided")

    def test_conv_pool(self):
        check("maxpool")

    def test_batchnorm_dense_mode(self):
        check("batchnorm_dense")

    def test_batchnorm_conv_mode(self):
        check("batchnorm_conv")

    def test_gap(self):
        check("gap")

    def test_dropout_with_pinned_mask(self):
        check("dropout")

    def test_sigmoid_head(self):
        check("sigmoid_bce")


class TestMicroNetworks:
    def test_dense_relu_softmax_cce(self):
        check("softmax_cce")

    def test_conv_pool_gap_micro_net(self):
        check("conv_pool_gap")

    def test_agent2_head_at_width_four(self):
        check("agent2_head")

    def test_agent1_head_micro(self):
        check("agent1_head")


def test_every_suite_case_has_a_test():
    covered = {"dense", "relu", "conv_valid", "conv_same_strided", "maxpool",
               "batchnorm_dense", "batchnorm_conv", "gap", "dropout",
               "sigmoid_bce", "softmax_cce", "conv_pool_gap", "agent2_head",
               "agent1_head"}
    assert {case[0] for case in gradient_suite()} == covered
