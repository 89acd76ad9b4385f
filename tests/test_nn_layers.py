"""Forward/backward behavior of every layer, the heads, and Adam."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import agents
from deepagent.config import Agent1Config
from deepagent.errors import ConfigurationError, TrainingError, UsageError
from deepagent.nn import layers
from deepagent.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2D,
    Param,
    ReLU,
    Standardize,
)
from deepagent.nn.losses import LOG_FLOOR, sigmoid, sigmoid_bce, softmax, softmax_cce
from deepagent.nn.optim import CHUNK, Adam

from oracles import (ArgmaxMaxPool2D, FormulaBatchNorm, Im2colConv2D,
                     reference_adam_step, with_formula_layers)


def conv_forward(layer, image):
    """Train-mode forward of one H x W x C image, batch axis dropped."""
    return layer.forward(image[None], train=True)[0]


def conv_backward(layer, grad_out):
    """(grad_input, grad_kernel, grad_bias) of one image's cached forward."""
    dx = layer.backward(grad_out[None])[0]
    return dx, layer.kernel.grad, layer.bias.grad


def cce_loss(y_true, y_pred):
    """Loss of one prediction: its log-probabilities are logits whose
    softmax is ``y_pred``, run as a one-row batch through softmax_cce."""
    with np.errstate(divide="ignore"):  # log(0) = -inf has softmax weight 0
        logits = np.log(np.asarray(y_pred, dtype=float))
    return softmax_cce(logits[None], np.asarray(y_true, dtype=float)[None])[0]


def bce_loss(y, y_hat):
    """Loss of one prediction: the logit of ``y_hat`` as a one-row batch
    through sigmoid_bce."""
    logit = np.log(y_hat) - np.log1p(-y_hat)
    return sigmoid_bce(np.array([[logit]]), np.array([[float(y)]]))[0]


class TestConv2D:
    def test_all_ones_kernel_sums_window(self):
        layer = Conv2D(1, 1, 3, rng=np.random.default_rng(0))
        layer.kernel.value[...] = 1.0
        out = conv_forward(layer, np.ones((3, 3, 1)))
        npt.assert_allclose(out, [[[9.0]]])

    def test_alexnet_entry_shape(self):
        layer = Conv2D(3, 64, 11, stride=4, padding="valid", rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((1, 224, 224, 3)))
        assert out.shape == (1, 54, 54, 64)

    def test_zero_kernel_passes_bias_through(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(2, 3, 3, padding="same", rng=rng)
        layer.kernel.value[...] = 0.0
        layer.bias.value[...] = 0.7
        out = conv_forward(layer, rng.normal(size=(5, 5, 2)))
        npt.assert_allclose(out, 0.7)

    def test_depth_mismatch_rejected(self):
        layer = Conv2D(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            conv_forward(layer, np.zeros((5, 5, 2)))

    def test_valid_padding_needs_room(self):
        layer = Conv2D(1, 1, 5, padding="valid", rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            conv_forward(layer, np.zeros((3, 3, 1)))

    def test_same_padding_shape(self):
        layer = Conv2D(1, 2, 5, stride=1, padding="same", rng=np.random.default_rng(0))
        out = conv_forward(layer, np.zeros((6, 6, 1)))
        assert out.shape == (6, 6, 2)

    def test_same_padding_puts_the_odd_pixel_on_the_trailing_side(self):
        # a 2 x 2 window needs one pixel of padding per axis: the last row
        # and column of windows overhang the input, the first ones do not
        layer = Conv2D(1, 1, 2, padding="same", rng=np.random.default_rng(0))
        layer.kernel.value[...] = 1.0
        out = conv_forward(layer, np.ones((3, 3, 1)))
        npt.assert_array_equal(out[..., 0], [[4, 4, 2], [4, 4, 2], [2, 2, 1]])

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 2, 3, rng=rng)
        out = conv_forward(layer, rng.normal(size=(5, 5, 2)))
        dx, dk, db = conv_backward(layer, np.zeros_like(out))
        assert not dx.any() and not dk.any() and not db.any()

    def test_scalar_chain_rule(self):
        # 1x1 input, 1x1 kernel, loss = output: grad_kernel = input value
        layer = Conv2D(1, 1, 1, rng=np.random.default_rng(0))
        layer.kernel.value[...] = 3.0
        x = np.array([[[2.5]]])
        conv_forward(layer, x)
        _, dk, db = conv_backward(layer, np.ones((1, 1, 1)))
        npt.assert_allclose(dk, [[[[2.5]]]])
        npt.assert_allclose(db, [1.0])

    def test_backward_without_forward_rejected(self):
        layer = Conv2D(1, 1, 1, rng=np.random.default_rng(0))
        with pytest.raises(UsageError):
            conv_backward(layer, np.ones((1, 1, 1)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 2, 3, rng=rng)
        x = rng.normal(size=(5, 5, 2))
        out = conv_forward(layer, x)
        g = rng.normal(size=out.shape)
        dx, dk, db = conv_backward(layer, g)

        h = 1e-5

        def loss_at(arr, flat_idx, delta, which):
            if which == "x":
                xx = x.copy()
                xx.reshape(-1)[flat_idx] += delta
                return float((conv_forward(layer, xx) * g).sum())
            orig = layer.kernel.value.reshape(-1)[flat_idx]
            layer.kernel.value.reshape(-1)[flat_idx] = orig + delta
            val = float((conv_forward(layer, x) * g).sum())
            layer.kernel.value.reshape(-1)[flat_idx] = orig
            return val

        worst = 0.0
        for i in range(x.size):
            fd = (loss_at(x, i, h, "x") - loss_at(x, i, -h, "x")) / (2 * h)
            a = dx.reshape(-1)[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        for i in range(layer.kernel.value.size):
            fd = (loss_at(None, i, h, "k") - loss_at(None, i, -h, "k")) / (2 * h)
            a = dk.reshape(-1)[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        assert worst < 1e-4


class TestMaxPool:
    def test_window_max(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None, ..., None]
        out = MaxPool2D(2, 2).forward(x, train=True)[0]
        npt.assert_allclose(out, [[[4.0]]])

    def test_agent1_pool_shape(self):
        layer = MaxPool2D(3, 2)
        out = layer.forward(np.zeros((1, 54, 54, 64)))
        assert out.shape == (1, 26, 26, 64)

    def test_constant_input_constant_output(self):
        out = MaxPool2D(3, 2).forward(np.full((1, 6, 6, 2), 3.25), train=True)
        npt.assert_allclose(out, 3.25)

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(3, 1).forward(np.zeros((1, 2, 2, 1)), train=True)

    @pytest.mark.parametrize("pool, stride", [(3, 2), (2, 2), (3, 1), (2, 3)])
    def test_inference_output_equals_train_output_with_ties(self, pool, stride):
        rng = np.random.default_rng(31)
        for _ in range(10):
            # few distinct values, so most windows hold tied maxima
            x = rng.integers(-2, 3, size=(3, 9, 11, 4)).astype(float)
            x[0, :4, :4, :] = 0.5
            layer = MaxPool2D(pool, stride)
            infer = layer.forward(x, train=False)
            train = layer.forward(x, train=True)
            assert infer.shape == train.shape
            assert infer.tobytes() == train.tobytes()

    def test_backward_routes_to_argmax_and_conserves_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(1, 7, 7, 2))
            layer = MaxPool2D(3, 2)
            out = layer.forward(x, train=True)
            g = rng.normal(size=out.shape)
            dx = layer.backward(g)
            # non-overlapping contributions only land on window maxima
            npt.assert_allclose(dx.sum(), g.sum(), rtol=1e-12)
            assert np.count_nonzero(dx) <= out.size

    def test_window_holding_nan_routes_no_gradient(self):
        # its maximum is NaN, which equals no input value; a NaN input also
        # makes the training loss non-finite, which stops training before
        # any backward runs
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        x[0, 0, 0, 0] = np.nan
        layer = MaxPool2D(2, 2)
        out = layer.forward(x, train=True)
        dx = layer.backward(np.ones_like(out))
        assert np.isnan(out[0, 0, 0, 0])
        assert not dx[0, :2, :2].any()
        assert dx.sum() == 3.0


def tied_pool_inputs(rng, dtype):
    """Inputs whose windows tie: post-ReLU zeros, a constant block, and few
    distinct values."""
    relu = np.maximum(rng.normal(size=(3, 9, 11, 4)), 0.0)
    block = rng.normal(size=(2, 8, 8, 3))
    block[:, :5, :5, :] = 0.75
    few = rng.integers(-2, 3, size=(2, 7, 10, 2)).astype(float)
    return [a.astype(dtype) for a in (relu, block, few)]


DTYPES = [np.float32, np.float64]


def assert_epoch_matches_formula_layers(data_seed, model_seed, side, batch_size, dtype,
                                        tol=None):
    """One Agent-1 epoch on 24 seeded frames gives the same history and
    every state bit with the package layers and with oracles.py's; with
    ``tol``, a (loss, state) pair, the losses agree to that relative
    tolerance and every state value to that absolute one instead."""
    rng = np.random.default_rng(data_seed)
    frames = rng.random((24, side, side, 3))
    labels = np.array([0, 1] * 12)
    cfg = Agent1Config(epochs=1, batch_size=batch_size)
    models = [agents.build_agent1(model_seed, input_size=side, dtype=dtype)
              for _ in range(2)]
    with_formula_layers(models[1])
    histories = [agents.train_agent1(m, frames, labels, config=cfg) for m in models]
    if tol is None:
        assert histories[0] == histories[1]
    else:
        assert len(histories[0]) == len(histories[1])
        for got, want in zip(*histories):
            assert got.pop("train_loss") == pytest.approx(want.pop("train_loss"),
                                                          rel=tol[0])
            assert got == want
    for (_, a), (_, b) in zip(models[0].net.state(), models[1].net.state()):
        assert a.dtype == b.dtype == dtype
        if tol is None:
            assert a.tobytes() == b.tobytes()
        else:
            npt.assert_allclose(a, b, rtol=0, atol=tol[1])


def assert_close_to_max(got, want, rel):
    """Every value of ``got`` within ``rel`` times the largest magnitude in
    ``want`` of its counterpart there."""
    assert got.dtype == want.dtype
    gap = np.abs(got.astype(np.float64) - want).max()
    assert gap <= rel * np.abs(want).max(), (gap, np.abs(want).max())


# (batch, side, in channels, out channels, kernel, stride, padding) of a
# conv whose forward takes several im2col bands, and the samples or output
# rows of each band, per dtype
BANDED_CONVS = {
    "224x1-row-bands": ((1, 224, 3, 64, 11, 4, "valid"),
                        {np.float32: [11, 11, 11, 11, 10], np.float64: [6] * 9}),
    "64x16-sample-groups": ((16, 64, 3, 64, 11, 4, "valid"),
                            {np.float32: [3, 3, 2, 3, 3, 2], np.float64: [1] * 16}),
    "same-5x5-short-last-row-band": ((2, 26, 64, 128, 5, 1, "same"),
                                     {np.float32: [6, 5, 5, 5, 5] * 2,
                                      np.float64: ([3] * 8 + [2]) * 2}),
}

# (batch, side, in channels, out channels, kernel, stride, padding) of a
# conv whose forward and backward each take one band in either dtype
ONE_BAND_CONVS = {
    "32x2-valid": (2, 32, 3, 64, 11, 4, "valid"),
    "same-3x3": (4, 12, 16, 32, 3, 1, "same"),
}

# allowed gap, relative to the oracle's largest magnitude, of a banded
# backward's kernel and input gradients: each band adds its share of the
# kernel gradient's sum over output positions, so that sum rounds in
# another order, and a band's input gradient GEMM may round its rows
# differently from the whole product. On BANDED_CONVS, at one and at two
# OpenBLAS threads, the kernel gradient reads at most 5.3e-7 (float32) and
# 1.1e-15 (float64), and the input gradient 0 (float32) and 2.3e-16
# (float64); a fold in first-band-first order reads 2.6e-7 for the float32
# input gradient
BANDED_GRAD_REL = {np.float32: 2e-6, np.float64: 5e-15}

# allowed (relative train-loss, absolute state) gaps after one 64-px epoch
# whose convs take several bands: it reads at most 7.5e-7 and 2.8e-5 in
# float32, and 1.2e-16 and 9.8e-12 in float64, at one and at two OpenBLAS
# threads. Adam normalizes each gradient, so a conv bias whose gradient
# nearly cancels moves by a large share of its step (1e-4, the learning
# rate) on a last-bit change of that gradient: the float32 state gap is
# conv1's bias
BANDED_EPOCH_TOL = {np.float32: (5e-6, 1e-4), np.float64: (1e-14, 1e-10)}


class TestTrainPathsMatchFormulas:
    """The banded convolution, the train-mode max pool and batch norm give
    the same bits as the whole-matrix im2col convolution, the
    argmax/one-hot pool and the textbook batch-norm formulas in oracles.py;
    a backward over several bands gives the convolution's kernel and input
    gradients within ``BANDED_GRAD_REL``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", list(BANDED_CONVS))
    def test_banded_conv_matches_whole_matrix_im2col(self, case, dtype):
        (n, side, cin, cout, k, stride, padding), band_sizes = BANDED_CONVS[case]
        got, want = (cls(cin, cout, k, stride, padding, rng=np.random.default_rng(5),
                         dtype=dtype) for cls in (Conv2D, Im2colConv2D))
        rng = np.random.default_rng(47)
        bias = rng.normal(size=cout)
        for layer in (got, want):
            layer.bias.value[...] = bias
        x = rng.normal(size=(n, side, side, cin)).astype(dtype)
        oh = got.out_shape(x.shape[1:])[0]
        bands = layers._bands(n, oh, oh * k * k * cin, x.itemsize)
        assert [at[-1].stop - at[-1].start for at in bands] == band_sizes[dtype]
        out = got.forward(x, train=True)
        assert out.dtype == dtype
        assert out.tobytes() == want.forward(x, train=True).tobytes()
        assert got.forward(x).tobytes() == out.tobytes()
        g = rng.normal(size=out.shape).astype(dtype)
        assert_close_to_max(got.backward(g), want.backward(g), BANDED_GRAD_REL[dtype])
        assert_close_to_max(got.kernel.grad, want.kernel.grad, BANDED_GRAD_REL[dtype])
        assert got.bias.grad.tobytes() == want.bias.grad.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", list(ONE_BAND_CONVS))
    def test_one_band_conv_keeps_every_bit(self, case, dtype):
        n, side, cin, cout, k, stride, padding = ONE_BAND_CONVS[case]
        got, want = (cls(cin, cout, k, stride, padding, rng=np.random.default_rng(3),
                         dtype=dtype) for cls in (Conv2D, Im2colConv2D))
        rng = np.random.default_rng(59)
        x = rng.normal(size=(n, side, side, cin)).astype(dtype)
        oh = got.out_shape(x.shape[1:])[0]
        assert len(layers._bands(n, oh, oh * k * k * cin, x.itemsize)) == 1
        out = got.forward(x, train=True)
        assert out.tobytes() == want.forward(x, train=True).tobytes()
        g = rng.normal(size=out.shape).astype(dtype)
        assert got.backward(g).tobytes() == want.backward(g).tobytes()
        for a, b in zip(got.params(), want.params()):
            assert a.grad.tobytes() == b.grad.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pool, stride", [(3, 2), (2, 2), (3, 1)])
    def test_pool_matches_argmax_one_hot_on_ties(self, pool, stride, dtype):
        rng = np.random.default_rng(37)
        for x in tied_pool_inputs(rng, dtype):
            got, want = MaxPool2D(pool, stride), ArgmaxMaxPool2D(pool, stride)
            out = got.forward(x, train=True)
            assert out.tobytes() == want.forward(x, train=True).tobytes()
            g = rng.normal(size=out.shape).astype(dtype)
            dx, ref = got.backward(g), want.backward(g)
            assert dx.dtype == ref.dtype == dtype
            assert dx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(16, 5), (4, 6, 7, 3)])
    def test_batchnorm_matches_formulas(self, shape, dtype):
        rng = np.random.default_rng(41)
        got = BatchNorm(shape[-1], dtype=dtype)
        want = FormulaBatchNorm(shape[-1], dtype=dtype)
        gamma = rng.normal(size=shape[-1])
        for layer in (got, want):
            layer.gamma.value[...] = gamma
            layer.beta.value[...] = 0.5
        for _ in range(3):
            x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            outs = [layer.forward(x, train=True) for layer in (got, want)]
            dxs = [layer.backward(g) for layer in (got, want)]
            assert outs[0].dtype == dtype
            assert outs[0].tobytes() == outs[1].tobytes()
            assert dxs[0].tobytes() == dxs[1].tobytes()
            for attr in ("running_mean", "running_var"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
            for a, b in zip(got.params(), want.params()):
                assert a.grad.tobytes() == b.grad.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_training_epoch_keeps_every_weight_bit(self, dtype):
        # at 32 px and batch 8 every conv's forward and backward take one band
        assert_epoch_matches_formula_layers(43, 5, 32, 8, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_banded_training_epoch_matches_within_tolerance(self, dtype):
        # at 64 px conv1's forward takes six sample groups of the batch of 16
        # and three of the last batch of 8 in float32, one band per sample
        # in float64
        bands = layers._bands(16, 14, 14 * 11 * 11 * 3, np.dtype(dtype).itemsize)
        assert len(bands) == {np.float32: 6, np.float64: 16}[dtype]
        assert_epoch_matches_formula_layers(53, 7, 64, 16, dtype,
                                            tol=BANDED_EPOCH_TOL[dtype])


class TestBatchNorm:
    def test_constant_batch_outputs_beta(self):
        layer = BatchNorm(2)
        layer.beta.value[...] = 0.3
        out = layer.forward(np.full((4, 2), 5.0), train=True)
        npt.assert_allclose(out, 0.3)

    def test_standardized_batch_roughly_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = BatchNorm(3).forward(x, train=True)
        # only the epsilon in the denominator perturbs the values
        npt.assert_allclose(out, x, atol=2e-3)

    def test_momentum_update_from_zero_stats(self):
        # zero-started moving averages of the batch statistics, debiased by
        # 1 - m**t after step t; the initial 0 and 1 leave no trace
        rng = np.random.default_rng(5)
        layer = BatchNorm(2)
        m = BatchNorm.MOMENTUM
        ema_mean = ema_var = np.zeros(2)
        for t in (1, 2, 3):
            x = rng.normal(size=(8, 2)) + 3.0 * t
            layer.forward(x, train=True)
            ema_mean = m * ema_mean + (1 - m) * x.mean(axis=0)
            ema_var = m * ema_var + (1 - m) * x.var(axis=0)
            npt.assert_allclose(layer.running_mean, ema_mean / (1 - m ** t), rtol=1e-12)
            npt.assert_allclose(layer.running_var, ema_var / (1 - m ** t), rtol=1e-12)
            if t == 1:  # one step gives the batch statistics themselves
                npt.assert_allclose(layer.running_mean, x.mean(axis=0), rtol=1e-12)
                npt.assert_allclose(layer.running_var, x.var(axis=0), rtol=1e-12)

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(UsageError):
            BatchNorm(2).forward(np.zeros((1, 2)), train=True)

    def test_infer_uses_running_stats(self):
        layer = BatchNorm(1)
        layer.running_mean[...] = 2.0
        layer.running_var[...] = 4.0
        out = layer.forward(np.array([[4.0]]), train=False)
        npt.assert_allclose(out, [[2.0 / np.sqrt(4.0 + BatchNorm.EPSILON)]])

    def test_spatial_reduction_axes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5, 5, 3)) * 2 + 1
        out = BatchNorm(3).forward(x, train=True)
        for c in range(3):
            assert abs(out[..., c].mean()) < 1e-10
            assert abs(out[..., c].var() - 1.0) < 5e-3


def gap(x):
    return GlobalAvgPool().forward(x[None])[0]


class TestGap:
    def test_channel_mean(self):
        npt.assert_allclose(gap(np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]), [2.5])

    def test_agent1_gap_width(self):
        assert gap(np.zeros((5, 5, 128))).shape == (128,)

    def test_constant_channel(self):
        npt.assert_allclose(gap(np.full((3, 4, 2), 7.5)), [7.5, 7.5])


class TestDenseAndActivations:
    def test_identity_weights(self):
        layer = Dense(3, 3, rng=np.random.default_rng(0))
        layer.weights.value[...] = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5]])
        npt.assert_allclose(layer.forward(x), x)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dense(3, 2, rng=np.random.default_rng(0)).forward(np.zeros((1, 4)))

    def test_relu_clamps_negatives(self):
        npt.assert_allclose(ReLU().forward(np.array([[-1.0, 0.0, 2.0]])),
                            [[0.0, 0.0, 2.0]])

    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_worked_pair(self):
        npt.assert_allclose(softmax(np.array([1.0, 2.0])),
                            [0.26894, 0.73106], atol=1e-5)

    def test_shift_invariance(self):
        # equal up to the last-ulp wobble of (z + c) - (max + c)
        z = np.array([0.3, -1.2, 4.0])
        npt.assert_allclose(softmax(z), softmax(z + 10.0), rtol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(scale=50, size=rng.integers(2, 8))
            out = softmax(z)
            assert abs(out.sum() - 1.0) < 1e-9
            assert (out > 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            softmax(np.array([1.0]))


class TestDropout:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=10)
        layer = Dropout(0.0, rng=rng)
        npt.assert_array_equal(layer.forward(x, train=True), x)
        npt.assert_array_equal(layer.forward(x, train=False), x)

    def test_infer_is_identity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=10)
        npt.assert_array_equal(Dropout(0.7, rng=rng).forward(x, train=False), x)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(10)
        out = Dropout(0.5, rng=rng).forward(np.ones(100_000), train=True)
        assert abs(out.mean() - 1.0) < 0.01

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0, rng=np.random.default_rng(0))

    def test_layer_matches_functional_semantics(self):
        layer = Dropout(0.3, rng=np.random.default_rng(11))
        x = np.ones(1000)
        out = layer.forward(x, train=True)
        survivors = out[out != 0]
        npt.assert_allclose(survivors, 1.0 / 0.7)


class TestStandardizer:
    def test_simple_column(self):
        std = Standardize(1).fit(np.array([[1.0], [2.0], [3.0]]))
        out = std.forward(np.array([[1.0], [2.0], [3.0]]))
        npt.assert_allclose(out[:, 0], [-1.22474, 0.0, 1.22474], atol=1e-5)

    def test_constant_column_guard(self):
        std = Standardize(2).fit(np.array([[5.0, 1.0], [5.0, 2.0]]))
        out = std.forward(np.array([[5.0, 1.5]]))
        assert out[0, 0] == 0.0

    def test_train_columns_centered(self):
        rng = np.random.default_rng(50)
        Z = rng.normal(loc=3.0, scale=2.0, size=(40, 2))
        std = Standardize(Z.shape[1]).fit(Z)
        out = std.forward(Z)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        npt.assert_allclose(out.std(axis=0), 1.0, rtol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            Standardize(2).fit(np.zeros((0, 2)))


class TestLosses:
    def test_cce_exact_hit(self):
        assert cce_loss([1.0, 0.0], [1.0, 0.0]) <= 1e-11

    def test_cce_half_half(self):
        npt.assert_allclose(cce_loss([1.0, 0.0], [0.5, 0.5]), np.log(2.0), rtol=1e-12)

    def test_cce_nonnegative_on_simplex(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(3))
            y = np.zeros(3)
            y[rng.integers(3)] = 1.0
            assert cce_loss(y, p) >= 0.0

    def test_bce_near_zero(self):
        assert bce_loss(1, 1.0 - 1e-12) < 1e-10

    def test_bce_half(self):
        npt.assert_allclose(bce_loss(1, 0.5), np.log(2.0), rtol=1e-12)

    def test_bce_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = rng.uniform(1e-6, 1 - 1e-6)
            npt.assert_allclose(bce_loss(0, p), bce_loss(1, 1.0 - p), rtol=1e-12)


class TestFloat32StaysFloat32:
    """A float32 net trains in float32: the heads keep the logits' dtype
    and no layer upcasts, while float64 keeps its bytes."""

    def test_heads_keep_float32_logits(self):
        z = np.random.default_rng(32).normal(size=(5, 2)).astype(np.float32)
        labels = [0, 1, 1, 0, 1]
        onehot = np.eye(2, dtype=np.float32)[labels]
        for head, logits, targets in ((softmax_cce, z, onehot),
                                      (sigmoid_bce, z[:, :1], onehot[:, 1:])):
            loss, probs, grad = head(logits, targets)
            assert probs.dtype == grad.dtype == np.float32
            assert np.isfinite(loss)
        # non-float logits are still read as float64
        assert softmax(np.array([[1, 2]])).dtype == np.float64
        assert sigmoid(np.array([1])).dtype == np.float64

    def test_saturated_float32_sigmoid_loss_stays_finite(self):
        # float32 rounds sigmoid(40) to 1; the loss is clamped in float64
        loss, _, _ = sigmoid_bce(np.array([[40.0]], dtype=np.float32), np.array([[0.0]]))
        assert loss == pytest.approx(-np.log(LOG_FLOOR))

    def test_float64_heads_keep_their_bytes(self):
        rng = np.random.default_rng(31)
        z = rng.normal(scale=4.0, size=(6, 3))
        z[0] = [40.0, -40.0, 0.0]  # a saturated row exercises the log clamp
        onehot = np.eye(3)[[0, 1, 2, 1, 0, 2]]
        x = rng.normal(scale=4.0, size=(6, 1))
        x[0, 0], x[1, 0] = 40.0, -40.0
        y = np.array([[0.0], [1.0], [1.0], [0.0], [1.0], [0.0]])
        h = hashlib.sha256()
        for loss, probs, grad in (softmax_cce(z, onehot), sigmoid_bce(x, y)):
            h.update(np.float64(loss).tobytes() + probs.tobytes() + grad.tobytes())
        assert h.hexdigest() == (
            "4bfb7b62cef1819270c3e87176cb4f78fcdea2daf43acdbb6e0dc9c196389c46")

    def test_agent1_train_step_is_float32_at_every_layer(self):
        net = agents.build_agent1(seed=3, input_size=32, dtype=np.float32).net
        h = np.random.default_rng(33).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        for layer in net.layers:
            h = layer.forward(h, train=True)
            assert h.dtype == np.float32, type(layer).__name__
        _, _, grad = softmax_cce(h, np.eye(2, dtype=np.float32)[[0, 1, 1, 0]])
        for layer in reversed(net.layers):
            grad = layer.backward(grad)
            assert grad.dtype == np.float32, type(layer).__name__
        assert all(p.grad.dtype == np.float32 for p in net.params())


class TestAdam:
    def test_zero_gradients_are_a_noop(self):
        p = Param("w", np.array([1.0, -2.0]))
        opt = Adam([p], eta=0.01)
        for _ in range(25):
            p.grad = np.zeros(2)
            opt.step()
        npt.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # bias correction makes m_hat = v_hat = 1 on step one
        p = Param("w", np.zeros(4))
        p.grad = np.ones(4)
        eta = 0.0001
        opt = Adam([p], eta=eta)
        opt.step()
        npt.assert_allclose(p.value, -eta / (1.0 + Adam.EPSILON), rtol=1e-12)

    def test_constant_gradient_step_approaches_eta(self):
        p = Param("w", np.zeros(1))
        opt = Adam([p], eta=0.001)
        prev = p.value.copy()
        for _ in range(3000):
            prev = p.value.copy()
            p.grad = np.full(1, 3.0)
            opt.step()
        step = abs((p.value - prev)[0])
        npt.assert_allclose(step, opt.eta, rtol=1e-3)

    def test_step_counter_increments_by_one(self):
        p = Param("w", np.zeros(2))
        opt = Adam([p])
        for expect in (1, 2, 3):
            p.grad = np.ones(2)
            opt.step()
            assert opt.t == expect
            assert p.grad is None  # each step consumes its gradient

    def test_step_without_gradient_names_parameter(self):
        p = Param("fc1.weights", np.zeros(2))
        opt = Adam([p])
        with pytest.raises(UsageError, match="no gradient for fc1.weights"):
            opt.step()
        assert opt.t == 0

    def test_non_finite_gradient_names_parameter(self):
        p = Param("conv1.kernel", np.zeros(2))
        p.grad = np.full(2, np.nan)
        opt = Adam([p])
        with pytest.raises(TrainingError, match="conv1.kernel"):
            opt.step()


class TestAdamOracle:
    """Chunked Adam against the whole-array formula, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_five_steps_match_whole_array_formula(self, dtype):
        rng = np.random.default_rng(40)
        # one parameter inside a single chunk, one spanning several with a
        # partial last chunk
        shapes = [(7, 5), (3, CHUNK // 2 + 11)]
        params = [Param(f"p{i}", rng.normal(size=s).astype(dtype))
                  for i, s in enumerate(shapes)]
        ref_values = [p.value.copy() for p in params]
        ref_m = [np.zeros_like(p.value) for p in params]
        ref_v = [np.zeros_like(p.value) for p in params]
        eta, b1, b2, eps = 0.001, Adam.BETA1, Adam.BETA2, Adam.EPSILON
        opt = Adam(params, eta=eta)
        for t in range(1, 6):
            for i, p in enumerate(params):
                p.grad = rng.normal(size=p.value.shape).astype(dtype)
                reference_adam_step(ref_values[i], p.grad, ref_m[i], ref_v[i], t,
                                    eta, b1, b2, eps)
            opt.step()
            for i, p in enumerate(params):
                assert p.value.dtype == dtype
                assert p.value.tobytes() == ref_values[i].tobytes()
                assert opt.m[i].tobytes() == ref_m[i].tobytes()
                assert opt.v[i].tobytes() == ref_v[i].tobytes()

    def test_non_finite_gradient_leaves_every_value_untouched(self):
        rng = np.random.default_rng(41)
        params = [Param("dense.weights", rng.normal(size=(4, 3))),
                  Param("conv5.kernel", rng.normal(size=CHUNK + 5))]
        opt = Adam(params, eta=0.01)
        for p in params:
            p.grad = rng.normal(size=p.value.shape)
        opt.step()
        before = [(p.value.copy(), m.copy(), v.copy())
                  for p, m, v in zip(params, opt.m, opt.v)]
        for p in params:
            p.grad = np.ones(p.value.shape)
        params[1].grad[CHUNK + 2] = np.inf
        with pytest.raises(TrainingError, match="non-finite gradient for conv5.kernel"):
            opt.step()
        assert opt.t == 1
        for (value, m, v), p, m_now, v_now in zip(before, params, opt.m, opt.v):
            assert p.value.tobytes() == value.tobytes()
            assert m_now.tobytes() == m.tobytes()
            assert v_now.tobytes() == v.tobytes()


# one layer of each kind with a backward, and an input it accepts
CACHING_LAYERS = {
    "Conv2D": (lambda: Conv2D(2, 3, 3, padding="same", rng=np.random.default_rng(0)),
               (2, 5, 5, 2)),
    "MaxPool2D": (lambda: MaxPool2D(2, 2), (2, 4, 4, 2)),
    "BatchNorm": (lambda: BatchNorm(2), (4, 2)),
    "GlobalAvgPool": (lambda: GlobalAvgPool(), (2, 3, 3, 2)),
    "Dense": (lambda: Dense(2, 3, rng=np.random.default_rng(0)), (2, 2)),
    "ReLU": (lambda: ReLU(), (2, 2)),
    "Dropout": (lambda: Dropout(0.5, rng=np.random.default_rng(0)), (2, 2)),
}


class TestCacheHandOff:
    def test_every_layer_with_a_backward_is_listed(self):
        with_backward = {cls.__name__ for cls in vars(layers).values()
                         if isinstance(cls, type) and issubclass(cls, layers.Layer)
                         and cls not in (layers.Layer, layers.Sequential)
                         and "backward" in vars(cls)}
        assert set(CACHING_LAYERS) == with_backward
        for name, (make, _) in CACHING_LAYERS.items():
            assert type(make()).__name__ == name

    @pytest.mark.parametrize("name", list(CACHING_LAYERS))
    def test_backward_takes_the_train_forward_cache_once(self, name):
        make, shape = CACHING_LAYERS[name]
        layer = make()
        x = np.random.default_rng(1).normal(size=shape)
        grad = np.ones_like(layer.forward(x, train=False))
        with pytest.raises(UsageError, match="backward called without a cached"):
            layer.backward(grad)  # an inference forward leaves no cache
        layer.forward(x, train=True)
        layer.backward(grad)
        with pytest.raises(UsageError, match="backward called without a cached"):
            layer.backward(grad)
