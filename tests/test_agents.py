"""Agent construction, training behavior, prediction, and checkpoints."""

import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import agents
from deepagent.config import Agent1Config, Agent2Config
from deepagent.errors import ConfigurationError, IngestionError, UsageError
from deepagent.nn import checkpoint as ckpt
from deepagent.nn.layers import BatchNorm
from deepagent.nn.losses import sigmoid, sigmoid_bce, softmax, softmax_cce
from deepagent.nn.optim import Adam

from oracles import (agent1_shape_chain, reference_adam_step, reference_agent1_probs,
                     replay_schedule)


def relu(x):
    return np.maximum(x, 0.0)


def separable_frames(rng, n_per_class, size=32):
    """Class 1 frames carry hard-edged blocks; class 0 stays smooth."""
    frames = np.empty((2 * n_per_class, size, size, 3))
    for i in range(2 * n_per_class):
        base = rng.uniform(0.3, 0.7)
        frames[i] = base + rng.uniform(-0.05, 0.05, size=(size, size, 3))
        if i >= n_per_class:
            for _ in range(3):
                y, x = rng.integers(0, size - 8, size=2)
                frames[i, y:y + 8, x:x + 8, :] = rng.choice([0.0, 1.0])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return np.clip(frames, 0, 1), labels


def predict_frame(model, frame):
    return float(agents.predict_frames(model, frame[None])[0])


def predict_row(model, x):
    return float(agents.predict_agent2(model, x[None])[0])


def separable_features(rng, n):
    """Noise in the audio dims, the similarity coordinate separates."""
    labels = np.array([0, 1] * (n // 2))
    X = rng.normal(size=(n, 14))
    X[:, 13] = np.where(labels == 0, 0.9, 0.1) + rng.uniform(-0.05, 0.05, n)
    return X, labels


class TestBuildAgent1:
    def test_zeros_input_softmax_sums_to_one(self):
        model = agents.build_agent1(seed=1, input_size=64)
        out = softmax(model.net.forward(np.zeros((1, 64, 64, 3)), train=False))
        npt.assert_allclose(out.sum(), 1.0, atol=1e-9)

    def test_shape_chain_at_reference_geometry(self):
        model = agents.build_agent1(seed=1, input_size=224)
        chain = agent1_shape_chain(model)
        assert chain == [
            (224, 224, 3), (54, 54, 64), (26, 26, 64), (26, 26, 128),
            (12, 12, 128), (12, 12, 256), (12, 12, 256), (12, 12, 128),
            (5, 5, 128), (128,), (1024,), (512,), (2,),
        ]

    def test_same_seed_identical_init(self):
        a = agents.build_agent1(seed=5, input_size=64)
        b = agents.build_agent1(seed=5, input_size=64)
        for pa, pb in zip(a.net.params(), b.net.params()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_full_scale_forward_backward_smoke(self):
        model = agents.build_agent1(seed=0, input_size=224)
        x = np.random.default_rng(0).uniform(size=(2, 224, 224, 3))
        logits = model.net.forward(x, train=True)
        loss, _, dlogits = softmax_cce(logits, np.eye(2)[[0, 1]])
        model.net.backward(dlogits)
        assert np.isfinite(loss)
        assert all(np.isfinite(p.grad).all() for p in model.net.params())


class TestBuildAgent2:
    def test_forward_in_unit_interval(self):
        model = agents.build_agent2(seed=2)
        out = predict_row(model, np.zeros(14))
        assert 0.0 < out < 1.0

    def test_parameter_count_from_layer_widths(self):
        # 14*128+128 + 128*64+64 + 64*32+32 + 32*1+1
        model = agents.build_agent2(seed=3)
        assert sum(p.value.size for p in model.net.params()) == 12289

    def test_same_seed_identical_init(self):
        a = agents.build_agent2(seed=4)
        b = agents.build_agent2(seed=4)
        for pa, pb in zip(a.net.params(), b.net.params()):
            npt.assert_array_equal(pa.value, pb.value)


class TestSequentialBackward:
    """Skipping the network-input gradient leaves every parameter gradient
    byte-equal to a full layer-by-layer backward."""

    @staticmethod
    def assert_same_param_grads(build, x):
        # two same-seed models draw the same weights and dropout masks
        manual, net = build().net, build().net
        grad = np.random.default_rng(50).normal(size=manual.forward(x, train=True).shape)
        net.forward(x, train=True)
        g = grad
        # layers before the first one with parameters need no gradient
        first = next(i for i, layer in enumerate(manual.layers) if layer.params())
        for layer in reversed(manual.layers[first:]):
            g = layer.backward(g)
        assert g.shape == x.shape
        assert net.backward(grad) is None
        for p, expected in zip(net.params(), manual.params()):
            assert p.grad.tobytes() == expected.grad.tobytes(), p.name

    def test_agent1_at_64(self):
        x = np.random.default_rng(51).uniform(size=(4, 64, 64, 3))
        self.assert_same_param_grads(lambda: agents.build_agent1(seed=3, input_size=64), x)

    def test_agent2(self):
        x = np.random.default_rng(52).normal(size=(16, 14))
        self.assert_same_param_grads(lambda: agents.build_agent2(seed=3), x)


class TestTrainAgent1:
    def test_separable_frames_fit(self):
        rng = np.random.default_rng(77)
        frames, labels = separable_frames(rng, 30)
        model = agents.build_agent1(seed=42, input_size=32)
        cfg = Agent1Config(epochs=25, augment=False)
        history = agents.train_agent1(model, frames, labels, config=cfg)
        assert max(h["train_acc"] for h in history) >= 0.95

    def test_zero_learning_rate_is_a_noop_on_weights(self):
        rng = np.random.default_rng(78)
        frames, labels = separable_frames(rng, 8)
        model = agents.build_agent1(seed=1, input_size=32)
        before = [p.value.copy() for p in model.net.params()]
        cfg = Agent1Config(learning_rate=0.0, epochs=1, augment=False)
        agents.train_agent1(model, frames, labels, config=cfg)
        for p, orig in zip(model.net.params(), before):
            npt.assert_array_equal(p.value, orig)

    def test_same_seed_same_final_weights(self):
        rng = np.random.default_rng(79)
        frames, labels = separable_frames(rng, 8)
        cfg = Agent1Config(epochs=2, augment=False)
        va, vb = [], []
        for out in (va, vb):
            model = agents.build_agent1(seed=9, input_size=32)
            agents.train_agent1(model, frames.copy(), labels.copy(), config=cfg)
            out.extend(p.value.copy() for p in model.net.params())
        for a, b in zip(va, vb):
            npt.assert_array_equal(a, b)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(80)
        frames, _ = separable_frames(rng, 4)
        model = agents.build_agent1(seed=1, input_size=32)
        with pytest.raises(UsageError):
            agents.train_agent1(model, frames, np.ones(len(frames), dtype=int),
                                config=Agent1Config(epochs=1))

    def test_history_row_schema(self):
        rng = np.random.default_rng(81)
        frames, labels = separable_frames(rng, 8)
        model = agents.build_agent1(seed=1, input_size=32)
        history = agents.train_agent1(model, frames, labels, frames[:4], labels[:4],
                                      config=Agent1Config(epochs=1, augment=False))
        row = history[0]
        assert set(row) == {"epoch", "train_loss", "train_acc", "val_loss",
                            "val_acc", "lr"}
        assert row["val_acc"] is not None

    def test_chunked_validation_matches_single_forward(self):
        # 10 validation frames in slices of 4, 4 and 2: forward_rows at 128 px
        rng = np.random.default_rng(97)
        frames, labels = separable_frames(rng, 8, size=128)
        val_frames, val_labels = separable_frames(rng, 5, size=128)
        model = agents.build_agent1(seed=3, input_size=128)
        forward, sizes = model.net.forward, []

        def recording_forward(x, train=False):
            if not train:  # training batches go through the same forward
                sizes.append(len(x))
            return forward(x, train=train)

        model.net.forward = recording_forward
        history = agents.train_agent1(
            model, frames, labels, val_frames, val_labels,
            config=Agent1Config(epochs=1, augment=False))
        assert sizes == [4, 4, 2]
        loss, probs, _ = softmax_cce(forward(val_frames, train=False),
                                     np.eye(2)[val_labels])
        assert history[0]["val_loss"] == loss
        accuracy = float(((probs[:, 1] >= 0.5) == val_labels).mean())
        assert history[0]["val_acc"] == accuracy

    def test_equal_logits_count_as_fake(self):
        # a zeroed output layer gives both classes 0.5 on every frame; as in
        # evaluate and the forest, a probability of exactly 0.5 is fake
        rng = np.random.default_rng(99)
        frames, labels = separable_frames(rng, 4)
        model = agents.build_agent1(seed=1, input_size=32)
        out = model.net.layers[-1]
        out.weights.value[...] = 0.0
        out.bias.value[...] = 0.0
        fake = labels == 1
        history = agents.train_agent1(
            model, frames, labels, frames[fake], labels[fake],
            config=Agent1Config(learning_rate=0.0, epochs=1, augment=False))
        assert history[0]["val_loss"] == pytest.approx(np.log(2.0))
        assert history[0]["val_acc"] == 1.0

    def test_restores_best_validation_weights(self):
        # validation accuracy peaks at epoch 4 of 6, so the last weights
        # are not the best ones
        rng = np.random.default_rng(90)
        frames, labels = separable_frames(rng, 10)
        val_frames, val_labels = separable_frames(rng, 6)
        model = agents.build_agent1(seed=2, input_size=32)
        history = agents.train_agent1(model, frames, labels, val_frames, val_labels,
                                      config=Agent1Config(epochs=6, augment=False))
        best = max(h["val_acc"] for h in history)
        assert history[-1]["val_acc"] < best
        preds = agents.predict_frames(model, val_frames)
        acc = (((preds >= 0.5).astype(int)) == val_labels).mean()
        npt.assert_allclose(acc, best, atol=1e-12)
        # Adam drops each gradient once applied, so none outlives training
        assert all(p.grad is None for p in model.net.params())

    def test_training_loss_non_increasing_on_separable_fixture(self):
        # end-of-epoch loss on the training set (inference mode), allowing
        # single-epoch noise of 5 percent
        rng = np.random.default_rng(95)
        frames, labels = separable_frames(rng, 20)
        model = agents.build_agent1(seed=42, input_size=32)
        history = agents.train_agent1(model, frames, labels, frames, labels,
                                      config=Agent1Config(epochs=10, augment=False))
        losses = [h["val_loss"] for h in history]
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.05


class TestPredictAgent1:
    def test_probability_range_and_determinism(self):
        rng = np.random.default_rng(82)
        model = agents.build_agent1(seed=6, input_size=32)
        frame = rng.uniform(0, 1, size=(32, 32, 3))
        p1 = predict_frame(model, frame)
        p2 = predict_frame(model, frame)
        assert 0.0 <= p1 <= 1.0
        assert p1 == p2

    def test_class_probabilities_sum_to_one(self):
        rng = np.random.default_rng(83)
        model = agents.build_agent1(seed=7, input_size=32)
        probs = softmax(model.net.forward(rng.uniform(size=(3, 32, 32, 3)), train=False))
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_wrong_shape_rejected(self):
        model = agents.build_agent1(seed=8, input_size=32)
        with pytest.raises(UsageError):
            agents.predict_frames(model, np.zeros((1, 16, 16, 3)))

    def test_inference_ignores_dropout_seed(self):
        rng = np.random.default_rng(97)
        model = agents.build_agent1(seed=3, input_size=32)
        frame = rng.uniform(size=(32, 32, 3))
        before = predict_frame(model, frame)
        from deepagent.nn.layers import Dropout
        for layer in model.net.layers:
            if isinstance(layer, Dropout):
                layer.rng = np.random.default_rng(999)
        assert predict_frame(model, frame) == before

    @pytest.mark.parametrize("size, n_frames, rows", [(64, 20, 16), (224, 2, 1)])
    def test_matches_reference_forward(self, size, n_frames, rows):
        # an untrained BatchNorm holds gamma 1, beta 0, mean 0 and variance 1,
        # where folding it into a scale and shift is exact; seeded statistics
        # make the fold a real computation
        rng = np.random.default_rng(size)
        model = agents.build_agent1(seed=5, input_size=size)
        for layer in model.net.layers:
            if isinstance(layer, BatchNorm):
                c = layer.channels
                layer.gamma.value[:] = rng.uniform(0.5, 2.0, c)
                layer.beta.value[:] = rng.uniform(-0.5, 0.5, c)
                layer.running_mean[:] = rng.uniform(-0.5, 0.5, c)
                layer.running_var[:] = rng.uniform(0.1, 2.0, c)
        # a smaller output layer keeps the probabilities off 0 and 1, where
        # the softmax would hide a difference in the logits
        model.net.layers[-1].weights.value *= 0.05
        frames = rng.uniform(size=(n_frames, size, size, 3))
        assert agents.forward_rows(model) == rows
        probs = agents.predict_frames(model, frames)
        assert ((probs > 0.1) & (probs < 0.9)).all()
        npt.assert_allclose(probs, reference_agent1_probs(model, frames),
                            rtol=0, atol=1e-9)

    def test_inference_leaves_no_layer_state(self):
        # frozen-weight prediction must not mutate layers, so concurrent
        # per-frame inference is safe
        rng = np.random.default_rng(98)
        model = agents.build_agent1(seed=4, input_size=32)
        predict_frame(model, rng.uniform(size=(32, 32, 3)))
        for layer in model.net.layers:
            assert getattr(layer, "_cache", None) is None


class TestTrainAgent2:
    def test_separable_features_reach_validation_bar(self):
        rng = np.random.default_rng(85)
        X, y = separable_features(rng, 80)
        vX, vy = separable_features(rng, 40)
        model = agents.build_agent2(seed=42)
        history = agents.train_agent2(model, X, y, vX, vy, config=Agent2Config())
        assert max(h["val_acc"] for h in history) >= 0.95

    def test_single_class_rejected(self):
        model = agents.build_agent2(seed=1)
        with pytest.raises(UsageError):
            agents.train_agent2(model, np.zeros((6, 14)), np.zeros(6, dtype=int),
                                config=Agent2Config())

    def test_restores_best_validation_weights(self):
        rng = np.random.default_rng(86)
        X, y = separable_features(rng, 40)
        vX, vy = separable_features(rng, 20)
        model = agents.build_agent2(seed=2)
        history = agents.train_agent2(model, X, y, vX, vy,
                                      config=Agent2Config(epochs=30))
        best = max(h["val_acc"] for h in history)
        preds = agents.predict_agent2(model, vX)
        acc = (((preds >= 0.5).astype(int)) == vy).mean()
        npt.assert_allclose(acc, best, atol=1e-12)
        assert all(p.grad is None for p in model.net.params())

    def test_training_loss_non_increasing_on_separable_fixture(self, monkeypatch):
        # a patience past the budget, so all 40 epochs are checked: the
        # default of 10 stops this run at epoch 19
        monkeypatch.setattr(agents, "STOP_PATIENCE", 100)
        rng = np.random.default_rng(96)
        X, y = separable_features(rng, 60)
        model = agents.build_agent2(seed=42)
        history = agents.train_agent2(model, X, y, X, y,
                                      config=Agent2Config(epochs=40))
        assert len(history) == 40
        losses = [h["val_loss"] for h in history]
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.05


class TestValidationSchedule:
    """``_fit``'s early stopping and rate reduction, run through Agent-2."""

    @staticmethod
    def history(seed, **config):
        rng = np.random.default_rng(seed)
        X, y = separable_features(rng, 40)
        vX, vy = separable_features(rng, 20)
        model = agents.build_agent2(seed=seed)
        return agents.train_agent2(model, X, y, vX, vy, config=Agent2Config(**config))

    def test_schedule_is_the_keras_one(self):
        assert (agents.STOP_PATIENCE, agents.LR_PATIENCE,
                agents.LR_FACTOR) == (10, 5, 0.5)

    def test_stops_after_patience_stagnant_epochs(self):
        # a rate of 1e-30 leaves the weights, so validation accuracy, fixed:
        # epoch 1 is the best and the next 10 are stagnant
        history = self.history(87, learning_rate=1e-30)
        assert len({h["val_acc"] for h in history}) == 1
        assert len(history) == 1 + agents.STOP_PATIENCE
        assert [h["lr"] for h in history] == [1e-30] * 6 + [5e-31] * 5
        assert replay_schedule([h["val_acc"] for h in history], 1e-30) == (
            [h["lr"] for h in history], len(history))

    def test_two_reductions_quarter_the_rate(self, monkeypatch):
        monkeypatch.setattr(agents, "STOP_PATIENCE", 100)
        history = self.history(87, learning_rate=1e-30, epochs=12)
        assert len(history) == 12
        assert history[-1]["lr"] == 2.5e-31

    def test_improvement_resets_both_counts(self):
        # this run improves after stagnant streaks of 5, 6 and 3 epochs,
        # reduces the rate three times and stops early
        history = self.history(94, learning_rate=1e-4, epochs=60)
        accs, lrs = [h["val_acc"] for h in history], [h["lr"] for h in history]
        best, stale, streaks = -1.0, 0, []
        for acc in accs:
            if acc > best:
                streaks += [stale] if stale else []
                best, stale = acc, 0
            else:
                stale += 1
        assert streaks == [5, 6, 3]
        assert min(lrs) == 1e-4 / 8 and len(history) < 60
        assert replay_schedule(accs, 1e-4) == (lrs, len(history))


class TestOneEpochReplay:
    """One epoch of either agent equals a hand replay of the loop: the
    agent's shuffle stream, the head's logit gradient per batch and the
    whole-array Adam formula. With ``n % batch_size == 1`` the last batch
    holds one row; Agent-1 (batch norm) skips it, Agent-2 trains on it."""

    @staticmethod
    def replay(model, X, targets, cfg, head, stream, min_batch):
        """Replay one epoch on ``model`` in place; returns the Adam steps taken."""
        params = model.net.params()
        m = [np.zeros_like(p.value) for p in params]
        v = [np.zeros_like(p.value) for p in params]
        seeds = np.random.SeedSequence([model.seed, stream])
        perm = np.random.default_rng(seeds).permutation(len(X))
        t = 0
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if len(idx) < min_batch:
                continue
            _, _, grad = head(model.net.forward(X[idx], train=True), targets[idx])
            model.net.backward(grad)
            t += 1
            for p, p_m, p_v in zip(params, m, v):
                reference_adam_step(p.value, p.grad, p_m, p_v, t, cfg.learning_rate,
                                    Adam.BETA1, Adam.BETA2, Adam.EPSILON)
        return t

    @staticmethod
    def assert_same_state(trained, replayed):
        for (_, a), (_, b) in zip(trained.net.state(), replayed.net.state()):
            assert np.array_equal(a, b)

    def test_agent1_skips_the_one_row_batch(self):
        frames, labels = separable_frames(np.random.default_rng(61), 3, size=11)
        frames, labels = frames[:5], labels[:5]
        cfg = Agent1Config(epochs=1, batch_size=2, augment=False)
        trained = agents.build_agent1(seed=8, input_size=11)
        agents.train_agent1(trained, frames, labels, config=cfg)
        replayed = agents.build_agent1(seed=8, input_size=11)
        steps = self.replay(replayed, frames, np.eye(2)[labels], cfg, softmax_cce,
                            stream=5, min_batch=2)
        assert steps == 2
        self.assert_same_state(trained, replayed)

    def test_agent2_trains_on_the_one_row_batch(self):
        X, y = separable_features(np.random.default_rng(62), 10)
        X, y = X[:9], y[:9]
        cfg = Agent2Config(epochs=1, batch_size=4)
        trained = agents.build_agent2(seed=8)
        agents.train_agent2(trained, X, y, config=cfg)
        replayed = agents.build_agent2(seed=8)
        standardize = replayed.net.layers[0]
        standardize.mean, standardize.sigma = X.mean(axis=0), X.std(axis=0)
        steps = self.replay(replayed, X, y[:, None].astype(float), cfg,
                            sigmoid_bce, stream=7, min_batch=1)
        assert steps == 3
        self.assert_same_state(trained, replayed)


class TestGradientLifetime:
    """Training steps each layer as soon as its backward returns, so no
    more than one layer's parameter gradients are set at any moment."""

    @staticmethod
    def most_layers_holding_gradients(model, train):
        """Runs ``train()`` and returns the largest number of layers whose
        ``Param.grad`` was set when any layer's backward returned."""
        trained = [layer for layer in model.net.layers if layer.params()]
        most = 0

        def watch(layer):
            backward = layer.backward

            def watched(grad, input_grad=True):
                nonlocal most
                out = backward(grad, input_grad)
                held = sum(any(p.grad is not None for p in t.params()) for t in trained)
                most = max(most, held)
                return out

            layer.backward = watched

        for layer in model.net.layers:
            watch(layer)
        train()
        assert all(p.grad is None for p in model.net.params())
        return most

    def test_agent1(self):
        frames, labels = separable_frames(np.random.default_rng(63), 4, size=32)
        model = agents.build_agent1(seed=4, input_size=32)
        most = self.most_layers_holding_gradients(model, lambda: agents.train_agent1(
            model, frames, labels, config=Agent1Config(epochs=1, augment=False)))
        assert most == 1

    def test_agent2(self):
        X, y = separable_features(np.random.default_rng(64), 16)
        model = agents.build_agent2(seed=4)
        most = self.most_layers_holding_gradients(model, lambda: agents.train_agent2(
            model, X, y, config=Agent2Config(epochs=1)))
        assert most == 1


class TestPredictAgent2:
    def test_range_and_determinism(self):
        rng = np.random.default_rng(87)
        model = agents.build_agent2(seed=5)
        x = rng.normal(size=14)
        a = predict_row(model, x)
        b = predict_row(model, x)
        assert 0.0 < a < 1.0 and a == b

    def test_wrong_width_rejected(self):
        model = agents.build_agent2(seed=5)
        with pytest.raises(UsageError):
            agents.predict_agent2(model, np.zeros((1, 13)))

    def test_hand_set_weights_match_manual_forward(self):
        # the 14-128-64-32-1 head with explicit weights, replayed by hand; a
        # freshly built input standardization is the identity
        model = agents.build_agent2(seed=0)
        rng = np.random.default_rng(88)
        mats = [rng.uniform(-0.5, 0.5, size=s)
                for s in ((14, 128), (128,), (128, 64), (64,), (64, 32), (32,),
                          (32, 1), (1,))]
        for p, m in zip(model.net.params(), mats):
            p.value[...] = m
        x = rng.uniform(-1, 1, size=14)
        got = predict_row(model, x)

        w1, b1, w2, b2, w3, b3, w4, b4 = mats
        h1 = relu(x @ w1 + b1)
        h2 = relu(h1 @ w2 + b2)
        h3 = relu(h2 @ w3 + b3)
        expected = float(sigmoid(h3 @ w4 + b4)[0])
        npt.assert_allclose(got, expected, atol=1e-9)

    def test_rows_forward_in_slices_that_match_one_forward(self):
        # 30,000 rows in forward_rows slices of FORWARD_VALUES // 14 rows
        rng = np.random.default_rng(89)
        model = agents.build_agent2(seed=4)
        X = rng.normal(size=(30_000, 14))
        forward, sizes = model.net.forward, []

        def recording_forward(x, train=False):
            sizes.append(len(x))
            return forward(x, train=train)

        model.net.forward = recording_forward
        probs = agents.predict_agent2(model, X)
        assert agents.forward_rows(model) == 14_043
        assert sizes == [14_043, 14_043, 1_914]
        npt.assert_allclose(probs, sigmoid(forward(X, train=False)[:, 0]),
                            rtol=0, atol=1e-12)


def logged_reads(monkeypatch):
    """Make ``nn.checkpoint`` open files through a wrapper that logs each
    ``read`` as (offset, bytes returned) and fails on ``seek``; return the
    log."""
    reads = []

    class LoggedFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, size):
            at = self.fh.tell()
            data = self.fh.read(size)
            reads.append((at, len(data)))
            return data

        def seek(self, *args):
            raise AssertionError("a checkpoint load seeks")

    monkeypatch.setattr(ckpt, "open", lambda *args: LoggedFile(open(*args)),
                        raising=False)
    return reads


class TestCheckpoints:
    @pytest.mark.parametrize("build, sha256", [
        (lambda: agents.build_agent1(1, input_size=64),
         "7b40647eb49339dcde881ceb3ccd68059cfc0ff7f28abcea40559988ce45593e"),
        (lambda: agents.build_agent2(1),
         "d0d5e2dcc35201d44631b6d6ffa27a7bf18a27f62615909ced92bc1ecd3d0d08"),
    ], ids=["agent1_64", "agent2"])
    def test_seeded_checkpoint_bytes_are_pinned(self, tmp_path, build, sha256):
        # untrained seed-1 checkpoints, as the benchmark's set-up writes
        # them: init draws, dtype casts and record order stay byte-exact
        path = tmp_path / "agent.damc"
        agents.save_agent(build(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("build", [
        lambda: agents.build_agent1(1, input_size=32), lambda: agents.build_agent2(1),
    ], ids=["agent1", "agent2"])
    def test_a_load_draws_no_random_numbers(self, tmp_path, monkeypatch, build, bits):
        stored = build()
        if stored.kind == ckpt.MODEL_AGENT2:
            stored.net.layers[0].fit(np.arange(28.0).reshape(2, 14) ** 2)
        path = tmp_path / "agent.damc"
        ckpt.save_checkpoint(path, stored.net.state(), model_kind=stored.kind,
                             input_size=stored.input_size, dtype_bits=bits)

        def no_generator(*args, **kwargs):
            raise AssertionError("a checkpoint load made a generator")
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = agents.load_agent(path)
        width = np.float32 if bits == 32 else np.float64
        pairs = list(zip(loaded.net.state(), stored.net.state(), strict=True))
        for (kind, got), (want_kind, want) in pairs:
            assert kind == want_kind and got.dtype == np.float64
            assert got.tobytes() == want.astype(width).astype(np.float64).tobytes()

    @pytest.mark.parametrize("kind", [1, 2])
    def test_load_of_the_other_kind_raises_before_building(self, tmp_path,
                                                           monkeypatch, kind):
        other = 3 - kind
        path = tmp_path / "agent.damc"
        agents.save_agent(agents.build_agent1(1, input_size=32) if other == 1
                          else agents.build_agent2(1), path)

        def no_build(*args, **kwargs):
            raise AssertionError("a net was built for the wrong checkpoint")
        monkeypatch.setattr(agents, "build_agent1", no_build)
        monkeypatch.setattr(agents, "build_agent2", no_build)
        with pytest.raises(ConfigurationError,
                           match=f"--agent{kind} .*agent.damc: holds an Agent-"
                                 f"{other} checkpoint, expected Agent-{kind}"):
            agents.load_agent(path, kind=kind)

    @pytest.mark.parametrize("fault, kind, error", [
        (None, None, None),
        ("trailing", None, IngestionError),  # found after the last record
        ("nan", None, IngestionError),       # found in record 3 of 10, mid-stream
        (None, 1, ConfigurationError),       # an Agent-2 file given as Agent-1
    ])
    def test_a_load_opens_its_file_once_and_closes_it(self, tmp_path, monkeypatch,
                                                      fault, kind, error):
        model = agents.build_agent2(1)
        if fault == "nan":
            model.net.state()[2][1][0, 0] = np.nan
        path = tmp_path / "agent.damc"
        agents.save_agent(model, path)
        if fault == "trailing":
            path.write_bytes(path.read_bytes() + bytes(8))
        opened = []

        def tracked_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]
        monkeypatch.setattr(ckpt, "open", tracked_open, raising=False)
        if error is None:
            agents.load_agent(path, kind=kind)
        else:
            with pytest.raises(error):
                agents.load_agent(path, kind=kind)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("build", [
        lambda seed: agents.build_agent1(seed, input_size=32), agents.build_agent2,
    ], ids=["agent1", "agent2"])
    def test_a_load_reads_every_byte_once_in_order(self, tmp_path, monkeypatch, build):
        model = build(1)
        path = tmp_path / "agent.damc"
        agents.save_agent(model, path)
        reads = logged_reads(monkeypatch)
        back, copied = build(2), []

        class Logged(np.ndarray):
            """A target view that logs each array copied into it."""
            def __setitem__(self, key, value):
                copied.append(value)
                super().__setitem__(key, value)

        ckpt.load_checkpoint(path, lambda header: [
            (kind, target.view(Logged)) for kind, target in back.net.state()])
        # one forward pass: each read starts where the last ended, with no seek
        ends = np.cumsum([0] + [size for _, size in reads])
        assert [at for at, _ in reads] == list(ends[:-1])
        assert ends[-1] == path.stat().st_size
        for (_, a), (_, b) in zip(model.net.state(), back.net.state()):
            assert a.tobytes() == b.tobytes()
        # each record is a read-only view of its own payload bytes, not a copy
        assert len(copied) == len(model.net.state())
        assert not any(arr.flags.owndata or arr.flags.writeable for arr in copied)

    def test_a_mismatched_record_is_rejected_before_its_payload_is_read(
            self, tmp_path, monkeypatch):
        # record 2 of an Agent-2 checkpoint, the input sigma, stored as a bias
        state = agents.build_agent2(1).net.state()
        state[1] = (ckpt.KIND_CONV_BIAS, state[1][1])
        path = tmp_path / "kind.damc"
        ckpt.save_checkpoint(path, state, model_kind=ckpt.MODEL_AGENT2,
                             input_size=14, dtype_bits=64)
        reads = logged_reads(monkeypatch)
        with pytest.raises(IngestionError, match="kind.damc: record 2: expected kind "
                                                 f"{ckpt.KIND_STD_SIGMA} shape"):
            agents.load_agent(path)
        # the file header, record 0 (3 values), record 1 (14 values), then
        # record 2's kind, rank and one dim: its payload is never read
        at, size = reads[-1]
        assert at + size == 12 + (12 + 3 * 8) + (12 + 14 * 8) + 12

    def test_a_corrupt_rank_is_rejected_before_any_dim_is_read(self, tmp_path,
                                                                monkeypatch):
        # a 224-px Agent-1 (16.6 MB) whose record 1, conv1's kernel, claims
        # rank 2^32 - 1: reading that many dims would crawl through the rest
        # of the file before it failed as truncated
        path = tmp_path / "rank.damc"
        agents.save_agent(agents.build_agent1(1, input_size=224), path)
        blob = bytearray(path.read_bytes())
        # after the file header, record 0 (3 values) and record 1's kind
        struct.pack_into("<I", blob, 12 + (12 + 3 * 8) + 4, 2 ** 32 - 1)
        path.write_bytes(blob)
        reads = logged_reads(monkeypatch)
        with pytest.raises(IngestionError) as raised:
            agents.load_agent(path)
        assert raised.value.exit_code == 2
        assert (f"rank.damc: record 1: expected kind {ckpt.KIND_CONV_KERNEL} shape "
                f"(11, 11, 3, 64), found kind {ckpt.KIND_CONV_KERNEL} rank 4294967295"
                in str(raised.value))
        # the file header, record 0, then record 1's kind and rank: no dim
        at, size = reads[-1]
        assert at + size == 12 + (12 + 3 * 8) + 8

    def test_agent1_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(89)
        model = agents.build_agent1(seed=11, input_size=32)
        # dirty the running stats so they are exercised too
        frames, labels = separable_frames(rng, 4)
        agents.train_agent1(model, frames, labels,
                            config=Agent1Config(epochs=1, augment=False))
        path = tmp_path / "a1.damc"
        agents.save_agent(model, path)
        back = agents.load_agent(path)
        assert back.input_size == 32
        for pa, pb in zip(model.net.params(), back.net.params()):
            npt.assert_array_equal(pa.value, pb.value)
        frame = rng.uniform(size=(32, 32, 3))
        assert predict_frame(model, frame) == predict_frame(back, frame)

    def test_agent2_round_trip_preserves_conditioning(self, tmp_path):
        rng = np.random.default_rng(90)
        X, y = separable_features(rng, 40)
        model = agents.build_agent2(seed=12)
        agents.train_agent2(model, X, y, config=Agent2Config(epochs=3))
        path = tmp_path / "a2.damc"
        agents.save_agent(model, path)
        back = agents.load_agent(path)
        npt.assert_array_equal(back.net.layers[0].mean, model.net.layers[0].mean)
        npt.assert_array_equal(back.net.layers[0].sigma, model.net.layers[0].sigma)
        x = rng.normal(size=14)
        assert predict_row(model, x) == predict_row(back, x)

    def test_agent2_records_in_state_order_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(92)
        X, y = separable_features(rng, 40)
        model = agents.build_agent2(seed=14)
        agents.train_agent2(model, X, y, config=Agent2Config(epochs=2))
        path = tmp_path / "a2.damc"
        agents.save_agent(model, path)
        # the standardization mean and sigma, then weights and bias of d1..d4;
        # a load checks each record's kind against the state, in file order
        back = agents.build_agent2(seed=0)
        ckpt.load_checkpoint(path, lambda header: back.net.state())
        assert [kind for kind, _ in back.net.state()] == [9, 10, 7, 8, 7, 8, 7, 8, 7, 8]
        for (kind, a), (back_kind, b) in zip(model.net.state(), back.net.state()):
            assert kind == back_kind and a.tobytes() == b.tobytes()

    def test_checkpoint_bytes_are_deterministic(self, tmp_path):
        model = agents.build_agent2(seed=13)
        p1, p2 = tmp_path / "m1.damc", tmp_path / "m2.damc"
        agents.save_agent(model, p1)
        agents.save_agent(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_runtime_end_to_end(self, tmp_path):
        rng = np.random.default_rng(91)
        model = agents.build_agent1(seed=3, input_size=32, dtype=np.float32)
        frames = rng.uniform(size=(12, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 1] * 6)
        agents.train_agent1(model, frames, labels,
                            config=Agent1Config(epochs=1, augment=False))
        assert all(p.value.dtype == np.float32 for p in model.net.params())
        path = tmp_path / "a1_f32.damc"
        agents.save_agent(model, path)
        header = ckpt.load_checkpoint(path, lambda header: agents.build_agent1(
            seed=0, input_size=header["input_size"]).net.state())
        assert header["dtype_bits"] == 32
        # every load computes in float64; the upcast keeps each value exactly
        back = agents.load_agent(path)
        assert back.dtype == np.float64
        for (_, trained), (_, loaded) in zip(model.net.state(), back.net.state()):
            assert loaded.tobytes() == trained.astype(np.float64).tobytes()
        # the same weights forwarded in float32 and in float64
        frame = rng.uniform(size=(32, 32, 3))
        npt.assert_allclose(predict_frame(back, frame), predict_frame(model, frame),
                            rtol=0, atol=1e-6)
