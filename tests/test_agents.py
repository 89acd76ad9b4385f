"""Agent construction, training behavior, prediction, and checkpoints."""

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import agents
from deepagent.agents import TrainController
from deepagent.config import Agent1Config, Agent2Config
from deepagent.errors import UsageError
from deepagent.nn.layers import sigmoid
from deepagent.nn.losses import cce_batch

from oracles import agent1_shape_chain


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
        out = model.net.forward(np.zeros((1, 64, 64, 3)), train=False)
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
        from deepagent.nn.losses import cce_batch
        model = agents.build_agent1(seed=0, input_size=224)
        x = np.random.default_rng(0).uniform(size=(2, 224, 224, 3))
        probs = model.net.forward(x, train=True)
        loss, dprobs = cce_batch(probs, np.eye(2)[[0, 1]])
        model.net.zero_grad()
        model.net.backward(dprobs)
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
        for layer in reversed(manual.layers):
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
                                      Agent1Config(epochs=1, augment=False))
        row = history[0]
        assert set(row) == {"epoch", "train_loss", "train_acc", "val_loss",
                            "val_acc", "lr"}
        assert row["val_acc"] is not None

    def test_chunked_validation_matches_single_forward(self):
        # 10 validation frames in slices of 4, 4 and 2
        rng = np.random.default_rng(97)
        frames, labels = separable_frames(rng, 8)
        val_frames, val_labels = separable_frames(rng, 5)
        model = agents.build_agent1(seed=3, input_size=32)
        forward, sizes = model.net.forward, []

        def recording_forward(x, train=False):
            sizes.append(len(x))
            return forward(x, train=train)

        model.net.forward = recording_forward
        history = agents.train_agent1(
            model, frames, labels, val_frames, val_labels,
            Agent1Config(epochs=1, batch_size=4, augment=False))
        assert sizes == [4, 4, 2]
        probs = forward(val_frames, train=False)
        loss, _ = cce_batch(probs, np.eye(2)[val_labels])
        assert history[0]["val_loss"] == loss
        accuracy = float((probs.argmax(axis=1) == val_labels).mean())
        assert history[0]["val_acc"] == accuracy

    def test_training_loss_non_increasing_on_separable_fixture(self):
        # end-of-epoch loss on the training set (inference mode), allowing
        # single-epoch noise of 5 percent
        rng = np.random.default_rng(95)
        frames, labels = separable_frames(rng, 20)
        model = agents.build_agent1(seed=42, input_size=32)
        history = agents.train_agent1(model, frames, labels, frames, labels,
                                      Agent1Config(epochs=10, augment=False))
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
        probs = model.net.forward(rng.uniform(size=(3, 32, 32, 3)), train=False)
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

    def test_inference_leaves_no_layer_state(self):
        # frozen-weight prediction must not mutate layers, so concurrent
        # per-frame inference is safe
        rng = np.random.default_rng(98)
        model = agents.build_agent1(seed=4, input_size=32)
        predict_frame(model, rng.uniform(size=(32, 32, 3)))
        for layer in model.net.layers:
            assert getattr(layer, "_cache", None) is None


@pytest.fixture
def frames_are_scores(monkeypatch):
    """Agent-1 returns each "frame" as its own score, so ``score_video``'s
    reduction is checked on exact values."""
    monkeypatch.setattr(agents, "predict_frames",
                        lambda model, frames: np.asarray(frames, dtype=float))


@pytest.mark.usefixtures("frames_are_scores")
class TestAggregateVideo:
    def test_mean(self):
        assert agents.score_video(None, [0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_single_frame(self):
        assert agents.score_video(None, [0.9]) == 0.9

    def test_all_ones(self):
        assert agents.score_video(None, [1.0, 1.0, 1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            agents.score_video(None, [])

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(84)
        scores = list(rng.uniform(size=9))
        a = agents.score_video(None, scores)
        b = agents.score_video(None, list(reversed(scores)))
        assert a == b
        assert min(scores) <= a <= max(scores)


class TestScoreVideo:
    def test_mean_of_predicted_frame_scores(self):
        rng = np.random.default_rng(87)
        frames, _ = separable_frames(rng, 3)
        model = agents.build_agent1(seed=4, input_size=32)
        score = agents.score_video(model, frames)
        assert isinstance(score, float)
        assert score == float(np.mean(agents.predict_frames(model, frames)))


class TestTrainAgent2:
    def test_separable_features_reach_validation_bar(self):
        rng = np.random.default_rng(85)
        X, y = separable_features(rng, 80)
        vX, vy = separable_features(rng, 40)
        model = agents.build_agent2(seed=42)
        history = agents.train_agent2(model, X, y, vX, vy, Agent2Config())
        assert max(h["val_acc"] for h in history) >= 0.95

    def test_single_class_rejected(self):
        model = agents.build_agent2(seed=1)
        with pytest.raises(UsageError):
            agents.train_agent2(model, np.zeros((6, 14)), np.zeros(6, dtype=int))

    def test_restores_best_validation_weights(self):
        rng = np.random.default_rng(86)
        X, y = separable_features(rng, 40)
        vX, vy = separable_features(rng, 20)
        model = agents.build_agent2(seed=2)
        history = agents.train_agent2(model, X, y, vX, vy, Agent2Config(epochs=30))
        best = max(h["val_acc"] for h in history)
        preds = agents.predict_agent2(model, vX)
        acc = (((preds >= 0.5).astype(int)) == vy).mean()
        npt.assert_allclose(acc, best, atol=1e-12)

    def test_training_loss_non_increasing_on_separable_fixture(self):
        rng = np.random.default_rng(96)
        X, y = separable_features(rng, 60)
        model = agents.build_agent2(seed=42)
        history = agents.train_agent2(
            model, X, y, X, y,
            Agent2Config(epochs=40, early_stop_patience=100))
        losses = [h["val_loss"] for h in history]
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.05


class TestTrainController:
    def test_strictly_improving_never_stops(self):
        ctl = TrainController(stop_patience=10, lr_patience=5, lr_factor=0.5)
        for epoch in range(100):
            stop, reduce = ctl.update(epoch / 100.0)
            assert not stop and not reduce

    def test_two_reductions_quarter_the_rate(self):
        ctl = TrainController(stop_patience=100, lr_patience=5, lr_factor=0.5)
        lr = 0.001
        ctl.update(0.9)
        for _ in range(10):
            _, reduce = ctl.update(0.5)
            if reduce:
                lr *= 0.5
        assert lr == pytest.approx(0.25 * 0.001)

    def test_stops_after_patience_stagnant_epochs(self):
        ctl = TrainController(stop_patience=10, lr_patience=5, lr_factor=0.5)
        ctl.update(0.9)
        stops = [ctl.update(0.1)[0] for _ in range(10)]
        assert stops == [False] * 9 + [True]


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
        # width-4 head with explicit weights, replayed by hand
        model = agents.build_agent2(seed=0, input_width=4, hidden=(4, 4, 4))
        rng = np.random.default_rng(88)
        mats = [rng.uniform(-0.5, 0.5, size=s)
                for s in ((4, 4), (4,), (4, 4), (4,), (4, 4), (4,), (4, 1), (1,))]
        for p, m in zip(model.net.params(), mats):
            p.value[...] = m
        x = rng.uniform(-1, 1, size=4)
        got = predict_row(model, x)

        w1, b1, w2, b2, w3, b3, w4, b4 = mats
        h1 = relu(x @ w1 + b1)
        h2 = relu(h1 @ w2 + b2)
        h3 = relu(h2 @ w3 + b3)
        expected = float(sigmoid(h3 @ w4 + b4)[0])
        npt.assert_allclose(got, expected, atol=1e-9)


class TestCheckpoints:
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
        npt.assert_array_equal(back.input_mu, model.input_mu)
        npt.assert_array_equal(back.input_sigma, model.input_sigma)
        x = rng.normal(size=14)
        assert predict_row(model, x) == predict_row(back, x)

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
        back = agents.load_agent(path)
        assert back.dtype == np.float32
        frame = rng.uniform(size=(32, 32, 3))
        assert predict_frame(model, frame) == predict_frame(back, frame)
