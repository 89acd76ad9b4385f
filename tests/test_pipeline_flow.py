"""Pipeline helpers: frame selection, preprocessing, scoring and training
glue."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import deepagent
from deepagent import agents, pipeline
from deepagent.config import load_config
from deepagent.fixtures import gen_fixtures
from deepagent.manifest import SampleRecord, by_split, load_manifest
from deepagent.nn.checkpoint import load_checkpoint
from deepagent.nn.losses import softmax
from deepagent.vision import save_frame

SRC = Path(deepagent.__file__).resolve().parents[1]


def write_frames(tmp_path, count, size=16, channels=3):
    rng = np.random.default_rng(count)
    paths = []
    for i in range(count):
        path = tmp_path / f"f{i:02d}.{'ppm' if channels == 3 else 'pgm'}"
        save_frame(path, rng.uniform(0, 255, size=(size, size, channels)))
        paths.append(path)
    return paths


class TestFrameSelection:
    def test_interval_policy_default(self):
        cfg = load_config(None, {})
        assert pipeline.select_frame_indices(12, cfg) == [0, 5, 10]

    def test_even_policy_uses_m(self):
        cfg = load_config(None, {"frame_policy": "even", "m": 4})
        assert pipeline.select_frame_indices(10, cfg) == [0, 3, 6, 9]


class TestLoadSampleFrames:
    def test_resize_and_normalize(self, tmp_path):
        paths = write_frames(tmp_path, 6)
        record = SampleRecord("a", 0, frames=paths, split="test")
        cfg = load_config(None, {"desk_scale": True})
        frames = pipeline.FrameSet([record], cfg, cfg.input_size)[:]
        assert frames.shape == (2, 64, 64, 3)  # indices 0 and 5
        assert 0.0 <= frames.min() and frames.max() <= 1.0

    def test_grayscale_frames_expand_to_rgb(self, tmp_path):
        paths = write_frames(tmp_path, 2, channels=1)
        record = SampleRecord("g", 0, frames=paths, split="test")
        cfg = load_config(None, {"desk_scale": True})
        frames = pipeline.FrameSet([record], cfg, cfg.input_size)[:]
        assert frames.shape[-1] == 3
        npt.assert_array_equal(frames[..., 0], frames[..., 1])

    def test_size_override_beats_config(self, tmp_path):
        paths = write_frames(tmp_path, 1)
        record = SampleRecord("s", 0, frames=paths, split="test")
        cfg = load_config(None, {})
        frames = pipeline.FrameSet([record], cfg, 32)[:]
        assert frames.shape == (1, 32, 32, 3)


class TestScoreSamples:
    def setup_method(self):
        self.agent1 = agents.build_agent1(seed=5, input_size=32)
        self.agent2 = agents.build_agent2(seed=6)
        self.cfg = load_config(None, {})

    def test_agent2_column_is_one_batched_forward(self, tmp_path):
        paths = write_frames(tmp_path, 3)
        rng = np.random.default_rng(70)
        records = [SampleRecord(f"s{i}", i % 2, frames=paths[i % 3:], split="test")
                   for i in range(24)]
        entries = {f"{r.id}/feature": rng.normal(size=14) for r in records}
        scores = pipeline.score_samples(records, self.agent1, self.agent2,
                                        entries, self.cfg)
        assert scores.shape == (24, 2)
        X = np.stack([entries[f"{r.id}/feature"] for r in records])
        batched = agents.predict_agent2(self.agent2, X)
        assert scores[:, 1].tobytes() == batched.tobytes()
        per_row = [agents.predict_agent2(self.agent2, x[None])[0] for x in X]
        npt.assert_allclose(scores[:, 1], per_row, rtol=0, atol=1e-12)
        for record, s1 in zip(records, scores[:, 0]):
            frames = pipeline.FrameSet([record], self.cfg, 32)[:]
            assert s1 == float(np.mean(agents.predict_frames(self.agent1, frames)))

    def test_no_records_gives_empty_matrix(self):
        scores = pipeline.score_samples([], self.agent1, self.agent2, {}, self.cfg)
        assert scores.shape == (0, 2)

    def test_mean_of_predicted_frame_scores(self, tmp_path):
        record = SampleRecord("v", 0, frames=write_frames(tmp_path, 6, size=32),
                              split="test")
        cfg = load_config(None, {"frame_policy": "even", "m": 6})
        score = pipeline.score_samples([record], self.agent1, self.agent2,
                                       {"v/feature": np.zeros(14)}, cfg)[0, 0]
        frames = pipeline.FrameSet([record], cfg, 32)[:]
        assert isinstance(score, float)
        assert score == float(np.mean(agents.predict_frames(self.agent1, frames)))


@pytest.fixture
def frames_are_scores(monkeypatch):
    """A record's frame list holds its frame scores, and Agent-1 returns
    each frame's first pixel as its score, so ``score_samples``' per-video
    reduction is checked on exact values."""
    monkeypatch.setattr(
        pipeline, "load_sample_frames", lambda paths, size:
        np.ones((1, size, size, 3)) * np.array(paths, dtype=float)[:, None, None, None])
    monkeypatch.setattr(agents, "predict_frames",
                        lambda model, frames: frames[:][:, 0, 0, 0])


def agent1_score(frame_scores):
    # the even policy with the default m of 30 reads every listed frame
    record = SampleRecord("v", 0, frames=list(frame_scores), split="test")
    return pipeline.score_samples(
        [record], agents.build_agent1(seed=5, input_size=16),
        agents.build_agent2(seed=6), {"v/feature": np.zeros(14)},
        load_config(None, {"frame_policy": "even"}))[0, 0]


class TestAggregateVideo:
    def test_mean(self, frames_are_scores):
        assert agent1_score([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_single_frame(self, frames_are_scores):
        assert agent1_score([0.9]) == 0.9

    def test_all_ones(self, frames_are_scores):
        assert agent1_score([1.0, 1.0, 1.0]) == 1.0

    def test_permutation_invariant_and_bounded(self, frames_are_scores):
        rng = np.random.default_rng(84)
        scores = list(rng.uniform(size=9))
        a = agent1_score(scores)
        b = agent1_score(list(reversed(scores)))
        assert a == b
        assert min(scores) <= a <= max(scores)


class TestBatchedAgent1Scoring:
    """Agent-1 scores the frames of all records in forwards of
    ``max(1, FORWARD_VALUES // (3 * S**2))`` frames that cross video
    boundaries."""

    @pytest.mark.parametrize("size, counts", [
        (32, [1, 63, 130, 64, 1, 65, 1]),  # 64 frames per forward
        (128, [1, 5, 3]),                  # 4
        (224, [2, 1]),                     # 1
    ])
    def test_forwards_hold_one_batch_and_videos_keep_their_frames(
            self, tmp_path, monkeypatch, size, counts):
        paths = write_frames(tmp_path, 7)
        records = [SampleRecord(f"v{i}", i % 2,
                                frames=[paths[(i + j) % 7] for j in range(n)],
                                split="test")
                   for i, n in enumerate(counts)]
        cfg = load_config(None, {"frame_policy": "even", "m": max(counts)})
        model = agents.build_agent1(seed=5, input_size=size)
        batch = max(1, agents.FORWARD_VALUES // (3 * size ** 2))
        assert batch == {32: 64, 128: 4, 224: 1}[size]
        forward, load = model.net.forward, pipeline.load_sample_frames
        forwards, seen = [], {"loaded": 0, "scored": 0}

        def spy_forward(frames, train=False):
            out = forward(frames, train=train)
            forwards.append((np.array(frames), softmax(out)[:, 1]))
            seen["scored"] += len(frames)
            return out

        def spy_load(paths, size):
            frames = load(paths, size)
            seen["loaded"] += len(frames)
            # frames loaded but not yet scored: at most one batch
            assert seen["loaded"] - seen["scored"] <= batch
            return frames

        monkeypatch.setattr(model.net, "forward", spy_forward)
        monkeypatch.setattr(pipeline, "load_sample_frames", spy_load)
        entries = {f"{r.id}/feature": np.zeros(14) for r in records}
        scores = pipeline.score_samples(records, model, agents.build_agent2(seed=6),
                                        entries, cfg)
        monkeypatch.undo()

        assert max(len(frames) for frames, _ in forwards) <= batch
        assert len(forwards) == -(-sum(counts) // batch)
        videos = [pipeline.FrameSet([r], cfg, size)[:] for r in records]
        assert [len(v) for v in videos] == counts
        fed = np.concatenate([frames for frames, _ in forwards])
        assert fed.tobytes() == np.concatenate(videos).tobytes()
        probs = np.concatenate([p for _, p in forwards])
        ends = np.cumsum(counts)
        for video, end, score in zip(videos, ends, scores[:, 0]):
            assert score == float(np.mean(probs[end - len(video):end]))
            # BLAS may pick another kernel for a forward of another row
            # count, so a video scored alone can differ in the last bits
            alone = softmax(forward(video, train=False))[:, 1]
            npt.assert_allclose(score, float(np.mean(alone)), rtol=0, atol=1e-12)


class TestStreamedAgent1Training:
    """``train agent1`` reads its frames from disk one batch at a time and
    trains exactly as it would on the fully stacked float64 arrays."""

    def test_batches_read_once_per_epoch_and_match_stacked_training(
            self, tmp_path, monkeypatch):
        records = load_manifest(gen_fixtures(tmp_path / "fx", 12, 1.0, 1.0, seed=8))
        cfg = load_config(None, {"desk_scale": True, "frame_policy": "even",
                                 "m": 6, "agent1": {"epochs": 2}})
        load, calls = pipeline.load_sample_frames, []

        def spy_load(paths, size):
            calls.append(list(paths))
            return load(paths, size)

        monkeypatch.setattr(pipeline, "load_sample_frames", spy_load)
        history = pipeline.run_train_agent1(records, cfg, tmp_path / "a1.damc")
        monkeypatch.undo()

        train, val = (pipeline.FrameSet(by_split(records, split), cfg, cfg.input_size)
                      for split in ("train", "val"))
        batch = cfg.agent1.batch_size
        # no trailing one-frame batch is skipped, so every frame is read
        assert len(train) > batch and len(train) % batch != 1 and len(val)
        trained = agents.load_agent(tmp_path / "a1.damc")
        limit = max(batch, agents.forward_rows(trained))
        assert max(len(paths) for paths in calls) <= limit
        # each epoch reads every train frame once, then validates
        train_paths, val_paths = set(train.paths), set(val.paths)
        epochs, reading_val = [], True
        for paths in calls:
            is_val = set(paths) <= val_paths
            assert is_val or set(paths) <= train_paths
            if reading_val and not is_val:
                epochs.append(Counter())
            if not is_val:
                epochs[-1].update(paths)
            reading_val = is_val
        assert epochs == [Counter(train.paths)] * cfg.agent1.epochs

        def stacked(split):
            chosen = by_split(records, split)
            videos = [pipeline.FrameSet([r], cfg, cfg.input_size)[:] for r in chosen]
            labels = [r.label for r, video in zip(chosen, videos) for _ in video]
            return np.concatenate(videos), np.array(labels)

        model = agents.build_agent1(cfg.seed, input_size=cfg.input_size,
                                    dtype=agents.AGENT1_TRAIN_DTYPE)
        X, y = stacked("train")
        assert X.dtype == np.float64 and y.tolist() == train.labels.tolist()
        assert agents.train_agent1(model, X, y, *stacked("val"), config=cfg.agent1) == history
        for (_, got), (_, want) in zip(trained.net.state(), model.net.state()):
            npt.assert_array_equal(got, want)


def stored_bits(path) -> int:
    """The width an Agent-1 checkpoint's records are stored at, from the
    header of a load into a net built to its input size."""
    return load_checkpoint(path, lambda header: agents.build_agent1(
        seed=0, input_size=header["input_size"]).net.state())["dtype_bits"]


class TestAgent1StorageWidth:
    """``train agent1`` stores 32-bit records, and every load computes in
    float64, so the width a checkpoint is stored at never changes a score."""

    def test_32_bit_checkpoint_scores_as_its_64_bit_copy(self, tmp_path):
        records = load_manifest(gen_fixtures(tmp_path / "fx", 12, 1.0, 1.0, seed=9))
        cfg = load_config(None, {"desk_scale": True, "frame_policy": "even",
                                 "m": 4, "agent1": {"epochs": 1}})
        runs = [tmp_path / "a.damc", tmp_path / "b.damc"]
        for path in runs:
            pipeline.run_train_agent1(records, cfg, path)
        assert runs[0].read_bytes() == runs[1].read_bytes()
        assert stored_bits(runs[0]) == 32

        narrow = agents.load_agent(runs[0])
        agents.save_agent(narrow, tmp_path / "wide.damc")
        assert stored_bits(tmp_path / "wide.damc") == 64
        wide = agents.load_agent(tmp_path / "wide.damc")
        agent2 = agents.build_agent2(seed=6)
        entries = {f"{r.id}/feature": np.zeros(14) for r in records}
        narrow_scores, wide_scores = (
            pipeline.score_samples(records, model, agent2, entries, cfg)
            for model in (narrow, wide))
        assert narrow_scores.tobytes() == wide_scores.tobytes()


class TestPredictBytesAcrossBlasThreads:
    """Inference bytes do not depend on the BLAS thread count: ``predict``
    from one checkpoint writes the same ``scores.json`` with OpenBLAS on one
    thread and on two. Agent-1 training does not have that property (its
    conv backward's long reductions split differently), so no test claims
    it."""

    @pytest.mark.parametrize("size", [64, 224])
    def test_predict_writes_the_same_bytes_at_one_and_two_threads(self, tmp_path, size):
        manifest = gen_fixtures(tmp_path / "fx", 6, 1.0, 1.0, seed=3)
        pipeline.run_extract(load_manifest(manifest), tmp_path / "cache.json")
        agents.save_agent(agents.build_agent1(1, input_size=size), tmp_path / "a1.damc")
        agents.save_agent(agents.build_agent2(1), tmp_path / "a2.damc")
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"scores_{threads}.json"
            # the variable is set for the child alone
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "deepagent", "predict", "--manifest", str(manifest),
                 "--agent1", str(tmp_path / "a1.damc"), "--agent2", str(tmp_path / "a2.damc"),
                 "--cache", str(tmp_path / "cache.json"), "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, check=True)
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestRenderTable:
    def test_percent_formatting(self):
        rows = [
            {"fold": 1, "accuracy": 0.7667, "precision": 0.7927,
             "recall": 0.7222, "f1": 0.7558, "auc": 0.8739},
            {"fold": "mean", "accuracy": 0.7667, "precision": 0.7927,
             "recall": 0.7222, "f1": 0.7558, "auc": 0.8739},
        ]
        table = pipeline.render_fold_table(rows)
        assert "76.67" in table and "87.39" in table
        assert table.splitlines()[-1].split()[0] == "Mean"
