"""Pipeline helpers: frame selection, preprocessing, scoring glue."""

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import agents, pipeline
from deepagent.config import load_config
from deepagent.errors import UsageError
from deepagent.manifest import SampleRecord
from deepagent.vision import save_frame


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
        record = SampleRecord("a", 0, frames=paths)
        cfg = load_config(None, {"desk_scale": True})
        frames = pipeline.load_sample_frames(record, cfg)
        assert frames.shape == (2, 64, 64, 3)  # indices 0 and 5
        assert 0.0 <= frames.min() and frames.max() <= 1.0

    def test_grayscale_frames_expand_to_rgb(self, tmp_path):
        paths = write_frames(tmp_path, 2, channels=1)
        record = SampleRecord("g", 0, frames=paths)
        cfg = load_config(None, {"desk_scale": True})
        frames = pipeline.load_sample_frames(record, cfg)
        assert frames.shape[-1] == 3
        npt.assert_array_equal(frames[..., 0], frames[..., 1])

    def test_size_override_beats_config(self, tmp_path):
        paths = write_frames(tmp_path, 1)
        record = SampleRecord("s", 0, frames=paths)
        cfg = load_config(None, {})
        frames = pipeline.load_sample_frames(record, cfg, size=32)
        assert frames.shape == (1, 32, 32, 3)

    def test_frameless_sample_rejected(self):
        cfg = load_config(None, {})
        with pytest.raises(UsageError):
            pipeline.load_sample_frames(SampleRecord("x", 0), cfg)


class TestScoreSamples:
    def setup_method(self):
        self.agent1 = agents.build_agent1(seed=5, input_size=32)
        self.agent2 = agents.build_agent2(seed=6)
        self.cfg = load_config(None, {})

    def test_agent2_column_is_one_batched_forward(self, tmp_path):
        paths = write_frames(tmp_path, 3)
        rng = np.random.default_rng(70)
        records = [SampleRecord(f"s{i}", i % 2, frames=paths[i % 3:])
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
            frames = pipeline.load_sample_frames(record, self.cfg, size=32)
            assert s1 == agents.score_video(self.agent1, frames)

    def test_no_records_gives_empty_matrix(self):
        scores = pipeline.score_samples([], self.agent1, self.agent2, {}, self.cfg)
        assert scores.shape == (0, 2)


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
