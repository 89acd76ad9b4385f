"""Manifests, split assignment, config resolution, cache, fixture generator."""

import json
import re

import numpy as np
import pytest

from deepagent import fixtures, semantic
from deepagent.cache import read_cache, update_cache, write_cache
from deepagent.config import load_config
from deepagent.errors import ConfigurationError, IngestionError, UsageError
from deepagent.fixtures import assign_splits
from deepagent.manifest import load_manifest
from deepagent.nn.checkpoint import save_checkpoint


def write_sample_files(root, sid):
    frame = root / f"{sid}.pgm"
    frame.write_bytes(b"P5\n1 1\n255\n" + bytes([100]))
    return {"id": sid, "label": 0, "frames": [frame.name], "split": "train"}


class TestManifest:
    def test_two_valid_records(self, tmp_path):
        entries = [write_sample_files(tmp_path, "a"), write_sample_files(tmp_path, "b")]
        entries[1]["label"] = 1
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        records = load_manifest(path)
        assert [r.id for r in records] == ["a", "b"]
        assert records[0].frames[0].is_file()

    def test_duplicate_id_named(self, tmp_path):
        entries = [write_sample_files(tmp_path, "dup"), write_sample_files(tmp_path, "dup")]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(IngestionError, match="dup"):
            load_manifest(path)

    def test_dangling_frame_named(self, tmp_path):
        entry = write_sample_files(tmp_path, "a")
        entry["frames"] = ["missing.pgm"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(IngestionError, match="missing.pgm"):
            load_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        entry = write_sample_files(tmp_path, "a")
        entry["label"] = 2
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(IngestionError, match="label"):
            load_manifest(path)

    def test_all_violations_enumerated(self, tmp_path):
        e1 = write_sample_files(tmp_path, "a")
        e1["label"] = 7
        e2 = {"id": "b", "label": 1, "frames": ["nope.pgm"], "split": "train"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([e1, e2]))
        with pytest.raises(IngestionError, match="2 manifest violation"):
            load_manifest(path)

    def test_non_object_entry_reported_with_other_violations(self, tmp_path):
        entries = [write_sample_files(tmp_path, "a"), 5, {"id": "b", "label": 9,
                                                           "frames": ["a.pgm"],
                                                           "split": "train"}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(IngestionError, match="2 manifest violation") as info:
            load_manifest(path)
        assert "record 1: must be a JSON object" in str(info.value)

    def test_record_needs_frames_or_audio(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"id": "x", "label": 0, "frames": [],
                                     "split": "train"}]))
        with pytest.raises(IngestionError, match="at least one"):
            load_manifest(path)

    def test_audio_only_record_reported_with_other_violations(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"RIFF")
        entries = [{"id": "talk", "label": 0, "frames": [], "audio": "a.wav",
                    "split": "train"},
                   {"id": "mute", "label": 1, "audio": "a.wav", "split": "val"},
                   {"id": "b", "label": 5, "frames": ["nope.pgm"], "split": "test"}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(IngestionError, match="4 manifest violation") as info:
            load_manifest(path)
        assert "talk: needs at least one frame" in str(info.value)
        assert "mute: needs at least one frame" in str(info.value)


def split_counts(labels, splits, c):
    chosen = [s for label, s in zip(labels, splits) if label == c]
    return {s: chosen.count(s) for s in ("train", "val", "test")}


class TestAssignSplits:
    def test_balanced_hundred(self):
        labels = [i % 2 for i in range(100)]
        splits = assign_splits(labels, seed=42)
        for c in (0, 1):
            assert split_counts(labels, splits, c) == {"train": 35, "val": 10, "test": 5}

    def test_same_seed_identical(self):
        labels = [i % 2 for i in range(30)]
        assert assign_splits(labels, seed=7) == assign_splits(labels, seed=7)

    def test_ten_per_class_rounds_to_721(self):
        labels = [i % 2 for i in range(20)]
        splits = assign_splits(labels, seed=1)
        for c in (0, 1):
            assert split_counts(labels, splits, c) == {"train": 7, "val": 2, "test": 1}

    def test_tiny_class_rejected(self):
        with pytest.raises(UsageError):
            assign_splits([0] * 10 + [1] * 2, seed=0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = load_config(None, {})
        assert cfg.seed == 42
        assert (fixtures.VAL_FRACTION, fixtures.TEST_FRACTION) == (0.20, 0.10)
        assert cfg.input_size == 224

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "agent1": {"epochs": 3}}))
        cfg = load_config(path, {"m": 12})
        assert cfg.seed == 7 and cfg.agent1.epochs == 3 and cfg.m == 12

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        assert load_config(path, {"seed": 9}).seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(ConfigurationError, match="not_a_key"):
            load_config(path, {})

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            load_config(None, {"frame_policy": "odd"})

    @pytest.mark.parametrize("data, key", [
        ({"m": 0}, "m"),
        ({"folds": 1}, "folds"),
        ({"forest_trees": 0}, "forest_trees"),
        ({"agent1": {"epochs": 0}}, "agent1.epochs"),
        ({"agent1": {"batch_size": 1}}, "agent1.batch_size"),
        ({"agent2": {"epochs": 0}}, "agent2.epochs"),
        ({"agent2": {"batch_size": 0}}, "agent2.batch_size"),
    ])
    def test_out_of_range_value_names_key(self, tmp_path, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=re.escape(key) + " must be >="):
            load_config(path, {})

    @pytest.mark.parametrize("data, key", [
        ({"folds": "5"}, "folds"),
        ({"seed": True}, "seed"),
        ({"seed": 4.0}, "seed"),
        ({"desk_scale": 1}, "desk_scale"),
        ({"agent2": {"learning_rate": "0.001"}}, "agent2.learning_rate"),
        ({"frame_policy": 5}, "frame_policy"),
        ({"m": None}, "m"),
        ({"agent1": {"augment": "no"}}, "agent1.augment"),
        ({"agent1": {"epochs": 2.5}}, "agent1.epochs"),
        ({"agent1": {"learning_rate": False}}, "agent1.learning_rate"),
        ({"agent2": {"learning_rate": [0.001]}}, "agent2.learning_rate"),
    ])
    def test_wrong_value_type_names_key(self, tmp_path, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=re.escape(key) + " must be "):
            load_config(path, {})

    def test_float_key_accepts_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"agent2": {"learning_rate": 1}}))
        value = load_config(path, {}).agent2.learning_rate
        assert value == 1.0 and isinstance(value, float)


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        entries = {
            "a/feature": rng.normal(size=14),
            "a/scores": np.array([0.25, 0.75]),
            # the smallest subnormal, a negative zero, the largest float64
            # and values with no short decimal form
            "b/feature": np.array([5e-324, -0.0, np.finfo(np.float64).max, 0.1, 1 / 3]),
        }
        path = tmp_path / "cache.json"
        write_cache(path, entries)
        back = read_cache(path)
        assert set(back) == set(entries)
        for key in entries:
            assert back[key].dtype == np.float64
            assert back[key].tobytes() == entries[key].tobytes()

    def test_write_is_deterministic(self, tmp_path):
        entries = {"x": np.arange(5.0), "a": np.ones(2)}
        p1, p2 = tmp_path / "c1", tmp_path / "c2"
        write_cache(p1, entries)
        write_cache(p2, dict(reversed(entries.items())))
        assert p1.read_bytes() == p2.read_bytes()

    def test_update_merges(self, tmp_path):
        path = tmp_path / "cache.json"
        write_cache(path, {"a": np.zeros(2)})
        update_cache(path, {"b": np.ones(3)})
        back = read_cache(path)
        assert set(back) == {"a", "b"}

    @pytest.mark.parametrize("write", [
        lambda path: write_cache(path, {"new": np.ones(3)}),
        lambda path: update_cache(path, {"new": np.ones(3)}),
        lambda path: save_checkpoint(path, [(7, np.ones((2, 2)))], model_kind=2,
                                     input_size=14, dtype_bits=64),
    ], ids=["write_cache", "update_cache", "save_checkpoint"])
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact.bin"
        write_cache(path, {"old": np.zeros(2)})
        old = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_text_that_is_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(IngestionError, match="bad.json: cannot read cache: Expecting"):
            read_cache(path)


class TestFixtures:
    def test_same_seed_byte_identical_tree(self, tmp_path):
        m1 = fixtures.gen_fixtures(tmp_path / "f1", 8, 0.7, 0.5, seed=11)
        m2 = fixtures.gen_fixtures(tmp_path / "f2", 8, 0.7, 0.5, seed=11)
        files1 = sorted(p.relative_to(tmp_path / "f1") for p in (tmp_path / "f1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "f2") for p in (tmp_path / "f2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "f1" / rel).read_bytes() == (tmp_path / "f2" / rel).read_bytes()

    def test_manifest_loads_and_balances(self, tmp_path):
        mpath = fixtures.gen_fixtures(tmp_path / "fx", 10, 1.0, 1.0, seed=3)
        records = load_manifest(mpath)
        labels = [r.label for r in records]
        assert labels.count(0) == labels.count(1) == 5
        # gen_fixtures's seed draws the splits it writes
        assert [r.split for r in records] == assign_splits(labels, seed=3)

    def test_two_hundred_split_70_20_10_per_class(self, tmp_path):
        records = load_manifest(fixtures.gen_fixtures(tmp_path / "fx", 200, 1.0, 1.0,
                                                      seed=42))
        for c in (0, 1):
            splits = [r.split for r in records if r.label == c]
            assert {s: splits.count(s) for s in ("train", "val", "test")} == {
                "train": 70, "val": 20, "test": 10}

    def test_full_gap_zeroes_fake_similarity(self, tmp_path):
        mpath = fixtures.gen_fixtures(tmp_path / "fx", 6, 1.0, 1.0, seed=5)
        for record in load_manifest(mpath):
            asr = semantic.tokenize(record.asr_text.read_text())
            ocr = semantic.tokenize(record.ocr_text.read_text())
            s = semantic.lexical_similarity(asr, ocr)
            assert s == (0.0 if record.label == 1 else 1.0)

    def test_odd_count_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            fixtures.gen_fixtures(tmp_path / "fx", 7, 1.0, 1.0, seed=1)

    def test_out_of_range_params_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            fixtures.gen_fixtures(tmp_path / "fx", 6, 1.5, 0.0, seed=1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_too_few_to_split_rejected_before_writing(self, tmp_path, n):
        # each class needs 3 samples to split
        with pytest.raises(UsageError, match=f"n_samples must be even and >= 6, got {n}"):
            fixtures.gen_fixtures(tmp_path / "fx", n, 1.0, 1.0, seed=1)
        assert not (tmp_path / "fx").exists()
