"""Command-line behavior: workflow order, artifacts, exit codes, error JSON."""

import json
import struct

import numpy as np
import pytest

from deepagent.cache import read_cache, write_cache
from deepagent.cli import main
from deepagent.nn import checkpoint as ckpt


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny fixture dataset plus every downstream artifact."""
    root = tmp_path_factory.mktemp("cli")
    fx = root / "fx"
    assert main(["gen-fixtures", "--out", str(fx), "--n", "12",
                 "--strength", "1.0", "--gap", "1.0", "--seed", "42"]) == 0
    manifest = fx / "manifest.json"
    cache = root / "cache.daft"
    assert main(["extract", "--manifest", str(manifest),
                 "--out", str(cache)]) == 0
    a1 = root / "agent1.damc"
    assert main(["train", "agent1", "--manifest", str(manifest),
                 "--out", str(a1), "--desk-scale", "--epochs", "2"]) == 0
    a2 = root / "agent2.damc"
    assert main(["train", "agent2", "--manifest", str(manifest),
                 "--cache", str(cache), "--out", str(a2), "--epochs", "5"]) == 0
    return {"root": root, "manifest": manifest, "cache": cache,
            "a1": a1, "a2": a2}


class TestWorkflow:
    def test_extract_populates_cache(self, workspace):
        entries = read_cache(workspace["cache"])
        features = [k for k in entries if k.endswith("/feature")]
        assert len(features) == 12
        assert all(entries[k].shape == (14,) for k in features)

    def test_train_writes_checkpoint_and_history(self, workspace):
        assert workspace["a1"].is_file()
        history = json.loads(
            (workspace["root"] / "agent1_history.json").read_text())
        assert {"epoch", "train_loss", "train_acc", "val_loss", "val_acc",
                "lr"} == set(history[0])

    def test_predict_writes_scores(self, workspace):
        out = workspace["root"] / "scores.json"
        code = main(["predict", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["a1"]),
                     "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 12
        for row in rows:
            assert 0.0 <= row["agent1"] <= 1.0
            assert 0.0 <= row["agent2"] <= 1.0
            assert row["split"] in ("train", "val", "test")

    def test_fuse_writes_fold_report_and_scores_into_cache(self, workspace):
        report = workspace["root"] / "fold_report.json"
        code = main(["fuse", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["a1"]),
                     "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(report)])
        assert code == 0
        rows = json.loads(report.read_text())
        assert rows[-1]["fold"] == "mean"
        assert len(rows) == 6
        entries = read_cache(workspace["cache"])
        assert sum(k.endswith("/scores") for k in entries) == 12

    def test_evaluate_from_scores(self, workspace):
        scores = workspace["root"] / "scores.json"
        out = workspace["root"] / "metrics.json"
        code = main(["evaluate", "--scores", str(scores), "--split", "all",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "agent1" in report and "agent2" in report
        assert 0.0 <= report["agent1"]["accuracy"] <= 1.0

    def test_report_renders_table_and_roc_csvs(self, workspace, capsys):
        report = workspace["root"] / "fold_report.json"
        table_path = workspace["root"] / "report.txt"
        roc_dir = workspace["root"] / "roc"
        code = main(["report", "--fold-report", str(report),
                     "--out", str(table_path), "--roc-dir", str(roc_dir)])
        assert code == 0
        table = table_path.read_text()
        for column in ("Accuracy (%)", "Precision (%)", "Recall (%)",
                       "F1 Score (%)", "AUC (%)"):
            assert column in table
        assert "Mean" in table
        csvs = sorted(roc_dir.glob("roc_fold*.csv"))
        assert len(csvs) == 5
        assert csvs[0].read_text().splitlines()[0] == "fpr,tpr,threshold"

    def test_report_values_are_percentages_at_two_decimals(self, workspace):
        report = workspace["root"] / "fold_report.json"
        rows = json.loads(report.read_text())
        table = (workspace["root"] / "report.txt").read_text()
        first = rows[0]
        expected = f"{first['accuracy'] * 100.0:.2f}"
        assert expected in table


def rewrite_checkpoint(src, dst, edit):
    """Copy a DAMC checkpoint, passing its records through ``edit``."""
    header, records = ckpt.load_checkpoint(src)
    ckpt.save_checkpoint(dst, edit(records), model_kind=header["model_kind"],
                         input_size=header["input_size"],
                         dtype_bits=header["dtype_bits"])


def predict_error(workspace, agent2, capsys, cache=None):
    code = main(["predict", "--manifest", str(workspace["manifest"]),
                 "--agent1", str(workspace["a1"]), "--agent2", str(agent2),
                 "--cache", str(cache or workspace["cache"]),
                 "--out", str(workspace["root"] / "bad_scores.json")])
    return code, json.loads(capsys.readouterr().err)["error"]


def patched_copy(src, dst, patch):
    """Copy a file, letting ``patch`` edit its bytes in place."""
    blob = bytearray(src.read_bytes())
    patch(blob)
    dst.write_bytes(bytes(blob))
    return dst


# a DAFT file's first entry starts after magic, version and count; a DAMC
# file's metadata payload after magic, version, count, kind, rank and dim
DAFT_FIRST_KEY = 16
DAMC_META = 24


class TestFailureModes:
    # an Agent-2 checkpoint holds mu, sigma and four dense layers: 10 records
    def test_checkpoint_missing_record_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "short.damc"
        rewrite_checkpoint(workspace["a2"], bad, lambda records: records[:-1])
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "short.damc: record 10: expected 10 records" in error["message"]
        assert "found 9" in error["message"]

    def test_checkpoint_extra_record_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "long.damc"
        rewrite_checkpoint(workspace["a2"], bad, lambda records: records + records[-1:])
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2
        assert "long.damc: record 11: expected 10 records" in error["message"]
        assert "found 11" in error["message"]

    def test_checkpoint_wrong_kind_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "kind.damc"
        rewrite_checkpoint(workspace["a2"], bad, lambda records: [
            records[0], (ckpt.KIND_CONV_BIAS, records[1][1])] + records[2:])
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2
        assert (f"kind.damc: record 2: expected kind {ckpt.KIND_STD_SIGMA} shape (14,), "
                f"found kind {ckpt.KIND_CONV_BIAS} shape (14,)") in error["message"]

    def test_unknown_checkpoint_model_kind_exits_2(self, workspace, tmp_path, capsys):
        bad = patched_copy(workspace["a2"], tmp_path / "model.damc",
                           lambda b: struct.pack_into("<d", b, DAMC_META, 7.0))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "model.damc: record 0: unknown model kind 7" in error["message"]

    def test_checkpoint_dtype_bits_not_32_or_64_exits_2(self, workspace, tmp_path,
                                                       capsys):
        bad = patched_copy(workspace["a2"], tmp_path / "bits.damc",
                           lambda b: struct.pack_into("<d", b, DAMC_META + 16, 12.0))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert ("bits.damc: record 0: dtype_bits must be 32 or 64, got 12"
                in error["message"])

    def test_cache_byte_width_not_4_or_8_exits_2(self, workspace, tmp_path, capsys):
        klen = struct.unpack_from("<I", workspace["cache"].read_bytes(), 12)[0]
        at = DAFT_FIRST_KEY + klen
        bad = patched_copy(workspace["cache"], tmp_path / "width.daft",
                           lambda b: struct.pack_into("<I", b, at, 3))
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "width.daft: entry" in error["message"]
        assert f"byte width 3 at byte {at} is not 4 or 8" in error["message"]

    def test_cache_key_not_utf8_exits_2(self, workspace, tmp_path, capsys):
        def patch(blob):
            blob[DAFT_FIRST_KEY] = 0xFF
        bad = patched_copy(workspace["cache"], tmp_path / "key.daft", patch)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"key.daft: key at byte {DAFT_FIRST_KEY} is not valid UTF-8"
                in error["message"])

    def test_cached_feature_of_wrong_width_exits_2(self, workspace, tmp_path, capsys):
        entries = read_cache(workspace["cache"])
        key = sorted(k for k in entries if k.endswith("/feature"))[3]
        entries[key] = entries[key][:13]
        bad = tmp_path / "narrow.daft"
        write_cache(bad, entries)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"narrow.daft: entry {key!r} has shape (13,), expected (14,)"
                in error["message"])

    def test_cache_entry_dims_overflowing_int64_exit_2(self, workspace, tmp_path,
                                                       capsys):
        # (2**32 - 1)**2 elements wrap around in int64; the count must not
        key = b"x/feature"
        at = 12 + 4 + len(key) + 4 + 4 + 8 + 8
        bad = tmp_path / "huge.daft"
        bad.write_bytes(b"".join([
            b"DAFT", struct.pack("<II", 1, 1), struct.pack("<I", len(key)), key,
            struct.pack("<IIII", 8, 2, 2**32 - 1, 2**32 - 1), struct.pack("<Q", at),
            bytes(16)]))
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"huge.daft: payload for 'x/feature' at byte {at} truncated"
                in error["message"])

    def test_checkpoint_record_dims_overflowing_int64_exit_2(self, workspace, tmp_path,
                                                             capsys):
        meta = struct.pack("<III", 0, 1, 3) + struct.pack("<3d", 2.0, 14.0, 64.0)
        record = struct.pack("<IIII", ckpt.KIND_STD_MU, 2, 2**32 - 1, 2**32 - 1)
        bad = tmp_path / "huge.damc"
        bad.write_bytes(b"DAMC" + struct.pack("<II", 1, 2) + meta + record + bytes(16))
        at = 12 + len(meta) + len(record)
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"huge.damc: truncated payload at byte {at}" in error["message"]

    def test_checkpoint_metadata_not_whole_numbers_exits_2(self, workspace, tmp_path,
                                                           capsys):
        bad = patched_copy(workspace["a2"], tmp_path / "inf.damc",
                           lambda b: struct.pack_into("<d", b, DAMC_META, np.inf))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert ("inf.damc: record 0: metadata must be three whole numbers"
                in error["message"])

    def test_checkpoint_agent2_width_not_14_exits_2(self, workspace, tmp_path, capsys):
        # checked before the layers are built, so the width cannot size them
        bad = patched_copy(workspace["a2"], tmp_path / "wide.damc",
                           lambda b: struct.pack_into("<d", b, DAMC_META + 8, 14.0 * 2**40))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"wide.damc: record 0: Agent-2 input width must be 14, got {14 * 2**40}"
                in error["message"])

    def test_checkpoint_agent1_size_out_of_range_exits_2(self, workspace, tmp_path,
                                                         capsys):
        bad = patched_copy(workspace["a1"], tmp_path / "big.damc",
                           lambda b: struct.pack_into("<d", b, DAMC_META + 8, 4096.0))
        code = main(["predict", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(bad), "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(tmp_path / "scores.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert ("big.damc: record 0: Agent-1 input size must be within [11, 224], "
                "got 4096") in error["message"]

    def test_non_finite_cached_feature_exits_2(self, workspace, tmp_path, capsys):
        entries = read_cache(workspace["cache"])
        key = sorted(k for k in entries if k.endswith("/feature"))[2]
        entries[key] = entries[key].copy()
        entries[key][5] = np.nan
        bad = tmp_path / "nan.daft"
        write_cache(bad, entries)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"nan.daft: entry {key!r} holds non-finite values" in error["message"]

    def test_wrongly_typed_manifest_fields_exit_2(self, workspace, tmp_path, capsys):
        records = json.loads(workspace["manifest"].read_text())
        records[0]["frames"] = None
        records[1]["frames"] = records[1]["frames"][0]
        records[2]["audio"] = 5
        records[3]["asr_text"] = ["a.txt"]
        records[4]["ocr_text"] = {"path": "b.txt"}
        bad = workspace["manifest"].parent / "wrong_types.json"
        bad.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "c.daft")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        ids = [r["id"] for r in records]
        assert "5 manifest violation(s)" in error["message"]
        for rid, what in ((ids[0], "frames must be a list of strings"),
                          (ids[1], "frames must be a list of strings"),
                          (ids[2], "audio must be a string"),
                          (ids[3], "asr_text must be a string"),
                          (ids[4], "ocr_text must be a string")):
            assert f"{rid}: {what}" in error["message"]

    def test_non_object_manifest_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[5]")
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "c.daft")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert "record 0: must be a JSON object" in error["message"]

    def test_manifest_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"id": "caf\xe9"}]')
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "c.daft")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert "latin1.json: cannot read manifest" in error["message"]

    @pytest.mark.parametrize("command", ["extract", "fuse"])
    def test_empty_manifest_exits_2(self, workspace, tmp_path, capsys, command):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        argv = {"extract": ["extract", "--manifest", str(empty),
                            "--out", str(tmp_path / "c.daft")],
                "fuse": ["fuse", "--manifest", str(empty),
                         "--agent1", str(workspace["a1"]),
                         "--agent2", str(workspace["a2"]),
                         "--cache", str(workspace["cache"]),
                         "--out", str(tmp_path / "r.json")]}[command]
        code = main(argv)
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert "empty.json: manifest holds no records" in error["message"]

    def test_wrong_config_value_type_exits_1(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": "5"}))
        code = main(["extract", "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "c.daft"), "--config", str(cfg)])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert "config key folds must be an integer, got '5'" in error["message"]

    def test_audio_only_manifest_record_exits_2(self, workspace, tmp_path, capsys):
        records = json.loads(workspace["manifest"].read_text())
        records[0]["frames"] = []
        bad = workspace["manifest"].parent / "audio_only.json"
        bad.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "c.daft")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert f"{records[0]['id']}: needs at least one frame" in error["message"]

    def test_zero_epochs_flag_exits_1(self, workspace, tmp_path, capsys):
        code = main(["train", "agent1", "--manifest", str(workspace["manifest"]),
                     "--out", str(tmp_path / "a1.damc"), "--epochs", "0"])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1
        assert "agent1.epochs must be >= 1" in error["message"]

    def test_fuse_without_checkpoint_exits_1_with_message(self, workspace, capsys):
        code = main(["fuse", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["root"] / "nope.damc"),
                     "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(workspace["root"] / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        payload = json.loads(err)
        assert "missing checkpoint" in payload["error"]["message"]
        assert "nope.damc" in payload["error"]["message"]

    def test_train_agent2_without_cache_exits_1(self, workspace, capsys):
        code = main(["train", "agent2", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["root"] / "missing.daft"),
                     "--out", str(workspace["root"] / "x.damc")])
        err = capsys.readouterr().err
        assert code == 1
        assert "missing feature cache" in json.loads(err)["error"]["message"]

    def test_bad_manifest_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[{\"id\": \"x\", \"label\": 9, \"frames\": []}]")
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "c.daft")])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["exit_code"] == 2

    def test_gen_fixtures_rejects_odd_n(self, tmp_path, capsys):
        code = main(["gen-fixtures", "--out", str(tmp_path / "fx"), "--n", "7",
                     "--strength", "1", "--gap", "1", "--seed", "1"])
        capsys.readouterr()
        assert code == 1

    def test_idempotent_extract(self, workspace):
        # rerunning the command overwrites byte-identical output
        cache2 = workspace["root"] / "cache2.daft"
        main(["extract", "--manifest", str(workspace["manifest"]),
              "--out", str(cache2)])
        first = read_cache(workspace["cache"])
        second = read_cache(cache2)
        for key in (k for k in first if k.endswith("/feature")):
            np.testing.assert_array_equal(first[key], second[key])

    def test_even_frame_policy_and_four_dim_meta(self, workspace):
        report = workspace["root"] / "fold_report_even4.json"
        code = main(["fuse", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["a1"]),
                     "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(report),
                     "--frame-policy", "even", "--m", "3", "--meta-dims", "4"])
        assert code == 0
        rows = json.loads(report.read_text())
        assert rows[-1]["fold"] == "mean"
