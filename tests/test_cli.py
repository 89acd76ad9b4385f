"""Command-line behavior: workflow order, artifacts, exit codes, error JSON."""

import json
import re
import struct

import numpy as np
import pytest

from deepagent import agents, pipeline
from deepagent.audio import write_wav
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
    cache = root / "cache.json"
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


def reads_config(workspace, tmp_path, cfg):
    """argv of a command that reads the config file ``cfg`` before any input."""
    return ["train", "agent2", "--manifest", str(workspace["manifest"]),
            "--cache", str(workspace["cache"]), "--out", str(tmp_path / "a2.damc"),
            "--config", str(cfg)]


# tests that read an artifact of a later stage request the stage's fixture,
# so each runs alone as well as after the workflow tests

@pytest.fixture(scope="module")
def predicted(workspace):
    """Runs predict over the workspace, writing its scores.json."""
    assert main(["predict", "--manifest", str(workspace["manifest"]),
                 "--agent1", str(workspace["a1"]), "--agent2", str(workspace["a2"]),
                 "--cache", str(workspace["cache"]),
                 "--out", str(workspace["root"] / "scores.json")]) == 0


@pytest.fixture(scope="module")
def fused(workspace):
    """Runs fuse over the workspace, writing its fold_report.json."""
    assert main(["fuse", "--manifest", str(workspace["manifest"]),
                 "--agent1", str(workspace["a1"]), "--agent2", str(workspace["a2"]),
                 "--cache", str(workspace["cache"]),
                 "--out", str(workspace["root"] / "fold_report.json")]) == 0


@pytest.fixture(scope="module")
def reported(workspace, fused):
    """Runs report over the fold report, writing report.txt."""
    assert main(["report", "--fold-report", str(workspace["root"] / "fold_report.json"),
                 "--out", str(workspace["root"] / "report.txt")]) == 0


class TestWorkflow:
    def test_extract_populates_cache(self, workspace, tmp_path):
        # its own cache: fuse adds score entries to the workspace's
        cache = tmp_path / "cache.json"
        assert main(["extract", "--manifest", str(workspace["manifest"]),
                     "--out", str(cache)]) == 0
        entries = read_cache(cache)
        assert all(k.endswith("/feature") for k in entries)
        assert len(entries) == 12
        assert all(entries[k].shape == (14,) for k in entries)

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

    @pytest.mark.usefixtures("predicted")
    def test_reversed_manifest_keeps_every_split(self, workspace, tmp_path):
        records = json.loads(workspace["manifest"].read_text())
        reversed_manifest = workspace["manifest"].parent / "reversed.json"
        reversed_manifest.write_text(json.dumps(records[::-1]))
        out = tmp_path / "scores.json"
        assert main(["predict", "--manifest", str(reversed_manifest),
                     "--agent1", str(workspace["a1"]), "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]), "--out", str(out)]) == 0
        rows = json.loads((workspace["root"] / "scores.json").read_text())
        reversed_rows = json.loads(out.read_text())
        assert [r["id"] for r in reversed_rows] == [r["id"] for r in rows][::-1]
        splits = {r["id"]: r["split"] for r in records}
        assert {r["id"]: r["split"] for r in rows} == splits
        assert {r["id"]: r["split"] for r in reversed_rows} == splits

    @pytest.mark.usefixtures("predicted")
    def test_evaluate_from_scores(self, workspace):
        scores = workspace["root"] / "scores.json"
        out = workspace["root"] / "metrics.json"
        code = main(["evaluate", "--scores", str(scores), "--split", "all",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "agent1" in report and "agent2" in report
        assert 0.0 <= report["agent1"]["accuracy"] <= 1.0

    def test_evaluate_one_class_split_reports_auc_null(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([
            {"id": f"v{i}", "label": 1, "split": "test", "agent1": a1, "agent2": a2}
            for i, (a1, a2) in enumerate([(0.7, 0.2), (0.4, 0.9)])]))
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--scores", str(scores), "--split", "test",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for agent in ("agent1", "agent2"):
            assert report[agent]["auc"] is None
            assert "auc" in report[agent]["undefined"]

    @pytest.mark.usefixtures("fused")
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

    @pytest.mark.usefixtures("reported")
    def test_report_values_are_percentages_at_two_decimals(self, workspace):
        report = workspace["root"] / "fold_report.json"
        rows = json.loads(report.read_text())
        table = (workspace["root"] / "report.txt").read_text()
        first = rows[0]
        expected = f"{first['accuracy'] * 100.0:.2f}"
        assert expected in table


def rewrite_checkpoint(src, dst, edit):
    """Copy a DAMC checkpoint at its stored width, passing its records, as
    loaded into the net, through ``edit``."""
    model = agents.load_agent(src)
    bits = struct.unpack_from("<d", src.read_bytes(), DAMC_META + 16)[0]
    ckpt.save_checkpoint(dst, edit(model.net.state()), model_kind=model.kind,
                         input_size=model.input_size, dtype_bits=int(bits))


def predict_error(workspace, agent2, capsys, cache=None, agent1=None):
    code = main(["predict", "--manifest", str(workspace["manifest"]),
                 "--agent1", str(agent1 or workspace["a1"]), "--agent2", str(agent2),
                 "--cache", str(cache or workspace["cache"]),
                 "--out", str(workspace["root"] / "bad_scores.json")])
    return code, json.loads(capsys.readouterr().err)["error"]


def patched_copy(src, dst, patch):
    """Copy a file, letting ``patch`` edit its bytes in place."""
    blob = bytearray(src.read_bytes())
    patch(blob)
    dst.write_bytes(bytes(blob))
    return dst


def cached_value_as(workspace, dst, literal):
    """Write the workspace's cache to ``dst`` with value 5 of one feature
    spelt as the JSON text ``literal``; return that feature's key."""
    entries = read_cache(workspace["cache"])
    key = sorted(k for k in entries if k.endswith("/feature"))[2]
    entries[key][5] = 0.123456789  # a value no other feature holds
    write_cache(dst, entries)
    text = dst.read_text(encoding="utf-8")
    assert text.count("0.123456789") == 1
    dst.write_text(text.replace("0.123456789", literal), encoding="utf-8")
    return key


# a DAMC file's metadata payload starts after magic, version, count, kind,
# rank and dim
DAMC_META = 24


def mean_only_damc(path, dims):
    """Write an Agent-2 DAMC file whose record count says 11 but which holds
    only the metadata and a record 1 (the input mean) of ``dims`` over 16
    payload bytes; return the path and the byte its payload starts at."""
    meta = struct.pack("<III", 0, 1, 3) + struct.pack("<3d", 2.0, 14.0, 64.0)
    record = struct.pack(f"<{2 + len(dims)}I", ckpt.KIND_STD_MU, len(dims), *dims)
    path.write_bytes(b"DAMC" + struct.pack("<II", 1, 11) + meta + record + bytes(16))
    return path, 12 + len(meta) + len(record)


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

    def test_checkpoint_record_count_0_exits_2(self, workspace, tmp_path, capsys):
        bad = patched_copy(workspace["a2"], tmp_path / "none.damc",
                           lambda b: struct.pack_into("<I", b, 8, 0))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "none.damc: record count 0: no metadata record" in error["message"]

    def test_checkpoint_wrong_kind_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "kind.damc"
        rewrite_checkpoint(workspace["a2"], bad, lambda records: [
            records[0], (ckpt.KIND_CONV_BIAS, records[1][1])] + records[2:])
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2
        assert (f"kind.damc: record 2: expected kind {ckpt.KIND_STD_SIGMA} shape (14,), "
                f"found kind {ckpt.KIND_CONV_BIAS} shape (14,)") in error["message"]

    def test_checkpoint_non_finite_weight_exits_2(self, workspace, tmp_path, capsys):
        # record 3 is d1.weights, after the standardization mean and sigma
        def poison(records):
            kind, weights = records[2]
            weights = weights.copy()
            weights[0, 0] = np.nan
            return records[:2] + [(kind, weights)] + records[3:]

        bad = tmp_path / "nan.damc"
        rewrite_checkpoint(workspace["a2"], bad, poison)
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"nan.damc: record 3: non-finite value in kind {ckpt.KIND_DENSE_W}"
                in error["message"])

    @pytest.mark.parametrize("command", ["predict", "fuse"])
    @pytest.mark.parametrize("flag", ["--agent1", "--agent2"])
    def test_checkpoint_of_the_other_agent_exits_1_naming_it(
            self, workspace, capsys, monkeypatch, command, flag):
        # one flag names the other agent's checkpoint; the check runs
        # before any frame is read
        def no_frames(*args):
            raise AssertionError("frames read before the checkpoint kind check")
        monkeypatch.setattr(pipeline, "load_sample_frames", no_frames)
        paths = {"--agent1": workspace["a1"], "--agent2": workspace["a2"]}
        want, got = (1, 2) if flag == "--agent1" else (2, 1)
        paths[flag] = wrong = paths[f"--agent{got}"]
        code = main([command, "--manifest", str(workspace["manifest"]),
                     "--agent1", str(paths["--agent1"]), "--agent2", str(paths["--agent2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(workspace["root"] / "bad_out.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert (f"{flag} {wrong}: holds an Agent-{got} checkpoint, expected "
                f"Agent-{want}") in error["message"]

    def test_checkpoint_negative_running_variance_exits_2(self, workspace, tmp_path,
                                                           capsys):
        # a negative variance would make every Agent-1 score NaN
        records = agents.load_agent(workspace["a1"]).net.state()
        at = next(i for i, (kind, _) in enumerate(records) if kind == ckpt.KIND_BN_VAR)

        def poison(records):
            var = records[at][1].copy()
            var[0] = -5.0
            return records[:at] + [(ckpt.KIND_BN_VAR, var)] + records[at + 1:]

        bad = tmp_path / "var.damc"
        rewrite_checkpoint(workspace["a1"], bad, poison)
        code, error = predict_error(workspace, workspace["a2"], capsys, agent1=bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"var.damc: record {at + 1}: negative variance in kind "
                f"{ckpt.KIND_BN_VAR}") in error["message"]

    def test_checkpoint_non_positive_input_sigma_exits_2(self, workspace, tmp_path,
                                                         capsys):
        # record 2 is the Agent-2 standardization sigma, the divisor of its input
        def poison(records):
            sigma = records[1][1].copy()
            sigma[3] = 0.0
            return records[:1] + [(ckpt.KIND_STD_SIGMA, sigma)] + records[2:]

        bad = tmp_path / "sigma.damc"
        rewrite_checkpoint(workspace["a2"], bad, poison)
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"sigma.damc: record 2: non-positive sigma in kind {ckpt.KIND_STD_SIGMA}"
                in error["message"])

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

    # the overflow itself warns; the test is that no NaN score is written
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["predict", "fuse"])
    def test_finite_weights_that_overflow_exit_3_writing_nothing(
            self, workspace, tmp_path, capsys, command):
        # every Agent-2 dense weight is +-1e300: finite, so the load passes
        model, rng = agents.build_agent2(1), np.random.default_rng(0)
        for kind, weights in model.net.state():
            if kind == ckpt.KIND_DENSE_W:
                weights[...] = np.where(rng.random(weights.shape) < 0.5, 1e300, -1e300)
        huge = tmp_path / "huge.damc"
        agents.save_agent(model, huge)
        cache = tmp_path / "cache.json"
        cache.write_bytes(workspace["cache"].read_bytes())
        out = tmp_path / "out.json"
        code = main([command, "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["a1"]), "--agent2", str(huge),
                     "--cache", str(cache), "--out", str(out)])
        error = json.loads(capsys.readouterr().err)["error"]
        first = json.loads(workspace["manifest"].read_text())[0]["id"]
        assert code == 3 and error["kind"] == "FloatingPointError"
        assert f"agent2 scores sample {first!r} as nan" in error["message"]
        assert not out.exists()
        assert cache.read_bytes() == workspace["cache"].read_bytes()

    def test_cache_key_not_utf8_exits_2(self, workspace, tmp_path, capsys):
        # the first key's first character becomes a byte no UTF-8 text holds
        def patch(blob):
            blob[blob.index(b'"')] = 0xFF
        bad = patched_copy(workspace["cache"], tmp_path / "key.json", patch)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "key.json: cannot read cache:" in error["message"]
        assert "can't decode byte 0xff" in error["message"]

    def test_cache_key_repeated_exits_2(self, workspace, tmp_path, capsys):
        # the second entry's id 'b/feature' becomes a second 'a/feature'
        write_cache(tmp_path / "ab.json", {"a/feature": np.zeros(14),
                                           "b/feature": np.ones(14)})

        def patch(blob):
            blob[blob.index(b'"b/feature"') + 1] = ord("a")
        bad = patched_copy(tmp_path / "ab.json", tmp_path / "twice.json", patch)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "twice.json: repeats key 'a/feature'" in error["message"]

    def test_checkpoint_trailing_bytes_exit_2(self, workspace, tmp_path, capsys):
        # the file is read in one pass, so when record 1 (the input mean) is
        # also a value short, its shape is named before the trailing bytes
        short = tmp_path / "short_mu.damc"
        rewrite_checkpoint(workspace["a2"], short, lambda records: [
            (records[0][0], records[0][1][:-1])] + records[1:])
        for src, fault in [
                (workspace["a2"], "22 bytes of trailing data at byte {end}"),
                (short, f"record 1: expected kind {ckpt.KIND_STD_MU} shape (14,), "
                        f"found kind {ckpt.KIND_STD_MU} shape (13,)")]:
            end = src.stat().st_size
            bad = patched_copy(src, tmp_path / "long.damc",
                               lambda blob: blob.extend(bytes(22)))
            code, error = predict_error(workspace, bad, capsys)
            assert code == 2 and error["kind"] == "IngestionError"
            assert f"long.damc: {fault.format(end=end)}" in error["message"]

    @pytest.mark.parametrize("entries", [{}, {"a/feature": np.zeros(14)}],
                             ids=["no-entries", "one-entry"])
    def test_cache_trailing_bytes_exit_2(self, workspace, tmp_path, capsys, entries):
        write_cache(tmp_path / "c.json", entries)
        end = (tmp_path / "c.json").stat().st_size
        bad = patched_copy(tmp_path / "c.json", tmp_path / "long.json",
                           lambda blob: blob.extend(b"{}"))
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "long.json: cannot read cache: Extra data: line " in error["message"]
        assert f"(char {end})" in error["message"]

    def test_cache_not_an_object_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "rows.json"
        bad.write_text('[{"id": "fake_0000", "feature": []}]\n', encoding="utf-8")
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert "rows.json: cache must be a JSON object" in error["message"]

    def test_cached_feature_of_wrong_width_exits_2(self, workspace, tmp_path, capsys):
        entries = read_cache(workspace["cache"])
        key = sorted(k for k in entries if k.endswith("/feature"))[3]
        entries[key] = entries[key][:13]
        bad = tmp_path / "narrow.json"
        write_cache(bad, entries)
        code, error = predict_error(workspace, workspace["a2"], capsys, bad)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"narrow.json: entry {key!r} has shape (13,), expected (14,)"
                in error["message"])

    def test_checkpoint_record_dims_overflowing_int64_exit_2(self, workspace, tmp_path,
                                                             capsys):
        # dims are checked against the net before any payload byte is read
        bad, _ = mean_only_damc(tmp_path / "huge.damc", (2**32 - 1, 2**32 - 1))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"huge.damc: record 1: expected kind {ckpt.KIND_STD_MU} shape (14,), "
                f"found kind {ckpt.KIND_STD_MU} shape (4294967295, 4294967295)"
                in error["message"])

    def test_checkpoint_payload_cut_short_exit_2(self, workspace, tmp_path, capsys):
        bad, at = mean_only_damc(tmp_path / "cut.damc", (14,))
        code, error = predict_error(workspace, bad, capsys)
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"cut.damc: truncated payload at byte {at}" in error["message"]

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

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "1e400", "1" + "0" * 400, '"0.5"', "true", "[0.5]",
    ], ids=["nan", "infinity", "float-overflow", "int-overflow", "string", "boolean",
            "nested-list"])
    def test_non_finite_cached_feature_exits_2(self, workspace, tmp_path, capsys,
                                               literal):
        # an integer float() cannot convert raises OverflowError, which must
        # be an ingestion fault (exit 2), not a numeric one (exit 3)
        key = cached_value_as(workspace, tmp_path / "nan.json", literal)
        code, error = predict_error(workspace, workspace["a2"], capsys,
                                    tmp_path / "nan.json")
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"nan.json: entry {key!r} must be a list of finite float64 numbers"
                in error["message"])

    def test_wrongly_typed_manifest_fields_exit_2(self, workspace, tmp_path, capsys):
        records = json.loads(workspace["manifest"].read_text())
        # legal JSON, but ids reach every JSON artifact, and RFC 8259 (8.2)
        # calls a lone surrogate non-interoperable
        records.append({**records[0], "id": "\ud800x"})
        records[0]["frames"] = None
        records[1]["frames"] = records[1]["frames"][0]
        records[2]["audio"] = 5
        records[3]["asr_text"] = ["a.txt"]
        records[4]["ocr_text"] = {"path": "b.txt"}
        records[5]["label"] = True
        records[6]["label"] = 0.0
        # an id must be a non-empty string: each of these once became a
        # cache key such as "None/feature"
        records[7]["id"] = None
        records[8]["id"] = 5
        records[9]["id"] = True
        records[10]["id"] = ""
        # a split is train, val or test, and every record needs one
        del records[11]["split"]
        records[2]["split"] = "unassigned"
        records[3]["split"] = "holdout"
        bad = workspace["manifest"].parent / "wrong_types.json"
        bad.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        ids = [r["id"] for r in records]
        assert "15 manifest violation(s)" in error["message"]
        for rid, what in ((ids[0], "frames must be a list of strings"),
                          (ids[1], "frames must be a list of strings"),
                          (ids[2], "audio must be a string"),
                          (ids[3], "asr_text must be a string"),
                          (ids[4], "ocr_text must be a string"),
                          (ids[5], "label must be 0 or 1, got True"),
                          (ids[6], "label must be 0 or 1, got 0.0")):
            assert f"{rid}: {what}" in error["message"]
        for i, rid in ((7, None), (8, 5), (9, True), (10, "")):
            assert (f"record {i}: id must be a non-empty string, got {rid!r}"
                    in error["message"])
        assert (f"record {len(records) - 1}: id must be encodable as UTF-8, got '\\ud800x'"
                in error["message"])
        for i, split in ((11, None), (2, "unassigned"), (3, "holdout")):
            assert (f"{ids[i]}: split must be 'train', 'val' or 'test', got {split!r}"
                    in error["message"])

    def test_non_object_manifest_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[5]")
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert "record 0: must be a JSON object" in error["message"]

    def test_uncheckable_frame_path_is_one_violation(self, workspace, tmp_path, capsys):
        # a name past NAME_MAX makes Path.is_file raise ENAMETOOLONG rather
        # than answer False; it must be reported beside the other violations
        records = json.loads(workspace["manifest"].read_text())
        records[0]["frames"] = ["f" * 300 + ".pgm"]
        records[1]["id"] = records[0]["id"]
        bad = workspace["manifest"].parent / "long_name.json"
        bad.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert "long_name.json: 2 manifest violation(s)" in error["message"]
        assert re.search(rf"{records[0]['id']}: cannot check frame file "
                         rf"\S*/{'f' * 300}\.pgm: File name too long", error["message"])
        assert f"duplicate id {records[0]['id']}" in error["message"]

    def test_manifest_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"id": "caf\xe9"}]')
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert "latin1.json: cannot read manifest" in error["message"]

    @pytest.mark.parametrize("command", ["extract", "fuse"])
    def test_empty_manifest_exits_2(self, workspace, tmp_path, capsys, command):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        argv = {"extract": ["extract", "--manifest", str(empty),
                            "--out", str(tmp_path / "cache.json")],
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
        code = main(reads_config(workspace, tmp_path, cfg))
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert "config key folds must be an integer, got '5'" in error["message"]

    @pytest.mark.parametrize("body, what", [
        (b'{"folds": "5"}', "config key folds must be an integer, got '5'"),
        (b'{"sed": 1}', "unknown config key sed"),
        (b'{"agent2": {"epochs": 0}}', "agent2.epochs must be >= 1, got 0"),
        (b'{"seed": 1\xff}', "can't decode byte 0xff"),
        pytest.param(b'{"agent2": {"learning_rate": 1' + b"0" * 400 + b'}}',
                     "config key agent2.learning_rate is too large for a float",
                     id="int-too-large-for-float"),
        pytest.param(b'{"seed": ' + b"1" * 5000 + b'}', "Exceeds the limit",
                     id="int-too-long-to-parse"),
    ])
    def test_config_file_fault_exits_1_naming_file(self, workspace, tmp_path, capsys,
                                                   body, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(body)
        code = main(reads_config(workspace, tmp_path, cfg))
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert f"config {cfg}: " in error["message"] and what in error["message"]

    @pytest.mark.parametrize("flags, body, what", [
        (["--seed", "-1"], None, "seed must be >= 0, got -1"),
        ([], {"agent2": {"batch_size": 0}}, "agent2.batch_size must be >= 1, got 0"),
        ([], {"agent2": {"epochs": 0}}, "agent2.epochs must be >= 1, got 0"),
        ([], {"agent2": {"learning_rate": -1.0}},
         "agent2.learning_rate must be finite and >= 0, got -1.0"),
    ])
    def test_out_of_range_config_value_exits_1_naming_key(self, workspace, tmp_path,
                                                          capsys, flags, body, what):
        if body is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(body))
            flags = flags + ["--config", str(cfg)]
        code = main(["train", "agent2", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(tmp_path / "a2.damc"), *flags])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert what in error["message"]

    @pytest.mark.parametrize("key, value", [
        ("agent1.beta1", 0.9), ("agent1.beta2", 0.999), ("agent1.epsilon", 1e-7),
        ("agent2.beta1", 0.9), ("agent2.beta2", 0.999), ("agent2.epsilon", 1e-7),
        ("frame_interval", 5), ("meta_dims", 2), ("mel_filters", 13),
        ("train_fraction", 0.7),
        # the validation schedule is the agents module's constants
        ("agent2.early_stop_patience", 10), ("agent2.lr_patience", 5),
        ("agent2.lr_factor", 0.5),
    ])
    def test_removed_config_key_exits_1_naming_it(self, workspace, tmp_path, capsys,
                                                   key, value):
        agent, _, name = key.rpartition(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({agent: {name: value}} if agent else {name: value}))
        code = main(reads_config(workspace, tmp_path, cfg))
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "ConfigurationError"
        assert error["message"] == f"config {cfg}: unknown config key {key}"

    @pytest.mark.parametrize("args, what", [
        (["extract", "--manifest", "m.json"],
         "deepagent extract: the following arguments are required: --out"),
        (["train", "agent2", "--manifest", "m.json", "--cache", "cache.json",
          "--out", "a.damc", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["train", "agent3", "--manifest", "m.json", "--out", "a.damc"],
         "argument agent: invalid choice: 'agent3'"),
        (["extract", "--manifest", "m.json", "--out", "cache.json", "--meta-dims", "4"],
         "unrecognized arguments: --meta-dims 4"),
        (["extract", "--manifest", "m.json", "--out", "cache.json", "--mel-filters", "13"],
         "unrecognized arguments: --mel-filters 13"),
    ])
    def test_argument_fault_exits_1_with_json_error(self, capsys, args, what):
        code = main(args)
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "UsageError"
        assert what in error["message"]

    @pytest.mark.parametrize("args, flag", [
        (["extract", "--manifest", "m.json", "--out", "cache.json", "--seed", "1"],
         "--seed 1"),
        (["extract", "--manifest", "m.json", "--out", "cache.json", "--config", "c.json"],
         "--config c.json"),
        (["predict", "--manifest", "m.json", "--agent1", "a1.damc",
          "--agent2", "a2.damc", "--cache", "cache.json", "--out", "s.json",
          "--desk-scale"], "--desk-scale"),
        (["fuse", "--manifest", "m.json", "--agent1", "a1.damc",
          "--agent2", "a2.damc", "--cache", "cache.json", "--out", "r.json",
          "--desk-scale"], "--desk-scale"),
        (["train", "agent1", "--manifest", "m.json", "--out", "a1.damc",
          "--cache", "x"], "--cache x"),
        (["train", "agent2", "--manifest", "m.json", "--cache", "cache.json",
          "--out", "a2.damc", "--desk-scale"], "--desk-scale"),
        (["train", "agent2", "--manifest", "m.json", "--cache", "cache.json",
          "--out", "a2.damc", "--frame-policy", "even"], "--frame-policy even"),
        # predict draws no random numbers: splits come from the manifest
        (["predict", "--manifest", "m.json", "--agent1", "a1.damc",
          "--agent2", "a2.damc", "--cache", "cache.json", "--out", "s.json",
          "--seed", "1"], "--seed 1"),
        # the history always goes beside the checkpoint
        (["train", "agent1", "--manifest", "m.json", "--out", "a1.damc",
          "--history", "h.json"], "--history h.json"),
        (["train", "agent2", "--manifest", "m.json", "--cache", "cache.json",
          "--out", "a2.damc", "--history", "h.json"], "--history h.json"),
    ])
    def test_flag_the_command_does_not_read_exits_1(self, capsys, args, flag):
        code = main(args)
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "UsageError"
        assert f"unrecognized arguments: {flag}" in error["message"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["extract", "--help"])
        assert exit_info.value.code == 0
        assert "--manifest" in capsys.readouterr().out

    def test_gen_fixtures_negative_seed_exits_1(self, tmp_path, capsys):
        code = main(["gen-fixtures", "--out", str(tmp_path / "fx"), "--n", "6",
                     "--strength", "1", "--gap", "1", "--seed", "-1"])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "UsageError"
        assert "seed must be >= 0, got -1" in error["message"]

    @pytest.mark.parametrize("edit, what", [
        (lambda rows: "not json", "cannot read rows"),
        (lambda rows: {"rows": rows}, "must be a JSON array of rows"),
        (lambda rows: [{k: v for k, v in r.items() if k != "split"} for r in rows],
         "row 0: unknown split None"),
        (lambda rows: [{**r, "agent1": "0.5"} for r in rows],
         "row 0: agent1 must be a finite score in [0, 1], got '0.5'"),
        (lambda rows: [{**r, "label": 2} for r in rows],
         "row 0: label must be 0 or 1, got 2"),
        (lambda rows: [{**r, "label": True} for r in rows],
         "row 0: label must be 0 or 1, got True"),
        (lambda rows: [{**r, "label": 1.0} for r in rows],
         "row 0: label must be 0 or 1, got 1.0"),
        (lambda rows: [], "scores file holds no rows"),
        (lambda rows: [{**r, "split": "unassigned"} for r in rows],
         "row 0: unknown split 'unassigned'"),
    ])
    @pytest.mark.usefixtures("predicted")
    def test_faulty_scores_file_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                  edit, what):
        rows = json.loads((workspace["root"] / "scores.json").read_text())
        bad = tmp_path / "bad_scores.json"
        edited = edit(rows)
        bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        code = main(["evaluate", "--scores", str(bad), "--split", "all",
                     "--out", str(tmp_path / "m.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"{bad}: " in error["message"] and what in error["message"]

    def test_scores_file_without_the_split_exits_1(self, tmp_path, capsys):
        scores = tmp_path / "train_only.json"
        scores.write_text(json.dumps([{"id": "v", "label": 1, "split": "train",
                                       "agent1": 0.5, "agent2": 0.5}]))
        code = main(["evaluate", "--scores", str(scores), "--split", "test",
                     "--out", str(tmp_path / "m.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["kind"] == "UsageError"
        assert f"no samples in split 'test' within {scores}" in error["message"]

    @pytest.mark.parametrize("edit, what", [
        (lambda rows: "not json", "cannot read rows"),
        (lambda rows: {"rows": rows}, "must be a JSON array of rows"),
        (lambda rows: [{k: v for k, v in r.items() if k != "fold"} for r in rows],
         "row 0: fold must be a whole number or 'mean', got None"),
        (lambda rows: [{**r, "auc": "1.0"} for r in rows],
         "row 0: auc must be a fraction in [0, 1], got '1.0'"),
        (lambda rows: [{**r, "f1": 10 ** 400} for r in rows],
         "row 0: f1 must be a fraction in [0, 1], got 1000"),
        (lambda rows: [{**r, "roc": [[0.0, 1.0]]} for r in rows],
         "row 0: roc point [0.0, 1.0] is not a (fpr, tpr, threshold) triple"),
    ])
    @pytest.mark.usefixtures("fused")
    def test_faulty_fold_report_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                  edit, what):
        rows = json.loads((workspace["root"] / "fold_report.json").read_text())
        bad = tmp_path / "bad_report.json"
        edited = edit(rows)
        bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        code = main(["report", "--fold-report", str(bad)])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"{bad}: " in error["message"] and what in error["message"]

    def test_empty_fold_report_exits_2_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]\n")
        code = main(["report", "--fold-report", str(empty),
                     "--out", str(tmp_path / "table.txt"),
                     "--roc-dir", str(tmp_path / "roc")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"{empty}: fold report holds no rows" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json"]

    @pytest.mark.parametrize("body", ["deep", "repeated-key"])
    @pytest.mark.parametrize("flag, code, kind", [
        ("--manifest", 2, "IngestionError"),
        ("--config", 1, "ConfigurationError"),
        ("--scores", 2, "IngestionError"),
        ("--fold-report", 2, "IngestionError"),
    ])
    def test_deeply_nested_json_exits_naming_the_file(self, tmp_path, capsys,
                                                      flag, code, kind, body):
        # json.loads raises RecursionError, not ValueError, past its depth
        # limit, and keeps the last of a repeated key's values; each body
        # below is valid but for its repeated key (the manifest's record
        # would read as fake)
        key, text = {
            "--manifest": ("label", '[{"id": "v0", "label": 0, "frames": ["f.pgm"],'
                                    ' "split": "train", "label": 1}]'),
            "--config": ("seed", '{"seed": 1, "seed": 2}'),
            "--scores": ("label", '[{"id": "v0", "label": 0, "split": "test",'
                                  ' "agent1": 0.5, "agent2": 0.5, "label": 1}]'),
            "--fold-report": ("f1", '[{"fold": "mean", "accuracy": 0.5, "precision": 0.5,'
                                    ' "recall": 0.5, "f1": 0.5, "auc": 0.5, "f1": 1.0}]'),
        }[flag] if body == "repeated-key" else (None, "[" * 100_000 + "]" * 100_000)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        (tmp_path / "f.pgm").write_bytes(b"")
        out = str(tmp_path / "out.json")
        argv = {"--manifest": ["extract", "--manifest", str(bad), "--out", out],
                "--config": ["train", "agent1", "--manifest", str(bad),
                             "--config", str(bad), "--out", out],
                "--scores": ["evaluate", "--scores", str(bad), "--split", "all",
                             "--out", out],
                "--fold-report": ["report", "--fold-report", str(bad)]}[flag]
        assert main(argv) == code
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == kind and str(bad) in error["message"]
        if key is not None:
            assert f"{bad}: repeats key '{key}'" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "f.pgm"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_failed_replace_keeps_previous_artifact(self, workspace, tmp_path,
                                                    monkeypatch, capsys, command):
        scores = tmp_path / "input_scores.json"
        scores.write_text(json.dumps([
            {"id": f"v{i}", "label": i % 2, "split": "test", "agent1": 0.25 * i,
             "agent2": 0.5} for i in range(4)]))
        out = tmp_path / ("scores.json" if command == "predict" else "metrics.json")
        out.write_bytes(b"previous run\n")
        argv = {"predict": ["predict", "--manifest", str(workspace["manifest"]),
                            "--agent1", str(workspace["a1"]),
                            "--agent2", str(workspace["a2"]),
                            "--cache", str(workspace["cache"])],
                "evaluate": ["evaluate", "--scores", str(scores),
                             "--split", "all"]}[command]

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        code = main(argv + ["--out", str(out)])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and "disk full" in error["message"]
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["input_scores.json", out.name])

    def test_audio_only_manifest_record_exits_2(self, workspace, tmp_path, capsys):
        records = json.loads(workspace["manifest"].read_text())
        records[0]["frames"] = []
        bad = workspace["manifest"].parent / "audio_only.json"
        bad.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert f"{records[0]['id']}: needs at least one frame" in error["message"]

    @pytest.mark.parametrize("rate", [400_000, 16_000_001])
    def test_wav_sample_rate_above_384khz_exits_2_at_byte_24(self, workspace, tmp_path,
                                                              capsys, rate):
        # the header's rate sizes the resampler's weight table; 16,000,001 Hz
        # would ask for a 3.81 GiB one
        fx = workspace["manifest"].parent
        fast = fx / f"fast_{rate}.wav"
        write_wav(fast, np.zeros(4000), rate)
        records = json.loads(workspace["manifest"].read_text())
        records[0]["audio"] = fast.name
        manifest = fx / f"fast_{rate}.json"
        manifest.write_text(json.dumps(records))
        code = main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "cache.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert (f"{fast}: sample rate {rate} Hz is above 384000 Hz at byte 24"
                in error["message"])

    def test_truncated_val_frame_exits_2_mid_training_keeping_checkpoint(
            self, workspace, tmp_path, capsys):
        # frames are read per batch, so a val frame is first read at the end
        # of epoch 1, after that epoch's training steps
        fx = workspace["manifest"].parent
        records = json.loads(workspace["manifest"].read_text())
        for record in records:
            record["split"] = "train"
        records[0]["split"] = "val"
        blob = (fx / records[0]["frames"][0]).read_bytes()
        truncated = fx / "truncated_val.ppm"
        truncated.write_bytes(blob[:len(blob) // 2])
        records[0]["frames"][0] = truncated.name
        manifest = fx / "truncated_val.json"
        manifest.write_text(json.dumps(records))
        out = tmp_path / "agent1.damc"
        out.write_bytes(workspace["a1"].read_bytes())
        code = main(["train", "agent1", "--manifest", str(manifest),
                     "--out", str(out), "--desk-scale", "--epochs", "1"])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["kind"] == "IngestionError"
        assert f"{truncated}: expected " in error["message"]
        assert out.read_bytes() == workspace["a1"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["agent1.damc"]

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
                     "--cache", str(workspace["root"] / "missing.json"),
                     "--out", str(workspace["root"] / "x.damc")])
        err = capsys.readouterr().err
        assert code == 1
        assert "missing feature cache" in json.loads(err)["error"]["message"]

    def test_train_agent2_without_cache_flag_exits_1_as_usage_error(
            self, workspace, capsys):
        code = main(["train", "agent2", "--manifest", str(workspace["manifest"]),
                     "--out", str(workspace["root"] / "x.damc")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 1 and error["exit_code"] == 1
        assert error["kind"] == "UsageError"
        assert "--cache" in error["message"]

    def test_bad_manifest_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[{\"id\": \"x\", \"label\": 9, \"frames\": []}]")
        code = main(["extract", "--manifest", str(bad),
                     "--out", str(tmp_path / "cache.json")])
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
        cache2 = workspace["root"] / "cache2.json"
        main(["extract", "--manifest", str(workspace["manifest"]),
              "--out", str(cache2)])
        first = read_cache(workspace["cache"])
        second = read_cache(cache2)
        for key in (k for k in first if k.endswith("/feature")):
            np.testing.assert_array_equal(first[key], second[key])

    def test_even_frame_policy(self, workspace):
        report = workspace["root"] / "fold_report_even.json"
        code = main(["fuse", "--manifest", str(workspace["manifest"]),
                     "--agent1", str(workspace["a1"]),
                     "--agent2", str(workspace["a2"]),
                     "--cache", str(workspace["cache"]),
                     "--out", str(report),
                     "--frame-policy", "even", "--m", "3"])
        assert code == 0
        rows = json.loads(report.read_text())
        assert rows[-1]["fold"] == "mean"
