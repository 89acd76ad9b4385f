"""Self-tests of the benchmark: a tiny run of every workload, untraced and
traced, and one deliberately corrupted output per check, which must fail it.

    python3 -m pytest bench/test_bench.py -q      (about two minutes)
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def bench(work: Path, workload: str, trace: int = 0, seed: int = 7,
          cwd: Path = run.ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--work-dir", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Work directory holding one tiny untraced run of every workload."""
    work = tmp_path_factory.mktemp("bench")
    results = {name: result_of(bench(work, name)) for name in run.WORKLOADS}
    return work, results


def chain_dir(work, workload) -> Path:
    return work / "work" / workload / "chain-1"


def fixture_dir(work, workload) -> Path:
    return work / "work" / workload / "setup-1"


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_untraced_run_is_correct(tiny, workload):
    _, results = tiny
    result = results[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, busy, idle", [
    ("desk-e2e", ["nn.layers.Conv2D.backward", "nn.optim.Adam.step", "vision.augment",
                  "forest.train_forest"], []),
    ("score-full", ["nn.layers.Conv2D.forward", "pipeline.load_sample_frames"],
     ["nn.layers.Conv2D.backward", "nn.optim.Adam.step", "vision.augment",
      "forest.train_forest"]),
    ("fuse-noise", ["forest.train_forest", "audio.embed_audio"],
     ["nn.layers.Conv2D.backward", "vision.augment"]),
])
def test_tiny_traced_run_reports_layers(tmp_path, workload, busy, idle):
    proc = bench(tmp_path, workload, trace=1)
    result = result_of(proc)
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for name in busy:
        assert metrics[f"{name}.calls"] > 0 and metrics[f"{name}.s"] > 0, name
    for name in idle:
        assert metrics[f"{name}.calls"] == 0, name
    if workload != "fuse-noise":
        assert metrics[tracer.GMAC] > 0
    if workload != "score-full":
        assert metrics[tracer.FOREST_NODES] > 0


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / ".bench_out", "score-full", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_rerun_with_same_seed_must_match_stored_hashes(tmp_path):
    assert result_of(bench(tmp_path, "score-full"))["correct"]
    assert result_of(bench(tmp_path, "score-full"))["correct"]
    (stored,) = (tmp_path / "hashes").rglob("score-full-tiny-seed7.json")
    hashes = json.loads(stored.read_text())
    hashes["scores.json"] = "0" * 64
    stored.write_text(json.dumps(hashes))
    result = result_of(bench(tmp_path, "score-full"))
    assert not result["correct"] and result["failed"] == 1


# one corrupted output per check ------------------------------------------------

def copy_of(path: Path, tmp_path: Path) -> Path:
    target = tmp_path / path.name
    shutil.copy(path, target)
    return target


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_stage_check_fails_on_exit_code_and_missing_artifact(tiny, tmp_path):
    work, _ = tiny
    rep = chain_dir(work, "desk-e2e")
    assert checks.check_stage("predict", 0, rep, ["scores.json"]) == []
    assert checks.check_stage("predict", 3, rep, ["scores.json"])
    assert checks.check_stage("predict", 0, tmp_path, ["scores.json"])
    (tmp_path / "scores.json").write_bytes(b"")
    assert checks.check_stage("predict", 0, tmp_path, ["scores.json"])


def test_identical_check_fails_on_one_flipped_byte(tiny, tmp_path):
    work, _ = tiny
    ckpt = copy_of(chain_dir(work, "desk-e2e") / "agent1.damc", tmp_path)
    before = {"agent1.damc": checks.sha256(ckpt)}
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 1
    ckpt.write_bytes(bytes(blob))
    errors = checks.check_identical(before, {"agent1.damc": checks.sha256(ckpt)},
                                    {"agent1.damc": "train_agent1"}, "two chains")
    assert [stage for stage, _ in errors] == ["train_agent1"]


def test_setup_digest_changes_with_one_fixture_file(tiny, tmp_path):
    work, _ = tiny
    fx = shutil.copytree(fixture_dir(work, "fuse-noise") / "fx", tmp_path / "fx")
    before = checks.tree_digest(fx)
    frame = next((fx / "frames").iterdir())
    frame.write_bytes(frame.read_bytes()[:-1] + b"\x00")
    assert checks.tree_digest(fx) != before


def test_f1_gate_fails_below_threshold(tiny, tmp_path):
    work, _ = tiny
    report = copy_of(chain_dir(work, "desk-e2e") / "fold_report.json", tmp_path)
    assert checks.check_separable_f1(report) == []
    edit_json(report, lambda rows: rows[-1].update(f1=0.9))
    assert checks.check_separable_f1(report)


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[0].update(accuracy=rows[0]["accuracy"] + 0.01),  # mean no longer the mean
    lambda rows: rows[1].update(auc=1.5),
    lambda rows: rows[2].update(recall=float("nan")),
    lambda rows: rows[3].pop("precision"),
    lambda rows: rows.pop(),                                            # mean row gone
])
def test_fold_report_check_fails_on_corruption(tiny, tmp_path, corrupt):
    work, _ = tiny
    report = copy_of(chain_dir(work, "fuse-noise") / "fold_report.json", tmp_path)
    assert checks.check_fold_report(report) == []
    edit_json(report, corrupt)
    assert checks.check_fold_report(report)


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[0].update(agent1=float("nan")),
    lambda rows: rows[1].update(agent2=1.5),
    lambda rows: rows.pop(),
    lambda rows: rows.reverse(),
])
def test_scores_check_fails_on_corruption(tiny, tmp_path, corrupt):
    work, _ = tiny
    scores = copy_of(chain_dir(work, "score-full") / "scores.json", tmp_path)
    manifest = fixture_dir(work, "score-full") / "fx" / "manifest.json"
    assert checks.check_scores(scores, manifest) == []
    edit_json(scores, corrupt)
    assert checks.check_scores(scores, manifest)


def test_reference_check_fails_on_a_wrong_score(tiny, tmp_path):
    work, _ = tiny
    fx = fixture_dir(work, "score-full")
    manifest, ckpt = fx / "fx" / "manifest.json", fx / "agent1.damc"
    scores = copy_of(chain_dir(work, "score-full") / "scores.json", tmp_path)
    assert checks.check_reference_scores(scores, manifest, ckpt, "even", m=6) == []
    edit_json(scores, lambda rows: rows[0].update(agent1=rows[0]["agent1"] + 1e-6))
    assert checks.check_reference_scores(scores, manifest, ckpt, "even", m=6)


def test_reference_check_fails_on_other_weights(tiny, tmp_path):
    work, _ = tiny
    fx = fixture_dir(work, "score-full")
    scores = chain_dir(work, "score-full") / "scores.json"
    ckpt = copy_of(fx / "agent1.damc", tmp_path)
    blob = bytearray(ckpt.read_bytes())
    # the last payload is the output layer's bias: shift its class-1 entry
    bias = memoryview(blob)[-8:].cast("d")
    bias[0] += 0.5
    ckpt.write_bytes(bytes(blob))
    assert checks.check_reference_scores(scores, fx / "fx" / "manifest.json", ckpt,
                                         "even", m=6)


def test_frame_indices_follow_the_frame_policies():
    assert checks.frame_indices(6, "even", m=6) == list(range(6))
    assert checks.frame_indices(6, "interval5") == [0, 5]
    assert checks.frame_indices(11, "even", m=3) == [0, 5, 10]


def test_layer_metrics_count_recursion_once(tmp_path):
    spans = tmp_path / "s.spans.json"
    spans.write_text(json.dumps({
        "spans": [["agents.score_video", 0.0, 1.0, -1],
                  ["agents.score_video", 0.2, 0.7, 0],
                  ["nn.layers.Conv2D.forward", 0.3, 0.4, 1]],
        "counters": {tracer.GMAC: 2.5}, "missing": ["forest.gone"]}))
    metrics, missing = tracer.layer_metrics([spans])
    assert metrics["agents.score_video.calls"] == 2
    assert math.isclose(metrics["agents.score_video.s"], 1.0)
    assert math.isclose(metrics["nn.layers.Conv2D.forward.s"], 0.1)
    assert metrics[tracer.GMAC] == 2.5 and missing == ["forest.gone"]
