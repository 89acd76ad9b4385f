"""Fuzzed input files through the CLI: a fault never crashes a command.

Each example copies one valid input (DAMC checkpoint, JSON feature cache,
WAV track, PPM frame, ASR sidecar text, manifest, config file, scores file
or fold report), truncates it, appends bytes to it or replaces one byte
with a different value, and runs ``cli.main`` in-process on it. A fault
can leave the file well-formed (a flipped pixel, weight, sample, feature or
config digit, or text appended to a sidecar), and then the command may
succeed.
Otherwise it must exit 1 (usage or configuration) or 2 (ingestion) with
an error message naming the faulty file; exit 3 is for numeric failures,
never for a bad input file.

The examples are derandomized, so every run replays the same faults.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepagent import agents
from deepagent.audio import write_wav
from deepagent.cli import main
from deepagent.vision import save_frame


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Six tiny samples, their feature cache, a config file, two seeded
    checkpoints (Agent-1 at a 16-pixel geometry, so frames need no resize)
    and the scores file and 3-fold report those checkpoints give."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    records = []
    for i in range(6):
        sid = f"s{i}"
        save_frame(root / f"{sid}.ppm", rng.integers(0, 256, size=(16, 16, 3)))
        write_wav(root / f"{sid}.wav", 0.3 * np.sin(0.05 * (i + 1) * np.arange(2000)),
                  16000)
        (root / f"{sid}.asr.txt").write_text(f"word{i} shared", encoding="utf-8")
        (root / f"{sid}.ocr.txt").write_text("shared", encoding="utf-8")
        records.append({"id": sid, "label": i % 2, "frames": [f"{sid}.ppm"],
                        "audio": f"{sid}.wav", "asr_text": f"{sid}.asr.txt",
                        "ocr_text": f"{sid}.ocr.txt", "split": "train"})
    (root / "manifest.json").write_text(json.dumps(records), encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps({"seed": 1, "folds": 5, "agent2": {"epochs": 5}}), encoding="utf-8")
    assert run(["extract", "--manifest", str(root / "manifest.json"),
                "--out", str(root / "cache.json")])[0] == 0
    agents.save_agent(agents.build_agent1(0, input_size=16), root / "agent1.damc")
    agents.save_agent(agents.build_agent2(0), root / "agent2.damc")
    assert run(predict(root, out="valid_scores.json"))[0] == 0
    (root / "fuse_config.json").write_text(
        json.dumps({"folds": 3, "forest_trees": 5}), encoding="utf-8")
    (root / "fuse_cache.json").write_bytes((root / "cache.json").read_bytes())
    fuse = predict(root, cache="fuse_cache.json", out="valid_report.json")
    assert run(["fuse", *fuse[1:], "--config", str(root / "fuse_config.json")])[0] == 0
    return root


def run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def predict(root, agent2="agent2.damc", cache="cache.json", out="scores.json"):
    return ["predict", "--manifest", str(root / "manifest.json"),
            "--agent1", str(root / "agent1.damc"), "--agent2", str(root / agent2),
            "--cache", str(root / cache), "--out", str(root / out)]


def extract(root, manifest="manifest.json"):
    return ["extract", "--manifest", str(root / manifest),
            "--out", str(root / "out_cache.json")]


# input kind -> (valid file, name the fault is written to, command reading it)
CASES = {
    "damc": ("agent2.damc", "fuzzed.damc", lambda r: predict(r, agent2="fuzzed.damc")),
    "cache": ("cache.json", "fuzzed_cache.json",
              lambda r: predict(r, cache="fuzzed_cache.json")),
    "wav": ("s0.wav", "s0.wav", extract),
    "sidecar": ("s0.asr.txt", "s0.asr.txt", extract),
    "ppm": ("s0.ppm", "s0.ppm", predict),
    "manifest": ("manifest.json", "fuzzed.json",
                 lambda r: extract(r, manifest="fuzzed.json")),
    "config": ("config.json", "fuzzed_config.json",
               lambda r: predict(r) + ["--config", str(r / "fuzzed_config.json")]),
    "scores": ("valid_scores.json", "fuzzed_scores.json",
               lambda r: ["evaluate", "--scores", str(r / "fuzzed_scores.json"),
                          "--split", "all", "--out", str(r / "metrics.json")]),
    "fold_report": ("valid_report.json", "fuzzed_report.json",
                    lambda r: ["report", "--fold-report", str(r / "fuzzed_report.json"),
                               "--out", str(r / "table.txt"), "--roc-dir", str(r / "roc")]),
}


@st.composite
def faults(draw, size):
    """A truncated length, bytes to append, or an offset (in the first 64
    bytes, where the headers are, or anywhere) and a nonzero XOR mask for
    that byte."""
    kind = draw(st.sampled_from(["truncate", "append", "flip"]))
    if kind == "truncate":
        return ("truncate", draw(st.integers(0, size - 1)))
    if kind == "append":
        return ("append", draw(st.binary(min_size=1, max_size=32)))
    offset = draw(st.one_of(st.integers(0, min(size, 64) - 1),
                            st.integers(0, size - 1)))
    return ("flip", offset, draw(st.integers(1, 255)))


def damaged(blob, fault):
    if fault[0] == "truncate":
        return blob[:fault[1]]
    if fault[0] == "append":
        return blob + fault[1]
    _, offset, mask = fault
    out = bytearray(blob)
    out[offset] ^= mask
    return bytes(out)


# a flipped weight byte can make a logit huge; the sigmoid then saturates
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_input_exits_1_or_2_naming_it(inputs, kind, data):
    source, target, command = CASES[kind]
    blob = (inputs / source).read_bytes()
    fault = data.draw(faults(len(blob)), label="fault")
    (inputs / target).write_bytes(damaged(blob, fault))
    try:
        code, err = run(command(inputs))
    finally:
        if source == target:  # the shared input is restored for the next example
            (inputs / target).write_bytes(blob)
    assert code in (0, 1, 2), err
    if code:
        message = json.loads(err)["error"]["message"]
        # an argument fault ("deepagent: ..." or "deepagent <command>: ...")
        # names the target without reading the file
        assert not message.startswith("deepagent"), err
        assert target in message, err
