"""Fuzzed input files through the CLI: a fault never crashes a command.

Each example copies one valid input (DAMC checkpoint, DAFT cache, WAV
track, PPM frame, ASR sidecar text or manifest), truncates it or replaces one byte with a
different value, and runs ``cli.main`` in-process on it. A fault can leave
the file well-formed (a flipped pixel, weight or sample), and then the
command may succeed. Otherwise it must exit 1 (usage or configuration) or
2 (ingestion) with an error message naming the faulty file; exit 3 is for
numeric failures, never for a bad input file.

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
    """Six tiny samples, their feature cache and two seeded checkpoints
    (Agent-1 at a 16-pixel geometry, so frames need no resize)."""
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
                        "ocr_text": f"{sid}.ocr.txt"})
    (root / "manifest.json").write_text(json.dumps(records), encoding="utf-8")
    assert run(["extract", "--manifest", str(root / "manifest.json"),
                "--out", str(root / "cache.daft")])[0] == 0
    agents.save_agent(agents.build_agent1(0, input_size=16), root / "agent1.damc")
    agents.save_agent(agents.build_agent2(0), root / "agent2.damc")
    return root


def run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def predict(root, agent2="agent2.damc", cache="cache.daft"):
    return ["predict", "--manifest", str(root / "manifest.json"),
            "--agent1", str(root / "agent1.damc"), "--agent2", str(root / agent2),
            "--cache", str(root / cache), "--out", str(root / "scores.json")]


def extract(root, manifest="manifest.json"):
    return ["extract", "--manifest", str(root / manifest),
            "--out", str(root / "out.daft")]


# input kind -> (valid file, name the fault is written to, command reading it)
CASES = {
    "damc": ("agent2.damc", "fuzzed.damc", lambda r: predict(r, agent2="fuzzed.damc")),
    "daft": ("cache.daft", "fuzzed.daft", lambda r: predict(r, cache="fuzzed.daft")),
    "wav": ("s0.wav", "s0.wav", extract),
    "sidecar": ("s0.asr.txt", "s0.asr.txt", extract),
    "ppm": ("s0.ppm", "s0.ppm", predict),
    "manifest": ("manifest.json", "fuzzed.json",
                 lambda r: extract(r, manifest="fuzzed.json")),
}


@st.composite
def faults(draw, size):
    """A truncated length, or an offset (in the first 64 bytes, where the
    headers are, or anywhere) and a nonzero XOR mask for that byte."""
    if draw(st.booleans()):
        return ("truncate", draw(st.integers(0, size - 1)))
    offset = draw(st.one_of(st.integers(0, min(size, 64) - 1),
                            st.integers(0, size - 1)))
    return ("flip", offset, draw(st.integers(1, 255)))


def damaged(blob, fault):
    if fault[0] == "truncate":
        return blob[:fault[1]]
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
        assert target in json.loads(err)["error"]["message"], err
