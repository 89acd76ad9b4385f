"""Peak memory of ``train agent1`` and ``predict`` is set by the batch, not
by the dataset.

Training reads its frames from disk one batch at a time, and scoring one
``agents.forward_rows`` slice at a time, so five times the videos must not
raise either process's peak resident set. Each run is a fresh interpreter,
and its own peak RSS comes from ``os.wait4`` in a small launcher
interpreter: Linux carries a process's pre-exec peak across ``exec``, so a
command forked straight from the test process would report the test
process's resident set whenever that is the larger. Each command runs with
glibc's mmap threshold fixed (``MALLOC_MMAP_THRESHOLD_``), so every array
of 128 KiB or more is mapped on allocation and unmapped when freed. glibc's
default raises that threshold after the first such array is freed, and
later arrays then come from the heap, whose freed pages need not return:
``train agent1`` on 40 videos then peaked at 82.3 or at 86.0 MiB as the
fixture's path length changed, against 86.7 MiB on 200 videos, and 80.3-80.8
against 81.3 MiB with the threshold fixed. Other allocators ignore it.

Saving a checkpoint writes each record from the net's own arrays
(``files.write_bytes`` takes the chunks in turn), so ``tracemalloc``'s peak
during ``agents.save_agent`` of a 224-px Agent-1 stays under
``SAVE_PEAK_MIB``, whatever the net's size.

Loading a checkpoint streams it into the built net:
``nn.checkpoint.load_checkpoint`` reads each record from the open file and
copies it once, into the net, before it reads the next, so
``tracemalloc``'s peak during ``agents.load_agent`` of a 224-px Agent-1
stays within the net's state, the largest record's bytes and
``LOAD_SLACK_MIB``. It reads a payload as a read-only view of its own
bytes, not a copy (``test_agents.py`` checks each record it copies in).

Scoring reads its frames one ``agents.forward_rows`` slice at a time, and
``agents.logits`` drops each slice before it reads the next, so
``tracemalloc``'s peak while scoring several frames at 224 px stays within
``SLICE_SLACK_MIB`` of the peak while scoring one.

A convolution lowers its windows to a matrix one band of at most
``layers.BAND_BYTES`` at a time, so ``tracemalloc``'s peak during one
224-px Agent-1 forward, in either dtype, stays within one band, the largest
input plus output of a layer, and ``FORWARD_SLACK_MIB``.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import deepagent
from deepagent import agents, pipeline
from deepagent.config import PipelineConfig
from deepagent.fixtures import gen_fixtures
from deepagent.manifest import SampleRecord, load_manifest
from deepagent.nn import layers
from deepagent.vision import save_frame

SRC = Path(deepagent.__file__).resolve().parents[1]

# allowed peak RSS growth from 40 to 200 videos; holding every frame in
# memory, as training once did, grows it by about 29 MiB, and a scoring
# pass that stacked every frame would grow it by about 39 MB
FLATNESS_MIB = 4.0

# allowed allocation peak of a checkpoint load beyond the net's state and
# its largest record's bytes: it reads 0.6 MiB, 4.0 MiB when the float64
# init draws are duplicated before the load overwrites them, and 12.0 MiB
# (float64) or 6.3 MiB (float32) when the load holds the whole file
LOAD_SLACK_MIB = 2.0

# allowed allocation peak of saving a float64 224-px Agent-1 (15.8 MiB of
# state): each record goes from the net to the file as it stands, and a
# save reads 0.01 MiB; copying each record and joining the copies reads
# 31.7 MiB
SAVE_PEAK_MIB = 1.0

# allowed allocation peak of scoring four 224-px frames beyond scoring one:
# it reads 0.002 MiB, and 1.15 MiB, one frame's float64 slice, when
# ``agents.logits`` holds each slice while it reads the next
SLICE_SLACK_MIB = 0.25

# allowed allocation peak of a 224-px Agent-1 forward beyond one im2col
# band and the largest layer input plus output: it reads -0.9 MiB in
# float64 and -0.8 MiB in float32, +0.4 MiB in float64 with bands of 2^19
# values (4 MiB), and +5.8 (float64) or +2.4 MiB (float32) when conv1
# lowers every window into one matrix
FORWARD_SLACK_MIB = 1.0


# runs its arguments as a command and prints the exit code and the peak
# RSS in KiB (ru_maxrss on Linux) of that command alone
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(args, work: Path) -> float:
    """Peak RSS of ``deepagent ARGS`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), MALLOC_MMAP_THRESHOLD_="131072")
    with open(work / "stderr.txt", "w+b") as err:
        out = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "deepagent",
             *map(str, args)], env=env, stdout=subprocess.PIPE, stderr=err,
            check=True).stdout
        code, maxrss_kib = map(int, out.split())
        err.seek(0)
        assert code == 0, err.read().decode()
    return maxrss_kib / 1024.0


def train_peak_rss_mib(manifest, work: Path) -> float:
    return peak_rss_mib(["train", "agent1", "--manifest", manifest,
                         "--out", work / "agent1.damc", "--desk-scale",
                         "--epochs", "1"], work)


def predict_peak_rss_mib(manifest, work: Path) -> float:
    """Peak RSS of ``predict`` with seeded desk-scale checkpoints."""
    pipeline.run_extract(load_manifest(manifest), work / "cache.json")
    agents.save_agent(agents.build_agent1(1, input_size=64), work / "agent1.damc")
    agents.save_agent(agents.build_agent2(1), work / "agent2.damc")
    return peak_rss_mib(["predict", "--manifest", manifest,
                         "--agent1", work / "agent1.damc",
                         "--agent2", work / "agent2.damc",
                         "--cache", work / "cache.json",
                         "--out", work / "scores.json"], work)


def test_train_agent1_peak_rss_does_not_grow_with_the_dataset(tmp_path):
    peaks = {}
    for n in (40, 200):
        manifest = gen_fixtures(tmp_path / f"fx{n}", n, 1.0, 1.0, seed=1)
        peaks[n] = train_peak_rss_mib(manifest, manifest.parent)
    assert peaks[200] - peaks[40] <= FLATNESS_MIB, peaks


def test_predict_peak_rss_does_not_grow_with_the_dataset(tmp_path):
    peaks = {}
    for n in (40, 200):
        manifest = gen_fixtures(tmp_path / f"fx{n}", n, 1.0, 1.0, seed=1)
        peaks[n] = predict_peak_rss_mib(manifest, manifest.parent)
    assert peaks[200] - peaks[40] <= FLATNESS_MIB, peaks


def test_agent1_save_copies_no_record(tmp_path):
    model = agents.build_agent1(3, input_size=224)
    tracemalloc.start()
    try:
        agents.save_agent(model, tmp_path / "agent1.damc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < SAVE_PEAK_MIB, peak / 2 ** 20


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_agent1_load_peak_is_state_plus_one_record(tmp_path, dtype):
    stored = agents.build_agent1(3, input_size=224, dtype=dtype)
    path = tmp_path / "agent1.damc"
    agents.save_agent(stored, path)
    record_bytes = max(arr.nbytes for _, arr in stored.net.state())
    tracemalloc.start()
    try:
        loaded = agents.load_agent(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = loaded.net.state()
    state_bytes = sum(arr.nbytes for _, arr in state)
    over_mib = (peak - state_bytes - record_bytes) / 2 ** 20
    assert over_mib <= LOAD_SLACK_MIB, over_mib
    # every value reaches the float64 net exactly, upcast from 32 bits
    for (_, got), (_, want) in zip(state, stored.net.state()):
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()


def test_agent1_scoring_holds_one_slice(tmp_path):
    model = agents.build_agent1(3, input_size=224)
    assert agents.forward_rows(model) == 1
    # 480 x 360 source frames, so that reading and resizing a slice, not
    # forwarding it, sets the peak, and a slice held through the next read
    # shows in it
    rng = np.random.default_rng(0)
    paths = [tmp_path / f"f{i}.ppm" for i in range(4)]
    for path in paths:
        save_frame(path, rng.integers(0, 256, (360, 480, 3)).astype(float))
    cfg = PipelineConfig(frame_policy="even", m=len(paths))
    peaks = []
    for count in (1, len(paths)):
        video = SampleRecord("v", 0, paths[:count], split="test")
        frames = pipeline.FrameSet([video], cfg, model.input_size)
        tracemalloc.start()
        try:
            agents.logits(model, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    over_mib = (peaks[1] - peaks[0]) / 2 ** 20
    assert over_mib <= SLICE_SLACK_MIB, over_mib


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_agent1_forward_peak_is_one_band_plus_activations(dtype):
    model = agents.build_agent1(3, input_size=224, dtype=dtype)
    x = np.random.default_rng(0).random((1, 224, 224, 3)).astype(dtype)
    model.net.forward(x)
    shapes = [x.shape[1:]]
    for layer in model.net.layers:
        shapes.append(layer.out_shape(shapes[-1]))
    activations = max(math.prod(a) + math.prod(b) for a, b in zip(shapes, shapes[1:]))
    tracemalloc.start()
    try:
        model.net.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    over_mib = (peak - layers.BAND_BYTES - activations * x.itemsize) / 2 ** 20
    assert over_mib <= FORWARD_SLACK_MIB, over_mib
