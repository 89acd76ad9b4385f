"""Peak memory of ``train agent1`` and ``predict`` is set by the batch, not
by the dataset.

Training reads its frames from disk one batch at a time, and scoring one
``agents.forward_rows`` slice at a time, so five times the videos must not
raise either process's peak resident set. Each run is a fresh interpreter,
and its own peak RSS comes from ``os.wait4`` in a small launcher
interpreter: Linux carries a process's pre-exec peak across ``exec``, so a
command forked straight from the test process would report the test
process's resident set whenever that is the larger.

Loading a checkpoint holds the file's bytes and the built net, and copies
each record once, into the net: the records are read-only views of the
bytes, and ``tracemalloc``'s peak during ``agents.load_agent`` of a 224-px
Agent-1 stays within the two plus ``LOAD_SLACK_MIB``.

A convolution lowers its windows to a matrix one band of at most
``layers.BAND_VALUES`` values at a time, so ``tracemalloc``'s peak during
one 224-px Agent-1 forward stays within one band, the largest input plus
output of a layer, and ``FORWARD_SLACK_MIB``.
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
from deepagent.fixtures import gen_fixtures
from deepagent.manifest import load_manifest
from deepagent.nn import checkpoint as ckpt
from deepagent.nn import layers

SRC = Path(deepagent.__file__).resolve().parents[1]

# allowed peak RSS growth from 40 to 200 videos; holding every frame in
# memory, as training once did, grows it by about 29 MiB, and a scoring
# pass that stacked every frame would grow it by about 39 MB
FLATNESS_MIB = 4.0

# allowed allocation peak of a checkpoint load beyond the file's bytes and
# the net's state: it reads 0.7 MiB, and 4.0 MiB when the float64 init draws
# are duplicated before the load overwrites them
LOAD_SLACK_MIB = 2.0

# allowed allocation peak of a float64 224-px Agent-1 forward beyond one
# im2col band and the largest layer input plus output: it reads -2.6 MiB,
# and +2.9 MiB when conv1 lowers every window into one 8.5 MB matrix
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
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
    pipeline.run_extract(load_manifest(manifest), work / "cache.daft")
    agents.save_agent(agents.build_agent1(1, input_size=64), work / "agent1.damc")
    agents.save_agent(agents.build_agent2(1), work / "agent2.damc")
    return peak_rss_mib(["predict", "--manifest", manifest,
                         "--agent1", work / "agent1.damc",
                         "--agent2", work / "agent2.damc",
                         "--cache", work / "cache.daft",
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_agent1_load_peak_is_file_plus_state(tmp_path, dtype):
    stored = agents.build_agent1(3, input_size=224, dtype=dtype)
    path = tmp_path / "agent1.damc"
    agents.save_agent(stored, path)
    records = ckpt.load_checkpoint(path)[1]
    assert not any(arr.flags.owndata or arr.flags.writeable for _, arr in records)
    del records
    tracemalloc.start()
    try:
        loaded = agents.load_agent(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = loaded.net.state()
    state_bytes = sum(arr.nbytes for _, arr in state)
    over_mib = (peak - path.stat().st_size - state_bytes) / 2 ** 20
    assert over_mib <= LOAD_SLACK_MIB, over_mib
    # every value reaches the float64 net exactly, upcast from 32 bits
    for (_, got), (_, want) in zip(state, stored.net.state()):
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()


def test_agent1_forward_peak_is_one_band_plus_activations():
    model = agents.build_agent1(3, input_size=224)
    x = np.random.default_rng(0).random((1, 224, 224, 3))
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
    over_mib = (peak - (layers.BAND_VALUES + activations) * x.itemsize) / 2 ** 20
    assert over_mib <= FORWARD_SLACK_MIB, over_mib
