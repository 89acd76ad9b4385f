"""Peak memory of ``train agent1`` is set by the batch, not by the dataset.

Training reads its frames from disk one batch at a time, so five times the
videos must not raise the training process's peak resident set. Each run
is a fresh interpreter, and its own peak RSS comes from ``os.wait4``.
"""

import os
import subprocess
import sys
from pathlib import Path

import deepagent
from deepagent.config import CONFIG_ENV_VAR
from deepagent.fixtures import gen_fixtures

SRC = Path(deepagent.__file__).resolve().parents[1]

# allowed peak RSS growth from 40 to 200 videos; holding every frame in
# memory, as training once did, grows it by about 29 MiB
FLATNESS_MIB = 4.0


def train_peak_rss_mib(manifest, work: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CONFIG_ENV_VAR, None)  # a config file would change the run
    with open(work / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "deepagent", "train", "agent1",
             "--manifest", str(manifest), "--out", str(work / "agent1.damc"),
             "--desk-scale", "--epochs", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert proc.returncode == 0, err.read().decode()
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def test_train_agent1_peak_rss_does_not_grow_with_the_dataset(tmp_path):
    peaks = {}
    for n in (40, 200):
        manifest = gen_fixtures(tmp_path / f"fx{n}", n, 1.0, 1.0, seed=1)
        peaks[n] = train_peak_rss_mib(manifest, manifest.parent)
    assert peaks[200] - peaks[40] <= FLATNESS_MIB, peaks
