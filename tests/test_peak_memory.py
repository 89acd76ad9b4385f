"""Peak memory of ``train agent1`` and ``predict`` is set by the batch, not
by the dataset.

Training reads its frames from disk one batch at a time, and scoring one
``agents.forward_rows`` slice at a time, so five times the videos must not
raise either process's peak resident set. Each run is a fresh interpreter,
and its own peak RSS comes from ``os.wait4`` in a small launcher
interpreter: Linux carries a process's pre-exec peak across ``exec``, so a
command forked straight from the test process would report the test
process's resident set whenever that is the larger.
"""

import os
import subprocess
import sys
from pathlib import Path

import deepagent
from deepagent import agents, pipeline
from deepagent.fixtures import gen_fixtures
from deepagent.manifest import load_manifest

SRC = Path(deepagent.__file__).resolve().parents[1]

# allowed peak RSS growth from 40 to 200 videos; holding every frame in
# memory, as training once did, grows it by about 29 MiB, and a scoring
# pass that stacked every frame would grow it by about 39 MB
FLATNESS_MIB = 4.0


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
