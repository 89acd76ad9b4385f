"""Closed-loop benchmark of the deepagent CLI: one client, one stage at a time.

    python3 bench/run.py --workload desk-e2e --seed 1 --seconds 22 --trace 0

Run from a checkout that holds ``src/deepagent``; the program under test is
always the checkout's own ``src`` (put first on PYTHONPATH). Set-up writes a
``gen-fixtures`` dataset seeded by ``--seed`` (and, where a workload needs
one, seeded untrained checkpoints); it runs three times and ``setup_s`` is
the median. The timed part runs the workload's chain of CLI stages, each in
its own subprocess, again and again in fresh directories until ``--seconds``
would be exceeded (at least once), and reports medians over those chains.

Every chain's outputs are checked (see ``checks.py``) and hashed: repeated
chains, and repeated runs with the same seed on the same code, must write
byte-identical artifacts. ``--trace 1`` runs the chain once untraced and
once under ``tracer.py``, checks that both wrote identical bytes, and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with
the machine, code version, stage times, quality figures and hashes is
written under ``.bench_out/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402

STAGES = ("extract", "train_agent1", "train_agent2", "predict", "fuse")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every stage is killed once the run has used this much

# metric name -> unit; BENCHMARK.json declares the same lists
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    **{name: "count" if name.endswith((".calls", ".nodes"))
       else "GMAC-computed" if name.endswith(".gmac") else "s"
       for name in tracer.metric_names()},
    **{f"{stage}_s": "s" for stage in STAGES},
    "trace.overhead_s": "s",
}

# fixture sizes; "tiny" only serves the benchmark's own tests
SIZES = {
    "full": {"desk_n": 200, "desk_epochs": 4, "score_n": 40, "noise_n": 400},
    "tiny": {"desk_n": 200, "desk_epochs": 1, "score_n": 6, "noise_n": 40},
}


@dataclass
class Stage:
    name: str            # one of STAGES
    args: list[str]      # deepagent CLI arguments
    outputs: list[str]   # files the stage must write into the chain directory


@dataclass
class Workload:
    name: str
    setup: Callable      # (fixture dir, seed, size) -> list of python argv
    stages: Callable     # (fixture dir, chain dir, size) -> list[Stage]
    check: Callable      # (fixture dir, chain dir, size) -> list of failures
    quality: Callable    # (fixture dir, chain dir, quality dir, runner) -> dict


def _cli(*args) -> list[str]:
    return ["-m", "deepagent", *map(str, args)]


def _gen(fx: Path, n: int, separable: bool, seed: int) -> list[str]:
    level = "1" if separable else "0"
    return _cli("gen-fixtures", "--out", fx / "fx", "--n", n,
                "--strength", level, "--gap", level, "--seed", seed)


def _seed_ckpts(fx: Path, seed: int, agent1_size: int) -> list[str]:
    return [str(BENCH / "seed_checkpoints.py"), str(fx), str(seed), str(agent1_size)]


def _manifest(fx: Path) -> Path:
    return fx / "fx" / "manifest.json"


# desk-e2e: the README walkthrough at desk scale --------------------------------

def desk_setup(fx, seed, size):
    return [_gen(fx, size["desk_n"], True, seed)]


def desk_stages(fx, rep, size):
    m = _manifest(fx)
    models = ("--agent1", rep / "agent1.damc", "--agent2", rep / "agent2.damc",
              "--cache", rep / "cache.daft")
    return [
        Stage("extract", ["extract", "--manifest", m, "--out", rep / "cache.daft"],
              ["cache.daft"]),
        Stage("train_agent1", ["train", "agent1", "--manifest", m,
                               "--out", rep / "agent1.damc", "--desk-scale",
                               "--epochs", size["desk_epochs"]],
              ["agent1.damc", "agent1_history.json"]),
        Stage("train_agent2", ["train", "agent2", "--manifest", m,
                               "--cache", rep / "cache.daft",
                               "--out", rep / "agent2.damc"],
              ["agent2.damc", "agent2_history.json"]),
        Stage("predict", ["predict", "--manifest", m, *models,
                          "--out", rep / "scores.json"], ["scores.json"]),
        Stage("fuse", ["fuse", "--manifest", m, *models,
                       "--out", rep / "fold_report.json"],
              ["fold_report.json", "cache.daft"]),
    ]


def desk_check(fx, rep, size):
    m = _manifest(fx)
    return (checks.check_scores(rep / "scores.json", m)
            + checks.check_reference_scores(rep / "scores.json", m,
                                            rep / "agent1.damc", "interval5")
            + checks.check_fold_report(rep / "fold_report.json")
            + checks.check_separable_f1(rep / "fold_report.json"))


def desk_quality(fx, rep, qdir, runner):
    test = runner(_cli("evaluate", "--scores", rep / "scores.json", "--split", "test",
                       "--out", qdir / "eval_test.json"), qdir / "eval_test.json")
    history = json.loads((rep / "agent1_history.json").read_text())
    a1 = test["agent1"]
    return {
        "agent1_test_acc": a1["accuracy"], "agent1_test_auc": a1["auc"],
        "agent2_test_acc": test["agent2"]["accuracy"],
        "agent2_test_auc": test["agent2"]["auc"],
        "agent1_val_acc_by_epoch": [row["val_acc"] for row in history],
        "fused_mean_f1": checks.mean_row(rep / "fold_report.json")["f1"],
        # known defect, recorded and not gated: a well-ranked Agent-1 (test
        # AUC ~1) whose thresholded accuracy sits at 0.5 while val_acc
        # collapses to 0.5 after a few epochs
        "defect_agent1_threshold": a1["accuracy"] <= 0.5 and (a1["auc"] or 0) >= 0.9,
    }


# score-full: forward-only scoring at the full 224 geometry -------------------------

def score_setup(fx, seed, size):
    return [_gen(fx, size["score_n"], True, seed),
            _cli("extract", "--manifest", _manifest(fx), "--out", fx / "cache.daft"),
            _seed_ckpts(fx, seed, 224)]


SCORE_POLICY = ("--frame-policy", "even", "--m", "6")


def score_stages(fx, rep, size):
    return [Stage("predict", ["predict", "--manifest", _manifest(fx),
                              "--agent1", fx / "agent1.damc",
                              "--agent2", fx / "agent2.damc",
                              "--cache", fx / "cache.daft",
                              "--out", rep / "scores.json", *SCORE_POLICY],
                  ["scores.json"])]


def score_check(fx, rep, size):
    m = _manifest(fx)
    return (checks.check_scores(rep / "scores.json", m)
            + checks.check_reference_scores(rep / "scores.json", m,
                                            fx / "agent1.damc", "even", m=6))


def score_quality(fx, rep, qdir, runner):
    rows = json.loads((rep / "scores.json").read_text())
    return {"records_scored": len(rows)}


# fuse-noise: deep forest trees on label-independent data ----------------------------

def noise_setup(fx, seed, size):
    return [_gen(fx, size["noise_n"], False, seed), _seed_ckpts(fx, seed, 64)]


def noise_stages(fx, rep, size):
    m = _manifest(fx)
    return [
        Stage("extract", ["extract", "--manifest", m, "--out", rep / "cache.daft"],
              ["cache.daft"]),
        Stage("train_agent2", ["train", "agent2", "--manifest", m,
                               "--cache", rep / "cache.daft",
                               "--out", rep / "agent2.damc"],
              ["agent2.damc", "agent2_history.json"]),
        Stage("fuse", ["fuse", "--manifest", m, "--agent1", fx / "agent1.damc",
                       "--agent2", rep / "agent2.damc", "--cache", rep / "cache.daft",
                       "--out", rep / "fold_report.json"],
              ["fold_report.json", "cache.daft"]),
    ]


def noise_check(fx, rep, size):
    return checks.check_fold_report(rep / "fold_report.json")


def noise_quality(fx, rep, qdir, runner):
    runner(_cli("predict", "--manifest", _manifest(fx), "--agent1", fx / "agent1.damc",
                "--agent2", rep / "agent2.damc", "--cache", rep / "cache.daft",
                "--out", qdir / "scores.json"), qdir / "scores.json")
    out = {}
    for split in ("train", "val", "test"):
        ev = runner(_cli("evaluate", "--scores", qdir / "scores.json", "--split", split,
                         "--out", qdir / f"eval_{split}.json"), qdir / f"eval_{split}.json")
        out[f"agent2_{split}_acc"] = ev["agent2"]["accuracy"]
        out[f"agent2_{split}_auc"] = ev["agent2"]["auc"]
    out["agent1_test_acc"], out["agent1_test_auc"] = ev["agent1"]["accuracy"], ev["agent1"]["auc"]
    fused = checks.mean_row(rep / "fold_report.json")
    out["fused_mean_acc"], out["fused_mean_f1"] = fused["accuracy"], fused["f1"]
    # known defect, recorded and not gated: fuse cross-validates over the
    # samples Agent-2 trained on, so fused accuracy on label-independent data
    # can sit above chance (0.5)
    out["fused_acc_above_chance"] = fused["accuracy"] - 0.5
    return out


WORKLOADS = {
    "desk-e2e": Workload("desk-e2e", desk_setup, desk_stages, desk_check, desk_quality),
    "score-full": Workload("score-full", score_setup, score_stages, score_check,
                           score_quality),
    "fuse-noise": Workload("fuse-noise", noise_setup, noise_stages, noise_check,
                           noise_quality),
}


# processes ---------------------------------------------------------------------

@dataclass
class Proc:
    returncode: int
    seconds: float
    rss_mib: float


class Runner:
    """Runs python subprocesses one at a time against the checkout's src."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("DEEPAGENT_CONFIG", None)  # a config file would change the run
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list[str], log: Path) -> Proc:
        """Wall time and this child's own peak RSS (from wait4, not RUSAGE_CHILDREN)."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, seconds, usage.ru_maxrss / 1024.0)


def machine(runner: Runner, work: Path) -> dict:
    """Interpreter, numpy, BLAS and its thread count as the stages see them."""
    probe = work / "probe.json"
    code = (
        "import ctypes, json, os, platform, sys\n"
        "import numpy, deepagent\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "except (TypeError, KeyError):\n"
        "    blas = {}\n"
        "threads = None\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        libs = sorted({l.split()[-1] for l in fh if 'blas' in l.lower() and '.so' in l})\n"
        "    for lib in libs:\n"
        "        try:\n"
        "            h = ctypes.CDLL(lib)\n"
        "        except OSError:\n"
        "            continue\n"
        "        for sym in ('openblas_get_num_threads', 'scipy_openblas_get_num_threads64_',\n"
        "                    'openblas_get_num_threads64_'):\n"
        "            fn = getattr(h, sym, None)\n"
        "            if fn is not None and threads is None:\n"
        "                fn.restype = ctypes.c_int\n"
        "                threads = fn()\n"
        "json.dump({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "           'blas': f\"{blas.get('name')} {blas.get('version')}\",\n"
        "           'blas_threads': threads, 'deepagent': deepagent.__file__},\n"
        f"          open({str(probe)!r}, 'w'))\n"
    )
    result = runner.run(["-c", code], work / "probe.log")
    if result.returncode != 0:
        raise RuntimeError(f"cannot import deepagent and numpy from {SRC}: "
                           + (work / "probe.log").read_text()[-2000:])
    info = json.loads(probe.read_text())
    if not Path(info["deepagent"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"deepagent imported from {info['deepagent']}, not {SRC}")
    info.update(nproc=os.cpu_count(), platform=platform.platform())
    return info


def code_identity() -> dict:
    """Commit when the checkout is a git repository; src digest and line count."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


# one run -----------------------------------------------------------------------

class Run:
    def __init__(self, workload: Workload, seed: int, size: dict, work: Path,
                 runner: Runner):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.runner = runner
        self.failures: list[tuple[str, str]] = []   # (stage, message)

    def setup(self, fx: Path) -> float:
        fx.mkdir(parents=True)
        start = time.perf_counter()
        for i, argv in enumerate(self.workload.setup(fx, self.seed, self.size)):
            log = self.work / f"{fx.name}-{i}.log"
            result = self.runner.run(argv, log)
            if result.returncode != 0:
                raise RuntimeError(f"set-up command {argv} exited with "
                                   f"{result.returncode}; see {log}")
        return time.perf_counter() - start

    def chain(self, fx: Path, rep: Path, traced: bool) -> dict:
        """Run every stage once in ``rep``; stop at the first that fails."""
        rep.mkdir(parents=True)
        (rep / "logs").mkdir()
        out = {"stages": {}, "failed": set(), "attempted": 0}
        start = time.perf_counter()
        for stage in self.workload.stages(fx, rep, self.size):
            args = [str(a) for a in stage.args]
            argv = ([str(BENCH / "tracer.py"), str(rep / "logs" / f"{stage.name}.spans.json"),
                     "--", *args] if traced else ["-m", "deepagent", *args])
            result = self.runner.run(argv, rep / "logs" / f"{stage.name}.log")
            out["attempted"] += 1
            out["stages"][stage.name] = {"s": result.seconds, "rss_mib": result.rss_mib,
                                         "returncode": result.returncode}
            errors = checks.check_stage(stage.name, result.returncode, rep, stage.outputs)
            if errors:
                out["failed"].add(stage.name)
                self.failures += errors
                break
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mib"] = max(s["rss_mib"] for s in out["stages"].values())
        out["hashes"] = {name: checks.sha256(rep / name)
                         for name in self.producers if (rep / name).is_file()}
        return out

    @property
    def producers(self) -> dict:
        """Artifact name -> the last stage that writes it."""
        stages = self.workload.stages(Path("."), Path("."), self.size)
        return {name: s.name for s in stages for name in s.outputs}

    def compare(self, first: dict, other: dict, what: str) -> None:
        errors = checks.check_identical(first["hashes"], other["hashes"],
                                        self.producers, what)
        other["failed"].update(stage for stage, _ in errors)
        self.failures += errors

    def quality(self, fx: Path, rep: Path) -> dict:
        qdir = self.work / "quality"
        qdir.mkdir()

        def run_json(argv, out_path):
            result = self.runner.run(argv, out_path.with_suffix(".log"))
            if result.returncode != 0:
                raise RuntimeError(f"{argv[2:4]} exited with {result.returncode}")
            return json.loads(out_path.read_text())

        try:
            return self.workload.quality(fx, rep, qdir, run_json)
        except (RuntimeError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append(("quality", f"quality figures unavailable: {exc!r}"))
            return {}


def execute(args) -> dict:
    workload = WORKLOADS[args.workload]
    size = SIZES[args.scale]
    out_root = Path(args.work_dir)
    work = out_root / "work" / workload.name
    # the previous run's files are removed only after this run's timing, so
    # that the file system's work of deleting them does not land in it
    stale = work.with_name(workload.name + ".stale")
    shutil.rmtree(stale, ignore_errors=True)
    if work.exists():
        work.rename(stale)
    work.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "sizes": size,
              "machine": machine(runner, work), **code_identity()}
    run = Run(workload, args.seed, size, work, runner)

    # set-up: repeated, timed, and byte-identical every time
    setup_times, digests = [], []
    for i in range(SETUP_REPEATS if args.trace == 0 else 1):
        fx = work / f"setup-{i + 1}"
        setup_times.append(run.setup(fx))
        digests.append(checks.tree_digest(fx))
    if len(set(digests)) > 1:
        run.failures.append(("setup", "repeated set-ups wrote different files"))
    fx = work / "setup-1"
    record["setup_s"] = setup_times

    start = time.perf_counter()
    chains = [run.chain(fx, work / "chain-1", traced=False)]
    if args.trace:
        chains.append(run.chain(fx, work / "chain-traced", traced=True))
        run.compare(chains[0], chains[1], "the untraced and the traced chain")
    else:
        while (not chains[-1]["failed"] and time.perf_counter() - start
               + statistics.median(c["wall_s"] for c in chains) <= args.seconds):
            rep = work / f"chain-{len(chains) + 1}"
            chains.append(run.chain(fx, rep, traced=False))
            run.compare(chains[0], chains[-1], f"chain 1 and chain {len(chains)}")

    first = chains[0]
    if not first["failed"]:
        content = workload.check(fx, work / "chain-1", size)
        run.failures += content
        for chain in chains:  # identical bytes fail the same content checks
            chain["failed"].update(stage for stage, _ in content
                                   if stage in chain["stages"])
        record["quality"] = run.quality(fx, work / "chain-1")

    # same code, same seed, same scale: the same bytes as any earlier run
    store = out_root / "hashes" / record["src_sha256"][:16]
    store.mkdir(parents=True, exist_ok=True)
    known = store / f"{workload.name}-{args.scale}-seed{args.seed}.json"
    if not first["failed"]:
        if known.is_file():
            run.compare({"hashes": json.loads(known.read_text())}, first,
                        "this run and an earlier run with the same seed")
        else:
            known.write_text(json.dumps(first["hashes"], indent=1))

    attempted = sum(c["attempted"] for c in chains)
    failed = sum(len(c["failed"]) for c in chains)
    untraced = chains[:1] if args.trace else chains
    stage_s = {f"{name}_s": statistics.median(c["stages"][name]["s"] for c in untraced
                                              if name in c["stages"])
               for name in STAGES if name in first["stages"]}
    if args.trace:
        metrics, missing = tracer.layer_metrics(
            sorted((work / "chain-traced" / "logs").glob("*.spans.json")))
        metrics.update({f"{name}_s": stage_s.get(f"{name}_s", 0.0) for name in STAGES})
        metrics["trace.overhead_s"] = chains[1]["wall_s"] - chains[0]["wall_s"]
        record["untraced_targets"] = missing
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in untraced),
        }
        units = END_TO_END
    # keep set-up 1 and chain 1 for inspection
    for path in [*work.glob("setup-*"), *work.glob("chain-*"), stale]:
        if path.name not in ("setup-1", "chain-1"):
            shutil.rmtree(path, ignore_errors=True)

    record.update(
        chains=[{k: c[k] for k in ("stages", "wall_s", "peak_rss_mib", "hashes")}
                | {"failed": sorted(c["failed"])} for c in chains],
        stage_s=stage_s, failed_stage_share=failed / attempted,
        failures=[f"{stage}: {msg}" for stage, msg in run.failures], metrics=metrics)
    _write_record(out_root / "runs", record)
    _print_summary(record)
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _write_record(runs: Path, record: dict) -> Path:
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    i = 1
    while (runs / f"{stem}-{i}.json").exists():
        i += 1
    path = runs / f"{stem}-{i}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    record["record_path"] = str(path)
    return path


def _print_summary(record: dict) -> None:
    chains = record["chains"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(chains)} chain(s), src {record['src_lines']} lines, "
          f"commit {record['commit'] or 'unknown'}")
    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"BLAS {m['blas']} with {m['blas_threads']} threads")
    for i, chain in enumerate(chains, 1):
        times = ", ".join(f"{name} {s['s']:.3f}s/{s['rss_mib']:.0f}MiB"
                          for name, s in chain["stages"].items())
        print(f"chain {i}: wall {chain['wall_s']:.3f}s ({times})")
    print(f"failed_stage_share {record['failed_stage_share']}")
    print("quality: " + json.dumps(record.get("quality", {})))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"run record: {record['record_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="fixture sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_out"),
                        help="where fixtures, chain outputs and run records go")
    args = parser.parse_args(argv)
    if not (SRC / "deepagent" / "__init__.py").is_file():
        print(f"no deepagent sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = execute(args)
    except RuntimeError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
