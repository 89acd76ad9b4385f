"""Command-line entry point.

Commands mirror the workflow order: gen-fixtures, extract, train agent1,
train agent2, predict, fuse, evaluate, report. Each command takes only the
flags it reads: train, predict and fuse read a config (``--config``), and
train and fuse, which draw random numbers, a ``--seed``; train agent1,
predict and fuse select frames (``--frame-policy``, ``--m``); only train
agent1 sets the input geometry (``--desk-scale``), which predict and fuse
take from the checkpoint.
Exit codes: 0 success, 1 usage (bad and unused arguments included) or
configuration, 2 ingestion, 3 numeric failure. Failures also emit one
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from deepagent import fixtures, pipeline
from deepagent.config import load_config
from deepagent.errors import DeepAgentError, UsageError
from deepagent.manifest import load_manifest


class _Parser(argparse.ArgumentParser):
    """Argument faults, in subparsers too, raise UsageError: exit 1 with one
    JSON error object, not argparse's usage text and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_flags(p: argparse.ArgumentParser, *, seed: bool) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    if seed:
        p.add_argument("--seed", type=int, help="global random seed")


def _add_frame_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame-policy", choices=("interval5", "even"),
                   dest="frame_policy")
    p.add_argument("--m", type=int, help="frame cap for the 'even' policy")


def _config_from(args) -> "pipeline.PipelineConfig":
    overrides = {
        key: getattr(args, key, None)
        for key in ("seed", "frame_policy", "m", "desk_scale")
    }
    epochs = getattr(args, "epochs", None)
    if epochs is not None:
        overrides[args.agent] = {"epochs": epochs}
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deepagent",
        description="Multimodal deepfake detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixtures", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42,
                   help="seed of the samples and of their splits")

    p = sub.add_parser("extract", help="populate the feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="feature cache path")

    train = sub.add_parser("train", help="train one agent").add_subparsers(
        dest="agent", required=True)
    agent1 = train.add_parser("agent1", help="train the frame CNN")
    agent2 = train.add_parser("agent2", help="train the audio-text MLP")
    for p in (agent1, agent2):
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True,
                       help="checkpoint path; <stem>_history.json goes beside it")
        p.add_argument("--epochs", type=int, help="override the epoch budget")
        _add_config_flags(p, seed=True)
    _add_frame_flags(agent1)
    agent1.add_argument("--desk-scale", action="store_const", const=True,
                        dest="desk_scale", default=None,
                        help="64x64 input geometry for quick runs")
    agent2.add_argument("--cache", required=True, help="feature cache")

    for command, what, out in (
            ("predict", "per-video scores from both agents", "scores JSON path"),
            ("fuse", "cross-validated meta-classifier run", "fold report JSON path")):
        p = sub.add_parser(command, help=what)
        p.add_argument("--manifest", required=True)
        p.add_argument("--agent1", required=True, help="agent1 checkpoint")
        p.add_argument("--agent2", required=True, help="agent2 checkpoint")
        p.add_argument("--cache", required=True)
        p.add_argument("--out", required=True, help=out)
        _add_config_flags(p, seed=command == "fuse")
        _add_frame_flags(p)

    p = sub.add_parser("evaluate", help="per-agent metrics from a scores file")
    p.add_argument("--scores", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test", "all"))
    p.add_argument("--out", required=True, help="metrics JSON path")

    p = sub.add_parser("report", help="render fold tables and ROC CSVs")
    p.add_argument("--fold-report", required=True, dest="fold_report")
    p.add_argument("--out", help="table text path")
    p.add_argument("--roc-dir", dest="roc_dir", help="directory for ROC CSV files")

    return parser


def _dispatch(args) -> int:
    if args.command == "gen-fixtures":
        manifest = fixtures.gen_fixtures(args.out, args.n, args.strength,
                                         args.gap, args.seed)
        print(f"wrote {manifest}")
        return 0

    if args.command == "extract":
        records = load_manifest(args.manifest)
        n = pipeline.run_extract(records, args.out)
        print(f"extracted features for {n} samples into {args.out}")
        return 0

    if args.command == "train":
        cfg = _config_from(args)
        records = load_manifest(args.manifest)
        if args.agent == "agent1":
            history = pipeline.run_train_agent1(records, cfg, args.out)
        else:
            history = pipeline.run_train_agent2(records, cfg, args.cache, args.out)
        last = history[-1] if history else {}
        print(f"trained {args.agent} for {len(history)} epochs "
              f"(train_acc={last.get('train_acc')}) -> {args.out}")
        return 0

    if args.command == "predict":
        cfg = _config_from(args)
        records = load_manifest(args.manifest)
        rows = pipeline.run_predict(records, cfg, args.agent1, args.agent2,
                                    args.cache, args.out)
        print(f"scored {len(rows)} samples -> {args.out}")
        return 0

    if args.command == "fuse":
        cfg = _config_from(args)
        records = load_manifest(args.manifest)
        mean_f1 = pipeline.run_fuse(records, cfg, args.agent1, args.agent2,
                                    args.cache, args.out)
        print(f"mean cross-validated macro F1: {mean_f1:.4f} -> {args.out}")
        return 0

    if args.command == "evaluate":
        out = pipeline.run_evaluate(args.scores, args.split, args.out)
        print(f"evaluated {out['n_samples']} samples ({args.split}) -> {args.out}")
        return 0

    if args.command == "report":
        table = pipeline.run_report(args.fold_report, args.out, args.roc_dir)
        print(table, end="")
        return 0


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except Exception as exc:
        if isinstance(exc, DeepAgentError):
            kind, code = type(exc).__name__, exc.exit_code
        elif isinstance(exc, OSError):
            kind, code = "OSError", 2
        else:  # numeric or unexpected failure
            kind, code = type(exc).__name__, 3
        json.dump({"error": {"kind": kind, "exit_code": code, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
