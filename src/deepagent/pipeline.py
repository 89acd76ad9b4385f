"""End-to-end workflow: extract, train, score, fuse, evaluate, report.

This module glues the manifest, feature cache, agents, and fusion stages
together; the CLI is a thin argument-parsing layer over these functions.
Training reads the manifest's train and val records, and ``predict``
copies each record's split into its score row.
``load_sample_frames`` is the one frame loader and ``FrameSet`` the one
frame source: ``train agent1`` hands the train and val splits to the agent
as ``FrameSet``s, and ``score_samples``, shared by ``predict`` and
``fuse``, scores one ``FrameSet`` of every video's frames. Each is read from
disk one batch or ``agents.forward_rows`` slice at a time, so no command
holds more than one batch of frames. Input rules are checked where the
input is read, once: ``load_manifest`` gives every record a frame, and
``files.read_json`` owns the faults of the scores and fold-report text.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from deepagent import agents, audio, files, fusion, metrics, semantic, vision
from deepagent.cache import read_cache, update_cache, write_cache
from deepagent.config import PipelineConfig
from deepagent.errors import ConfigurationError, IngestionError, UsageError
from deepagent.manifest import SPLITS, SampleRecord, by_split, is_label


def select_frame_indices(n_frames: int, config: PipelineConfig) -> list[int]:
    if config.frame_policy == "even":
        return vision.sample_even(n_frames, config.m)
    return vision.sample_interval(n_frames)


def load_sample_frames(paths, size: int) -> np.ndarray:
    """The frames at ``paths`` as an ``N x S x S x 3`` batch rescaled from
    [0, 255] to [0, 1]: each frame is resized to side ``size``, a gray one
    on its one channel and then broadcast to RGB."""
    out = np.empty((len(paths), size, size, 3))
    for i, path in enumerate(paths):
        out[i] = vision.resize_bilinear(vision.load_frame(path), size, size)
    out /= 255.0
    return out


class FrameSet:
    """The policy-selected frames of some records at side ``size``, read
    from disk when indexed: ``fs[idx]`` (an index array or a slice) loads
    only those frames through ``load_sample_frames``, so training,
    validation and scoring hold one batch at a time. ``labels`` holds each
    frame's record label and ``ends`` the cumulative frame count per record,
    so record i owns frames ``ends[i-1]:ends[i]``."""

    def __init__(self, records: list[SampleRecord], config: PipelineConfig,
                 size: int):
        paths, labels, counts = [], [], []
        for record in records:
            chosen = select_frame_indices(len(record.frames), config)
            paths += [record.frames[i] for i in chosen]
            labels += [record.label] * len(chosen)
            counts.append(len(chosen))
        self.paths = np.array(paths, dtype=object)
        self.labels = np.array(labels, dtype=int)
        self.ends = np.cumsum(counts, dtype=int)
        self.size = size

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, idx) -> np.ndarray:
        return load_sample_frames(self.paths[idx], self.size)


# feature extraction --------------------------------------------------------

def _tokens(path):
    """Token set of a UTF-8 sidecar text file; None when there is none."""
    if path is None:
        return None
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return semantic.tokenize(text)


def extract_features(records: list[SampleRecord]) -> dict[str, np.ndarray]:
    """Cache entries: one ``<id>/feature`` (14 floats) per record."""
    entries: dict[str, np.ndarray] = {}
    for record in records:
        coeffs = None
        if record.audio is not None:
            coeffs = audio.embed_audio(audio.read_wav(record.audio))
        entries[f"{record.id}/feature"] = semantic.build_feature(
            coeffs, _tokens(record.asr_text), _tokens(record.ocr_text))
    return entries


def run_extract(manifest_records, cache_path) -> int:
    entries = extract_features(manifest_records)
    write_cache(cache_path, entries)
    return len(manifest_records)


# training ------------------------------------------------------------------

def run_train_agent1(records, config: PipelineConfig, out_path) -> list[dict]:
    train = FrameSet(by_split(records, "train"), config, config.input_size)
    val = FrameSet(by_split(records, "val"), config, config.input_size)
    model = agents.build_agent1(config.seed, input_size=config.input_size,
                                dtype=agents.AGENT1_TRAIN_DTYPE)
    history = agents.train_agent1(model, train, train.labels, val, val.labels,
                                  config=config.agent1)
    agents.save_agent(model, out_path)
    files.write_json(_history_path(out_path), history)
    return history


def run_train_agent2(records, config: PipelineConfig, cache_path,
                     out_path) -> list[dict]:
    entries = _require_cache(cache_path)

    def dataset(split):
        chosen = by_split(records, split)
        return (_feature_matrix(entries, chosen, cache_path),
                np.array([r.label for r in chosen], dtype=int))

    X, y = dataset("train")
    val_X, val_y = dataset("val")
    model = agents.build_agent2(config.seed)
    history = agents.train_agent2(model, X, y, val_X, val_y,
                                  config=config.agent2)
    agents.save_agent(model, out_path)
    files.write_json(_history_path(out_path), history)
    return history


def _history_path(ckpt_path) -> Path:
    """``<stem>_history.json`` next to the checkpoint."""
    p = Path(ckpt_path)
    return p.with_name(p.stem + "_history.json")


def _require_cache(cache_path) -> dict:
    if not Path(cache_path).is_file():
        raise ConfigurationError(
            f"missing feature cache: {cache_path} (run extract first)")
    return read_cache(cache_path)


def _feature_matrix(entries, records, cache_path) -> np.ndarray:
    """N x 14 matrix of the records' cached features, row i for records[i]."""
    rows = []
    for record in records:
        key = f"{record.id}/feature"
        if key not in entries:
            raise ConfigurationError(f"missing feature for sample {record.id} "
                                     f"in {cache_path} (rerun extract)")
        if entries[key].shape != (semantic.FEATURE_DIM,):
            raise IngestionError(
                f"{cache_path}: entry {key!r} has shape {entries[key].shape}, "
                f"expected ({semantic.FEATURE_DIM},)")
        rows.append(entries[key])
    return np.stack(rows) if rows else np.zeros((0, semantic.FEATURE_DIM))


def require_checkpoint(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"missing checkpoint: {p}")
    return p


# scoring and fusion ---------------------------------------------------------

def score_samples(records, agent1_model, agent2_model, cache_entries,
                  config: PipelineConfig, cache_path="cache") -> np.ndarray:
    """N x 2 matrix of per-video scores, row i ``[agent1, agent2]`` for
    ``records[i]``.

    Agent-1 scores each video from its frames, resized to the checkpoint's
    own input side S, so a model trained at desk scale scores correctly
    without repeating the flag. Every video's frames form one ``FrameSet``,
    scored in ``agents.forward_rows`` slices, so memory is set by one slice;
    ``ends`` splits the frame scores back into videos. Agent-2 scores the
    stacked N x 14 features. Finite weights can still overflow, so a score
    that is not finite raises FloatingPointError (exit 3) naming the agent
    and the sample.
    """
    X = _feature_matrix(cache_entries, records, cache_path)
    frames = FrameSet(records, config, agent1_model.input_size)
    probs = agents.predict_frames(agent1_model, frames)
    agent1 = [agents.score_video(p) for p in np.split(probs, frames.ends)[:-1]]
    scores = np.column_stack([agent1, agents.predict_agent2(agent2_model, X)])
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        row, col = bad[0]
        raise FloatingPointError(f"agent{col + 1} scores sample {records[row].id!r} "
                                 f"as {scores[row, col]}, not a finite score")
    return scores


def _score(records, config, agent1_path, agent2_path, cache_path) -> np.ndarray:
    """Load both checkpoints and the cache, then score every record."""
    agent1_model = agents.load_agent(require_checkpoint(agent1_path), kind=1)
    agent2_model = agents.load_agent(require_checkpoint(agent2_path), kind=2)
    entries = _require_cache(cache_path)
    return score_samples(records, agent1_model, agent2_model, entries,
                         config, cache_path)


def run_predict(records, config, agent1_path, agent2_path, cache_path,
                out_path) -> list[dict]:
    scores = _score(records, config, agent1_path, agent2_path, cache_path)
    rows = [{"id": r.id, "label": r.label, "split": r.split,
             "agent1": float(s1), "agent2": float(s2)}
            for r, (s1, s2) in zip(records, scores)]
    files.write_json(out_path, rows)
    return rows


def run_fuse(records, config, agent1_path, agent2_path, cache_path,
             report_path) -> float:
    """Score every video with both agents, cross-validate the fused model on
    the raw scores, store the scores in the cache and write the fold report
    that ``fusion.cross_validate_meta`` returns; returns the mean macro F1."""
    scores = _score(records, config, agent1_path, agent2_path, cache_path)
    report = fusion.cross_validate_meta(
        scores, [r.label for r in records], folds=config.folds,
        n_trees=config.forest_trees, seed=config.seed)
    update_cache(cache_path, {
        f"{r.id}/scores": row for r, row in zip(records, scores)})
    files.write_json(report_path, report)
    return report[-1]["f1"]


# evaluation and reporting ----------------------------------------------------

def _number(value, low=-math.inf, high=math.inf) -> bool:
    """True for a finite JSON number (not a boolean) within [low, high]."""
    # compared, not converted: a JSON integer may be too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf and low <= value <= high)


def _load_rows(path, problem) -> list[dict]:
    """The JSON array of objects in ``path``; ``problem(row)`` names what is
    wrong with one row, or returns None."""
    rows = files.read_json(path, "rows")
    if not isinstance(rows, list):
        raise IngestionError(f"{path}: must be a JSON array of rows")
    for i, row in enumerate(rows):
        fault = problem(row) if isinstance(row, dict) else "must be a JSON object"
        if fault:
            raise IngestionError(f"{path}: row {i}: {fault}")
    return rows


def _score_row_problem(row):
    if not isinstance(row.get("id"), str):
        return "id must be a string"
    if not is_label(row.get("label")):
        return f"label must be 0 or 1, got {row.get('label')!r}"
    if row.get("split") not in SPLITS:
        return f"unknown split {row.get('split')!r}"
    for key in ("agent1", "agent2"):
        if not _number(row.get(key), 0.0, 1.0):
            return f"{key} must be a finite score in [0, 1], got {row.get(key)!r}"
    return None


def run_evaluate(scores_path, split, out_path) -> dict:
    rows = _load_rows(scores_path, _score_row_problem)
    if not rows:
        raise IngestionError(f"{scores_path}: scores file holds no rows")
    chosen = [r for r in rows if split in ("all", r["split"])]
    if not chosen:
        raise UsageError(f"no samples in split {split!r} within {scores_path}")
    labels = [r["label"] for r in chosen]
    out = {"split": split, "n_samples": len(chosen)}
    for agent_key in ("agent1", "agent2"):
        scores = [r[agent_key] for r in chosen]
        out[agent_key] = metrics.metric_report(labels, metrics.decide(scores),
                                               scores)
    files.write_json(out_path, out)
    return out


REPORT_COLUMNS = ("Accuracy", "Precision", "Recall", "F1 Score", "AUC")
_REPORT_KEYS = ("accuracy", "precision", "recall", "f1", "auc")


def render_fold_table(report_rows: list[dict]) -> str:
    """Fixed-width table of the fold report, values as percentages."""
    header = ["Fold"] + [f"{c} (%)" for c in REPORT_COLUMNS]
    lines = ["  ".join(f"{h:>14}" for h in header)]
    for row in report_rows:
        fold = "Mean" if row["fold"] == "mean" else str(row["fold"])
        cells = [fold] + [f"{row[k] * 100.0:.2f}" for k in _REPORT_KEYS]
        lines.append("  ".join(f"{c:>14}" for c in cells))
    return "\n".join(lines) + "\n"


def write_roc_csvs(report_rows: list[dict], out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for row in report_rows:
        if row["fold"] == "mean" or "roc" not in row:
            continue
        path = out_dir / f"roc_fold{row['fold']}.csv"
        lines = ["fpr,tpr,threshold"] + [f"{fpr},{tpr},{thr}" for fpr, tpr, thr in row["roc"]]
        files.write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
        written.append(path)
    return written


def _fold_row_problem(row):
    fold = row.get("fold")
    if fold != "mean" and not (isinstance(fold, int) and not isinstance(fold, bool)):
        return f"fold must be a whole number or 'mean', got {fold!r}"
    for key in _REPORT_KEYS:
        if not _number(row.get(key), 0.0, 1.0):
            return f"{key} must be a fraction in [0, 1], got {row.get(key)!r}"
    if not isinstance(row.get("roc", []), list):
        return "roc must be a list of (fpr, tpr, threshold) triples"
    for point in row.get("roc", []):
        if not (isinstance(point, list) and len(point) == 3
                and _number(point[0], 0.0, 1.0) and _number(point[1], 0.0, 1.0)
                and (_number(point[2]) or point[2] in ("inf", "-inf"))):
            return f"roc point {point!r} is not a (fpr, tpr, threshold) triple"
    return None


def run_report(fold_report_path, out_path=None, roc_dir=None) -> str:
    report_rows = _load_rows(fold_report_path, _fold_row_problem)
    if not report_rows:
        raise IngestionError(f"{fold_report_path}: fold report holds no rows")
    table = render_fold_table(report_rows)
    if out_path is not None:
        files.write_bytes(out_path, table.encode("utf-8"))
    if roc_dir is not None:
        write_roc_csvs(report_rows, roc_dir)
    return table
