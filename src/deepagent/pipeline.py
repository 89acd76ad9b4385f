"""End-to-end workflow: extract, train, score, fuse, evaluate, report.

This module glues the manifest, feature cache, agents, and fusion stages
together; the CLI is a thin argument-parsing layer over these functions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from deepagent import agents, audio, fusion, metrics, semantic, vision
from deepagent.cache import read_cache, update_cache, write_cache
from deepagent.config import PipelineConfig
from deepagent.errors import ConfigurationError, IngestionError, UsageError
from deepagent.manifest import SampleRecord, assign_splits, by_split


def select_frame_indices(n_frames: int, config: PipelineConfig) -> list[int]:
    if config.frame_policy == "even":
        return vision.sample_even(n_frames, config.m)
    return vision.sample_interval(n_frames, config.frame_interval)


def load_sample_frames(record: SampleRecord, config: PipelineConfig,
                       size: int | None = None) -> np.ndarray:
    """Load, resize, and normalize the policy-selected frames of one sample."""
    if not record.frames:
        raise UsageError(f"{record.id}: sample has no frames")
    indices = select_frame_indices(len(record.frames), config)
    size = size if size is not None else config.input_size
    out = []
    for i in indices:
        frame = vision.load_frame(record.frames[i])
        if frame.channels == 1:
            frame = vision.Frame(np.repeat(frame.pixels, 3, axis=2))
        frame = vision.resize_bilinear(frame, size, size)
        out.append(vision.normalize(frame).pixels)
    return np.stack(out)


# feature extraction --------------------------------------------------------

def extract_sample_feature(record: SampleRecord,
                           config: PipelineConfig) -> semantic.MultimodalFeature:
    if record.audio is not None:
        waveform = audio.read_wav(record.audio)
        embedding = audio.embed_audio(waveform, mel_filters=config.mel_filters)
    else:
        embedding = audio.AudioEmbedding(np.zeros(audio.N_COEFFS), present=False)
    asr = ocr = None
    if record.asr_text is not None:
        asr = semantic.tokenize(record.asr_text.read_text(encoding="utf-8"), "asr")
    if record.ocr_text is not None:
        ocr = semantic.tokenize(record.ocr_text.read_text(encoding="utf-8"), "ocr")
    return semantic.build_feature(embedding, asr, ocr)


def extract_features(records: list[SampleRecord],
                     config: PipelineConfig) -> dict[str, np.ndarray]:
    """Cache entries: ``<id>/feature`` (14 floats) and ``<id>/flags``."""
    entries: dict[str, np.ndarray] = {}
    for record in records:
        feat = extract_sample_feature(record, config)
        entries[f"{record.id}/feature"] = feat.x
        entries[f"{record.id}/flags"] = np.array(
            [float(feat.audio_present), float(feat.text_present)])
    return entries


def run_extract(manifest_records, config, cache_path) -> int:
    entries = extract_features(manifest_records, config)
    write_cache(cache_path, entries)
    return len(manifest_records)


# training ------------------------------------------------------------------

def _ensure_splits(records, config) -> None:
    if all(r.split == "unassigned" for r in records):
        assign_splits(records, config.fractions, config.seed)


def _frame_dataset(records, config):
    frames, labels = [], []
    for record in records:
        batch = load_sample_frames(record, config)
        frames.append(batch)
        labels.extend([record.label] * len(batch))
    if not frames:
        return np.zeros((0, config.input_size, config.input_size, 3)), np.zeros(0, int)
    return np.concatenate(frames), np.array(labels, dtype=int)


def run_train_agent1(records, config: PipelineConfig, out_path,
                     history_path=None) -> list[dict]:
    _ensure_splits(records, config)
    train_frames, train_labels = _frame_dataset(by_split(records, "train"), config)
    val_frames, val_labels = _frame_dataset(by_split(records, "val"), config)
    model = agents.build_agent1(config.seed, input_size=config.input_size)
    policy = vision.AugmentPolicy() if config.agent1.augment else None
    history = agents.train_agent1(model, train_frames, train_labels,
                                  val_frames, val_labels, config.agent1,
                                  augment_policy=policy)
    agents.save_agent(model, out_path)
    _write_history(history_path or _history_path(out_path), history)
    return history


def run_train_agent2(records, config: PipelineConfig, cache_path, out_path,
                     history_path=None) -> list[dict]:
    entries = _require_cache(cache_path)
    _ensure_splits(records, config)

    def dataset(split):
        rows, labels = [], []
        for record in by_split(records, split):
            rows.append(_cached_feature(entries, record.id, cache_path))
            labels.append(record.label)
        return (np.array(rows) if rows else np.zeros((0, semantic.FEATURE_DIM)),
                np.array(labels, dtype=int))

    X, y = dataset("train")
    val_X, val_y = dataset("val")
    model = agents.build_agent2(config.seed)
    history = agents.train_agent2(model, X, y, val_X, val_y, config.agent2)
    agents.save_agent(model, out_path)
    _write_history(history_path or _history_path(out_path), history)
    return history


def _history_path(ckpt_path) -> Path:
    p = Path(ckpt_path)
    return p.with_name(p.stem + "_history.json")


def _write_history(path, history) -> None:
    Path(path).write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def _require_cache(cache_path) -> dict:
    if not Path(cache_path).is_file():
        raise ConfigurationError(
            f"missing feature cache: {cache_path} (run extract first)")
    return read_cache(cache_path)


def _cached_feature(entries, sample_id, cache_path) -> np.ndarray:
    key = f"{sample_id}/feature"
    if key not in entries:
        raise ConfigurationError(
            f"missing feature for sample {sample_id} in {cache_path} (rerun extract)")
    if entries[key].shape != (semantic.FEATURE_DIM,):
        raise IngestionError(
            f"{cache_path}: entry {key!r} has shape {entries[key].shape}, "
            f"expected ({semantic.FEATURE_DIM},)")
    return entries[key]


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
    own input geometry, so a model trained at desk scale scores correctly
    without repeating the flag. Agent-2 scores the stacked N x 14 cached
    features in one forward.
    """
    features = [_cached_feature(cache_entries, r.id, cache_path) for r in records]
    X = np.stack(features) if features else np.zeros((0, agent2_model.input_width))
    agent1 = [agents.score_video(agent1_model, load_sample_frames(
        record, config, size=agent1_model.input_size)) for record in records]
    return np.column_stack([agent1, agents.predict_agent2(agent2_model, X)])


def _score(records, config, agent1_path, agent2_path, cache_path) -> np.ndarray:
    """Load both checkpoints and the cache, then score every record."""
    agent1_model = agents.load_agent(require_checkpoint(agent1_path))
    agent2_model = agents.load_agent(require_checkpoint(agent2_path))
    entries = _require_cache(cache_path)
    return score_samples(records, agent1_model, agent2_model, entries,
                         config, cache_path)


def run_predict(records, config, agent1_path, agent2_path, cache_path,
                out_path) -> list[dict]:
    scores = _score(records, config, agent1_path, agent2_path, cache_path)
    _ensure_splits(records, config)
    rows = [{"id": r.id, "label": r.label, "split": r.split,
             "agent1": float(s1), "agent2": float(s2)}
            for r, (s1, s2) in zip(records, scores)]
    Path(out_path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return rows


def run_fuse(records, config, agent1_path, agent2_path, cache_path,
             report_path) -> float:
    """Score every video with both agents, cross-validate the fused model,
    store the scores in the cache and write the fold report; returns the
    mean macro F1."""
    scores = _score(records, config, agent1_path, agent2_path, cache_path)
    report = fusion.fold_report(fusion.cross_validate_meta(
        scores, [r.label for r in records], folds=config.folds,
        n_trees=config.forest_trees, seed=config.seed,
        meta_dims=config.meta_dims))
    update_cache(cache_path, {
        f"{r.id}/scores": row for r, row in zip(records, scores)})
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    return report[-1]["f1"]


# evaluation and reporting ----------------------------------------------------

def run_evaluate(scores_path, split, out_path) -> dict:
    rows = json.loads(Path(scores_path).read_text(encoding="utf-8"))
    chosen = [r for r in rows if split in ("all", r["split"])]
    if not chosen:
        raise UsageError(f"no samples in split {split!r} within {scores_path}")
    labels = [r["label"] for r in chosen]
    out = {"split": split, "n_samples": len(chosen)}
    for agent_key in ("agent1", "agent2"):
        scores = [r[agent_key] for r in chosen]
        preds = [int(s >= 0.5) for s in scores]
        out[agent_key] = metrics.metric_report(labels, preds, scores)
    Path(out_path).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
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
        lines = ["fpr,tpr,threshold"]
        for fpr, tpr, thr in row["roc"]:
            lines.append(f"{fpr},{tpr},{thr}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def run_report(fold_report_path, out_path=None, roc_dir=None) -> str:
    report_rows = json.loads(Path(fold_report_path).read_text(encoding="utf-8"))
    table = render_fold_table(report_rows)
    if out_path is not None:
        Path(out_path).write_text(table, encoding="utf-8")
    if roc_dir is not None:
        write_roc_csvs(report_rows, roc_dir)
    return table
