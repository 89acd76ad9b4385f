"""Output checks for the benchmark workloads.

Every check takes artifact paths (or parsed artifacts) and returns a list of
``(stage, message)`` failures, empty when the outputs hold. The checks gate
only on what the program promises: each stage writes its artifacts, seeded
runs are byte-identical, the separable fixture fuses to macro F1 >= 0.95,
scores and fold reports are well-formed, and Agent-1 scores agree with an
independent reference forward pass.

The reference forward (``reference_video_score``) reads the DAMC checkpoint
and the PGM/PPM frames itself and uses plain numpy, never ``deepagent``, so
it can catch a wrong result from the program's own layers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# fused mean macro F1 the separable fixture must reach (acceptance criterion 7)
MIN_SEPARABLE_F1 = 0.95
# reference and program sum the same float64 products in a different order
SCORE_TOLERANCE = 1e-9
FOLD_METRICS = ("accuracy", "precision", "recall", "f1", "auc",
                "precision_macro", "recall_macro")
SCORE_KEYS = ("id", "label", "split", "agent1", "agent2")

# Agent-1 conv blocks: (kernel, stride, padding, pooled afterwards)
AGENT1_BLOCKS = [(11, 4, "valid", True), (5, 1, "same", True),
                 (3, 1, "same", False), (3, 1, "same", False),
                 (3, 1, "same", True)]
BN_EPSILON = 1e-3
# DAMC record kinds the reference reads
KIND_CONV_KERNEL, KIND_CONV_BIAS = 1, 2
KIND_BN = (3, 4, 5, 6)  # gamma, beta, running mean, running variance
KIND_DENSE_W, KIND_DENSE_B = 7, 8


# artifacts ------------------------------------------------------------------

def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root) -> str:
    """One digest over every file under ``root``: relative paths and bytes."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_stage(stage: str, returncode: int, rep_dir, outputs) -> list:
    if returncode != 0:
        return [(stage, f"exited with code {returncode}")]
    errors = []
    for name in outputs:
        path = Path(rep_dir) / name
        if not path.is_file() or path.stat().st_size == 0:
            errors.append((stage, f"did not write {name}"))
    return errors


def check_identical(reference: dict, other: dict, producer: dict, what: str) -> list:
    """Compare two ``{artifact: sha256}`` maps; blame each artifact's producer."""
    errors = []
    for name in sorted(set(reference) | set(other)):
        if reference.get(name) != other.get(name):
            errors.append((producer.get(name, "setup"),
                           f"{name} differs between {what}"))
    return errors


# scores and fold reports ---------------------------------------------------------

def _is_fraction(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and 0.0 <= value <= 1.0)


def check_scores(scores_path, manifest_path, stage="predict") -> list:
    """One row per manifest record, in order, with finite scores in [0, 1]."""
    try:
        rows = json.loads(Path(scores_path).read_text())
    except (OSError, ValueError) as exc:
        return [(stage, f"unreadable scores file: {exc}")]
    records = json.loads(Path(manifest_path).read_text())
    if not isinstance(rows, list) or len(rows) != len(records):
        count = len(rows) if isinstance(rows, list) else "no"
        return [(stage, f"{count} score rows for {len(records)} records")]
    errors = []
    for i, (row, record) in enumerate(zip(rows, records)):
        if not isinstance(row, dict) or any(k not in row for k in SCORE_KEYS):
            errors.append((stage, f"row {i} lacks one of {SCORE_KEYS}"))
            continue
        if row["id"] != record["id"] or row["label"] != record["label"]:
            errors.append((stage, f"row {i} is {row['id']}/{row['label']}, "
                                  f"manifest has {record['id']}/{record['label']}"))
        for key in ("agent1", "agent2"):
            if not _is_fraction(row[key]):
                errors.append((stage, f"row {i} {key} score {row[key]!r} "
                                      "is not a finite value in [0, 1]"))
    return errors


def check_fold_report(report_path, folds=5, stage="fuse") -> list:
    """Fold rows then a mean row; every metric in [0, 1]; mean = fold mean."""
    try:
        rows = json.loads(Path(report_path).read_text())
    except (OSError, ValueError) as exc:
        return [(stage, f"unreadable fold report: {exc}")]
    expected = list(range(1, folds + 1)) + ["mean"]
    if not isinstance(rows, list) or [
            r.get("fold") if isinstance(r, dict) else None for r in rows] != expected:
        return [(stage, f"fold report rows are not folds 1..{folds} then mean")]
    errors = []
    for row in rows:
        for key in FOLD_METRICS:
            if not _is_fraction(row.get(key)):
                errors.append((stage, f"fold {row['fold']} {key} = "
                                      f"{row.get(key)!r} is not in [0, 1]"))
    if errors:
        return errors
    for key in FOLD_METRICS:
        mean = sum(r[key] for r in rows[:-1]) / folds
        if abs(rows[-1][key] - mean) > 1e-12:
            errors.append((stage, f"mean {key} {rows[-1][key]} is not the "
                                  f"fold mean {mean}"))
    return errors


def mean_row(report_path) -> dict:
    return json.loads(Path(report_path).read_text())[-1]


def check_separable_f1(report_path, stage="fuse") -> list:
    try:
        f1 = mean_row(report_path)["f1"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [(stage, f"no mean F1 in the fold report: {exc!r}")]
    if not (isinstance(f1, (int, float)) and f1 >= MIN_SEPARABLE_F1):
        return [(stage, f"fused mean macro F1 {f1} < {MIN_SEPARABLE_F1}")]
    return []


# independent Agent-1 reference -----------------------------------------------

def read_damc(path):
    """(input size, [(kind, array)]) from a DAMC checkpoint, float payloads."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"DAMC":
        raise ValueError(f"{path}: not a DAMC checkpoint")
    _, count = struct.unpack_from("<II", blob, 4)
    pos, width, size, records = 12, 8, None, []
    for idx in range(count):
        kind, rank = struct.unpack_from("<II", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 8)
        pos += 8 + 4 * rank
        w = 8 if idx == 0 else width
        n = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(blob, dtype=f"<f{w}", count=n, offset=pos).reshape(dims)
        pos += n * w
        if idx == 0:
            size, width = int(arr[1]), int(arr[2]) // 8
        else:
            records.append((kind, arr.astype(np.float64)))
    return size, records


def read_pnm(path) -> np.ndarray:
    """Binary PGM/PPM (maxval 255) as an H x W x 3 float array in [0, 255]."""
    blob = Path(path).read_bytes()
    fields, pos = [], 2
    while len(fields) < 3:
        while blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            pos = blob.index(b"\n", pos)
            continue
        end = pos
        while end < len(blob) and not blob[end:end + 1].isspace():
            end += 1
        fields.append(int(blob[pos:end]))
        pos = end
    width, height, _ = fields
    channels = 3 if blob[:2] == b"P6" else 1
    pixels = np.frombuffer(blob, np.uint8, width * height * channels, pos + 1)
    pixels = pixels.reshape(height, width, channels).astype(np.float64)
    return np.repeat(pixels, 3, axis=2) if channels == 1 else pixels


def resize(pixels: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize to size x size with half-pixel centers."""
    def axis(n):
        src = np.clip((np.arange(size) + 0.5) * n / size - 0.5, 0.0, n - 1.0)
        lo = np.floor(src).astype(int)
        return lo, np.minimum(lo + 1, n - 1), src - lo

    y0, y1, fy = axis(pixels.shape[0])
    x0, x1, fx = axis(pixels.shape[1])
    rows = (pixels[y0] * (1 - fy)[:, None, None] + pixels[y1] * fy[:, None, None])
    return rows[:, x0] * (1 - fx)[None, :, None] + rows[:, x1] * fx[None, :, None]


def frame_indices(n_frames: int, policy: str, m: int = 30, interval: int = 5):
    if policy == "interval5":
        return list(range(0, n_frames, interval))
    if n_frames <= m:
        return list(range(n_frames))
    if m == 1:
        return [0]
    return sorted({int(math.floor(i * (n_frames - 1) / (m - 1) + 0.5))
                   for i in range(m)})


def _conv(x, kernel, bias, stride, padding):
    k = kernel.shape[0]
    n, h, w, _ = x.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-w // stride)
        ph = max((oh - 1) * stride + k - h, 0)
        pw = max((ow - 1) * stride + k - w, 0)
        x = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    else:
        oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((n, oh, ow, kernel.shape[3]))
    span_h, span_w = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    for i in range(k):  # one tensor product per kernel offset
        for j in range(k):
            window = x[:, i:i + span_h:stride, j:j + span_w:stride, :]
            out += np.tensordot(window, kernel[i, j], axes=([3], [0]))
    return out + bias


def _maxpool(x, p, stride):
    n, h, w, c = x.shape
    oh, ow = (h - p) // stride + 1, (w - p) // stride + 1
    out = np.full((n, oh, ow, c), -np.inf)
    for i in range(p):
        for j in range(p):
            out = np.maximum(out, x[:, i:i + stride * (oh - 1) + 1:stride,
                                    j:j + stride * (ow - 1) + 1:stride, :])
    return out


def _batchnorm(x, gamma, beta, mean, var):
    return gamma * (x - mean) / np.sqrt(var + BN_EPSILON) + beta


def reference_frame_scores(ckpt_path, frames: np.ndarray) -> np.ndarray:
    """Fake-class probability per normalized N x S x S x 3 frame."""
    _, records = read_damc(ckpt_path)
    it = iter(records)

    def take(*kinds):
        got = [next(it) for _ in kinds]
        if [kind for kind, _ in got] != list(kinds):
            raise ValueError(f"checkpoint records {[k for k, _ in got]}, expected {kinds}")
        return [arr for _, arr in got]

    x = frames
    for k, stride, padding, pooled in AGENT1_BLOCKS:
        kernel, bias = take(KIND_CONV_KERNEL, KIND_CONV_BIAS)
        x = _batchnorm(np.maximum(_conv(x, kernel, bias, stride, padding), 0.0),
                       *take(*KIND_BN))
        if pooled:
            p = min(3, x.shape[1], x.shape[2])
            x = _maxpool(x, p, min(2, p))
    x = x.mean(axis=(1, 2))
    w, b = take(KIND_DENSE_W, KIND_DENSE_B)
    x = _batchnorm(np.maximum(x @ w + b, 0.0), *take(*KIND_BN))
    w, b = take(KIND_DENSE_W, KIND_DENSE_B)
    x = np.maximum(x @ w + b, 0.0)
    w, b = take(KIND_DENSE_W, KIND_DENSE_B)
    logits = x @ w + b
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    return probs[:, 1] / probs.sum(axis=1)


def reference_video_score(ckpt_path, manifest_path, record_index: int,
                          policy: str, m: int = 30) -> float:
    size, _ = read_damc(ckpt_path)
    record = json.loads(Path(manifest_path).read_text())[record_index]
    base = Path(manifest_path).parent
    paths = [base / record["frames"][i]
             for i in frame_indices(len(record["frames"]), policy, m)]
    frames = np.stack([resize(read_pnm(p), size) / 255.0 for p in paths])
    return float(reference_frame_scores(ckpt_path, frames).mean())


def check_reference_scores(scores_path, manifest_path, ckpt_path, policy,
                           m=30, records=None, stage="predict") -> list:
    """Agent-1 video scores of a few records against the reference forward."""
    try:
        rows = json.loads(Path(scores_path).read_text())
        n = len(json.loads(Path(manifest_path).read_text()))
        if records is None:
            records = sorted({0, n // 2, n - 1})
        errors = []
        for i in records:
            want = reference_video_score(ckpt_path, manifest_path, i, policy, m)
            got = rows[i]["agent1"]
            if not (isinstance(got, (int, float)) and abs(got - want) <= SCORE_TOLERANCE):
                errors.append((stage, f"record {i} agent1 score {got!r} differs from "
                                      f"the reference {want!r} by more than "
                                      f"{SCORE_TOLERANCE}"))
        return errors
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [(stage, f"reference comparison failed: {exc!r}")]
