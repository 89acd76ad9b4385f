"""Dataset manifests: one JSON record per video sample.

A record names the sample's frames (a non-empty list of image file paths),
its optional audio track, and the optional ASR/OCR sidecar text files (each
a path string when present). Validation happens up front and reports every
violation at once, before any compute starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deepagent.errors import IngestionError, UsageError

SPLITS = ("train", "val", "test", "unassigned")


@dataclass
class SampleRecord:
    id: str
    label: int                      # 0 = real, 1 = fake
    frames: list[Path] = field(default_factory=list)
    audio: Path | None = None
    asr_text: Path | None = None
    ocr_text: Path | None = None
    split: str = "unassigned"


def load_manifest(path) -> list[SampleRecord]:
    """Parse and validate a manifest; paths resolve against its directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise IngestionError(f"{path}: cannot read manifest: {exc}") from exc
    if not isinstance(raw, list):
        raise IngestionError(f"{path}: manifest must be a JSON array")
    if not raw:
        # nothing to extract, score or cross-validate
        raise IngestionError(f"{path}: manifest holds no records")

    base = path.parent
    problems: list[str] = []
    seen: set[str] = set()
    records: list[SampleRecord] = []

    def resolve(rel, what, rid):
        p = base / rel
        if not p.is_file():
            problems.append(f"{rid}: missing {what} file {p}")
        return p

    def optional(entry, key, what, rid):
        rel = entry.get(key)
        if rel is None:
            return None
        if not isinstance(rel, str):
            problems.append(f"{rid}: {key} must be a string")
            return None
        return resolve(rel, what, rid)

    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            problems.append(f"record {i}: must be a JSON object")
            continue
        rid = str(entry.get("id", f"<record {i}>"))
        if "id" not in entry:
            problems.append(f"record {i}: missing id")
        elif rid in seen:
            problems.append(f"duplicate id {rid}")
        seen.add(rid)
        label = entry.get("label")
        if label not in (0, 1):
            problems.append(f"{rid}: label must be 0 or 1, got {label!r}")
            label = 0
        frames = entry.get("frames", [])
        if not isinstance(frames, list) or not all(isinstance(f, str) for f in frames):
            problems.append(f"{rid}: frames must be a list of strings")
            frames = []
        elif not frames:
            # Agent-1 scores every sample, so a record without frames
            # could not be scored
            problems.append(f"{rid}: needs at least one frame")
        frames = [resolve(f, "frame", rid) for f in frames]
        split = entry.get("split", "unassigned")
        if split not in SPLITS:
            problems.append(f"{rid}: unknown split {split!r}")
            split = "unassigned"
        records.append(SampleRecord(
            id=rid,
            label=int(label),
            frames=frames,
            audio=optional(entry, "audio", "audio", rid),
            asr_text=optional(entry, "asr_text", "asr sidecar", rid),
            ocr_text=optional(entry, "ocr_text", "ocr sidecar", rid),
            split=split,
        ))

    if problems:
        raise IngestionError(
            f"{path}: {len(problems)} manifest violation(s):\n  "
            + "\n  ".join(problems))
    return records


def assign_splits(records: list[SampleRecord], fractions=(0.70, 0.20, 0.10),
                  seed: int = 42) -> None:
    """Stratified train/val/test assignment, in place.

    Per class: floor(val) and floor(test) samples go to those splits, the
    remainder stays in train, after a seeded shuffle. Every class needs at
    least 3 samples.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise UsageError(f"split fractions must sum to 1, got {fractions}")
    labels = np.array([r.label for r in records])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B11]))
    for c in (0, 1):
        idx = np.flatnonzero(labels == c)
        if len(idx) == 0:
            continue
        if len(idx) < 3:
            raise UsageError(
                f"class {c} has only {len(idx)} samples; need >= 3 to split")
        idx = rng.permutation(idx)
        n = len(idx)
        n_val = int(np.floor(fractions[1] * n))
        n_test = int(np.floor(fractions[2] * n))
        for j, i in enumerate(idx):
            if j < n_val:
                records[i].split = "val"
            elif j < n_val + n_test:
                records[i].split = "test"
            else:
                records[i].split = "train"


def by_split(records: list[SampleRecord], split: str) -> list[SampleRecord]:
    return [r for r in records if r.split == split]
