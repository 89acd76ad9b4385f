"""Dataset manifests: one JSON record per video sample.

A record has a non-empty string id that UTF-8 can encode and names the
sample's frames (a non-empty list of image file paths), its optional audio
track, the optional ASR/OCR sidecar text files (each a path string when
present) and its split, which every command reads and none derives. Validation happens
up front and reports every violation at once, before any compute starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from deepagent.errors import IngestionError

SPLITS = ("train", "val", "test")


@dataclass
class SampleRecord:
    id: str
    label: int                      # 0 = real, 1 = fake
    frames: list[Path] = field(default_factory=list)
    audio: Path | None = None
    asr_text: Path | None = None
    ocr_text: Path | None = None
    split: str = field(kw_only=True)  # one of SPLITS


def is_label(value) -> bool:
    """True for the JSON integers 0 and 1, not a boolean or a float."""
    return type(value) is int and value in (0, 1)


def load_manifest(path) -> list[SampleRecord]:
    """Parse and validate a manifest; paths resolve against its directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable or bad JSON
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
        rid = entry.get("id")
        if not (isinstance(rid, str) and rid):
            problems.append(f"record {i}: missing id" if "id" not in entry else
                            f"record {i}: id must be a non-empty string, got {rid!r}")
            rid = f"<record {i}>"
        elif any("\ud800" <= ch <= "\udfff" for ch in rid):
            # a lone surrogate is legal JSON but no UTF-8 cache key
            problems.append(f"record {i}: id must be encodable as UTF-8, got {rid!r}")
            rid = f"<record {i}>"
        elif rid in seen:
            problems.append(f"duplicate id {rid}")
        seen.add(rid)
        label = entry.get("label")
        if not is_label(label):
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
        split = entry.get("split")
        if split not in SPLITS:
            problems.append(
                f"{rid}: split must be 'train', 'val' or 'test', got {split!r}")
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


def by_split(records: list[SampleRecord], split: str) -> list[SampleRecord]:
    return [r for r in records if r.split == split]
