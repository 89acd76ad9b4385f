"""Synthetic desk-scale dataset generator.

Real samples are smooth gradient frames, a clean sine audio track, and
ASR/OCR sidecars sharing the same words. Fake samples reuse the same
generators, then overlay blocky pixel artifacts scaled by
``artifact_strength`` and replace a ``overlap_gap`` fraction of the OCR
words with words disjoint from the transcript. At strength 0 and gap 0 the
two classes are drawn from the same distribution.

Each manifest record carries its split, drawn here by ``assign_splits``.
The whole tree (frames, audio, sidecars, manifest.json) is a deterministic
function of the seed: same call, byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from deepagent import files
from deepagent.audio import write_wav
from deepagent.errors import IngestionError, UsageError
from deepagent.vision import save_frame

# two disjoint pools: sample words come from the first, fake-OCR
# replacements from the second, so reduced overlap is exact
_CONTENT_WORDS = [
    "alpha", "anchor", "autumn", "basket", "beacon", "bridge", "camera",
    "candle", "canyon", "carbon", "cedar", "circle", "cloud", "cobalt",
    "copper", "coral", "cotton", "crystal", "delta", "drift", "ember",
    "falcon", "feather", "fern", "flint", "forest", "garnet", "glacier",
    "granite", "harbor", "hazel", "heron", "hollow", "indigo", "island",
    "jade", "juniper", "kestrel", "lagoon", "lantern", "larch", "linen",
    "lunar", "maple", "marble", "meadow", "mesa", "mirror", "moss",
    "night", "north", "oak", "ocean", "olive", "onyx", "orchard", "otter",
    "pebble", "pine", "planet", "prairie", "quartz", "raven", "reef",
    "river", "saddle", "sage", "salmon", "shadow", "shore", "silver",
    "slate", "sparrow", "spring", "spruce", "stone", "storm", "summit",
    "sunset", "thicket", "thunder", "timber", "trail", "tundra", "valley",
    "velvet", "violet", "walnut", "water", "willow", "winter", "zephyr",
]
_REPLACEMENT_WORDS = [
    "abacus", "bramble", "chisel", "dynamo", "easel", "fulcrum", "gimbal",
    "hatchet", "ingot", "jigsaw", "kiln", "lathe", "mallet", "nozzle",
    "oarlock", "pulley", "quill", "ratchet", "sprocket", "trowel",
    "upholstery", "vise", "winch", "yoke", "zipper", "anvil", "bellows",
    "crucible", "dowel", "eyelet", "ferrule", "gasket", "hinge", "jamb",
    "keel", "lintel", "mortise", "newel", "oakum", "pintle", "quoin",
    "rivet", "spigot", "tenon", "underlay",
]

FRAMES_PER_SAMPLE = 6
FRAME_SIZE = 64
AUDIO_SECONDS = 0.5
SAMPLE_RATE = 16000
WORDS_PER_SAMPLE = 12
VAL_FRACTION = 0.20
TEST_FRACTION = 0.10


def _base_frames(rng: np.random.Generator, n_frames: int, size: int) -> np.ndarray:
    """Smooth per-sample gradient drifting slightly from frame to frame."""
    angle = rng.uniform(0, 2 * np.pi)
    base = rng.uniform(60.0, 160.0, size=3)
    amp = rng.uniform(30.0, 70.0)
    drift = rng.uniform(-0.3, 0.3)
    u, v = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    ramp = (u * np.cos(angle) + v * np.sin(angle)) / size
    frames = np.empty((n_frames, size, size, 3))
    for t in range(n_frames):
        wave = np.sin(2 * np.pi * (ramp + drift * t / max(n_frames, 1)))
        for c in range(3):
            frames[t, :, :, c] = base[c] + amp * wave
    return np.clip(frames, 0.0, 255.0)


def _inject_artifacts(frames: np.ndarray, strength: float,
                      rng: np.random.Generator) -> None:
    """Hard-edged 8x8 blocks offset by +-strength * 120 intensity, in place."""
    size = frames.shape[1]
    block = 8
    for t in range(frames.shape[0]):
        for _ in range(5):
            y = int(rng.integers(0, size - block + 1))
            x = int(rng.integers(0, size - block + 1))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            frames[t, y:y + block, x:x + block, :] += sign * strength * 120.0
    np.clip(frames, 0.0, 255.0, out=frames)


def assign_splits(labels, seed: int) -> list[str]:
    """One split name per label: stratified, after a seeded shuffle of each
    class, ``VAL_FRACTION`` and ``TEST_FRACTION`` of it (rounded down) go to
    val and test and the rest to train. Each class needs at least 3 samples."""
    labels = np.asarray(labels)
    splits = np.full(len(labels), "train", dtype=object)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B11]))
    for c in (0, 1):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 3:
            raise UsageError(
                f"class {c} has only {len(idx)} samples; need >= 3 to split")
        idx = rng.permutation(idx)
        n_val, n_test = (int(f * len(idx)) for f in (VAL_FRACTION, TEST_FRACTION))
        splits[idx[:n_val]] = "val"
        splits[idx[n_val:n_val + n_test]] = "test"
    return splits.tolist()


def gen_fixtures(out_dir, n_samples: int, artifact_strength: float,
                 overlap_gap: float, seed: int) -> Path:
    """Write a balanced synthetic dataset and return the manifest path."""
    if n_samples < 6 or n_samples % 2 != 0:
        # the classes alternate, and each needs 3 samples to split
        raise UsageError(f"n_samples must be even and >= 6, got {n_samples}")
    if not (0.0 <= artifact_strength <= 1.0 and 0.0 <= overlap_gap <= 1.0):
        raise UsageError("artifact_strength and overlap_gap must be in [0, 1]")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")

    out_dir = Path(out_dir)
    try:
        for sub in ("frames", "audio", "text"):
            (out_dir / sub).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IngestionError(f"cannot create fixture tree under {out_dir}: {exc}") from exc

    labels = [i % 2 for i in range(n_samples)]
    splits = assign_splits(labels, seed)
    entries = []
    for i, label in enumerate(labels):
        sid = f"{'fake' if label else 'real'}_{i // 2:04d}"
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))

        frames = _base_frames(rng, FRAMES_PER_SAMPLE, FRAME_SIZE)
        if label == 1:
            _inject_artifacts(frames, artifact_strength, rng)
        frame_paths = []
        for t in range(FRAMES_PER_SAMPLE):
            rel = f"frames/{sid}_f{t:02d}.ppm"
            save_frame(out_dir / rel, frames[t])
            frame_paths.append(rel)

        freq = rng.uniform(200.0, 2000.0)
        t_axis = np.arange(int(AUDIO_SECONDS * SAMPLE_RATE)) / SAMPLE_RATE
        wav_rel = f"audio/{sid}.wav"
        write_wav(out_dir / wav_rel, 0.5 * np.sin(2 * np.pi * freq * t_axis),
                  SAMPLE_RATE)

        words = list(rng.choice(_CONTENT_WORDS, size=WORDS_PER_SAMPLE,
                                replace=False))
        asr_rel = f"text/{sid}.asr.txt"
        (out_dir / asr_rel).write_text(" ".join(words) + "\n", encoding="utf-8")
        if label == 1:
            keep = int(round((1.0 - overlap_gap) * WORDS_PER_SAMPLE))
            replacements = list(rng.choice(_REPLACEMENT_WORDS,
                                           size=WORDS_PER_SAMPLE - keep,
                                           replace=False))
            ocr_words = words[:keep] + replacements
        else:
            ocr_words = list(words)
        ocr_rel = f"text/{sid}.ocr.txt"
        (out_dir / ocr_rel).write_text(" ".join(ocr_words) + "\n", encoding="utf-8")

        entries.append({
            "id": sid,
            "label": label,
            "frames": frame_paths,
            "audio": wav_rel,
            "asr_text": asr_rel,
            "ocr_text": ocr_rel,
            "split": splits[i],
        })

    manifest_path = out_dir / "manifest.json"
    files.write_json(manifest_path, entries)
    return manifest_path
