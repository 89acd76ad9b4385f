"""Feature cache keyed by string ids, stored as one JSON object.

The object maps each key (``<id>/feature``, and ``<id>/scores`` after
``fuse``) to its list of float64 values. Python writes each float as its
shortest repr, which reads back to the same float64, so a round-trip is
bit-exact. Writes sort the keys, so identical content produces identical
bytes, and replace the file whole (``files.write_json``). Reading returns
1-D float64 arrays; text that is not UTF-8 or not JSON or nests too deep, a
top level that is not an object, a repeated key and a value that is not a
list of finite numbers a float64 can hold are ingestion faults naming the
file, and the key where there is one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from deepagent import files
from deepagent.errors import IngestionError


def write_cache(path, entries: dict[str, np.ndarray]) -> None:
    """Write the id -> float64 vector mapping."""
    files.write_json(path, {key: np.asarray(entries[key], dtype=np.float64).tolist()
                            for key in sorted(entries)})


def _floats(value) -> np.ndarray | None:
    """``value`` as a float64 vector, or None unless it is a list of finite
    numbers a float64 can hold."""
    # type(), not isinstance(): a boolean is no number here
    if not (isinstance(value, list) and set(map(type, value)) <= {int, float}):
        return None
    try:
        arr = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer float() cannot convert
        return None
    return arr if np.isfinite(arr).all() else None


def read_cache(path) -> dict[str, np.ndarray]:
    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise IngestionError(f"{path}: repeats key {key!r}")
            out[key] = value
        return out

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise IngestionError(f"{path}: cannot read cache: {exc}") from None
    if not isinstance(data, dict):
        raise IngestionError(f"{path}: cache must be a JSON object")
    out = {}
    for key, value in data.items():
        out[key] = _floats(value)
        if out[key] is None:
            raise IngestionError(
                f"{path}: entry {key!r} must be a list of finite float64 numbers")
    return out


def update_cache(path, new_entries: dict[str, np.ndarray]) -> None:
    """Merge entries into an existing cache file (or create it)."""
    try:
        current = read_cache(path)
    except FileNotFoundError:
        current = {}
    current.update(new_entries)
    write_cache(path, current)
