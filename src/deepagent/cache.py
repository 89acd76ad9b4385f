"""Feature cache keyed by string ids, stored as one JSON object.

The object maps each key (``<id>/feature``, and ``<id>/scores`` after
``fuse``) to its list of float64 values. Python writes each float as its
shortest repr, which reads back to the same float64, so a round-trip is
bit-exact. Writes sort the keys, so identical content produces identical
bytes, and replace the file whole (``files.write_json``). Reading parses
through ``files.read_json``, which owns the faults of the text, and returns
1-D float64 arrays; a top level that is not an object and a value that is
not a list of finite numbers a float64 can hold are ingestion faults naming
the file, and the key where there is one. ``update_cache`` merges into a
cache that exists.
"""

from __future__ import annotations

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
    data = files.read_json(path, "cache")
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
    """Merge entries into an existing cache file."""
    current = read_cache(path)
    current.update(new_entries)
    write_cache(path, current)
