"""Binary feature cache keyed by string ids.

Layout: magic "DAFT", format version (u32 LE), entry count (u32 LE), then
the entry table -- per entry: id length (u32) + UTF-8 id bytes, dtype code
(u32, byte width), rank (u32), dims (u32 each), payload offset (u64 LE from
file start) -- followed by the raw little-endian IEEE-754 payloads, back to
back in table order from the end of the table. Writes are sorted by id so
identical content produces identical bytes, and replace the file whole
(``files.write_bytes``). Reading goes through ``files.Reader`` in that one
order, so dims too large for the file fail as a truncated payload; it also
rejects a key that is not UTF-8, a key that repeats an earlier entry's, a
byte width other than 4 or 8, a payload offset that is not the byte where
the previous payload (or the table) ends, and bytes after the last payload
(or after the header, with no entries), naming the byte offset.
"""

from __future__ import annotations

import numpy as np

from deepagent import files
from deepagent.errors import IngestionError

MAGIC = b"DAFT"
FORMAT_VERSION = 1


def write_cache(path, entries: dict[str, np.ndarray]) -> None:
    """Write the id -> float array mapping; float64 unless given float32."""
    items = []
    for key in sorted(entries):
        arr = np.asarray(entries[key])
        width = 4 if arr.dtype == np.float32 else 8
        items.append((key.encode("utf-8"), np.ascontiguousarray(arr, dtype=f"<f{width}")))
    offset = 12 + sum(4 + len(kb) + 8 + 4 * arr.ndim + 8 for kb, arr in items)
    chunks = [MAGIC, files.pack("2I", FORMAT_VERSION, len(items))]
    for kb, arr in items:
        chunks += [files.pack("I", len(kb)), kb, files.pack(
            f"{2 + arr.ndim}IQ", arr.itemsize, arr.ndim, *arr.shape, offset)]
        offset += arr.nbytes
    files.write_bytes(path, b"".join(chunks + [arr.tobytes() for _, arr in items]))


def read_cache(path) -> dict[str, np.ndarray]:
    with files.Reader(path, MAGIC, FORMAT_VERSION, "cache") as reader:
        table = {}
        for _ in range(reader.u32()):
            start = reader.pos
            try:
                key = reader.take(reader.u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IngestionError(
                    f"{path}: key at byte {start + 4} is not valid UTF-8") from exc
            if key in table:
                raise IngestionError(
                    f"{path}: entry at byte {start} repeats key {key!r}")
            width = reader.u32()
            if width not in (4, 8):
                raise IngestionError(
                    f"{path}: entry {key!r}: byte width {width} at byte {reader.pos - 4} "
                    "is not 4 or 8")
            table[key] = (width, reader.dims(), reader.u64())

        out = {}
        for key, (width, dims, offset) in table.items():
            if offset != reader.pos:
                raise IngestionError(
                    f"{path}: entry {key!r}: payload offset {offset} is not byte "
                    f"{reader.pos}, where the payload must start")
            out[key] = reader.array(dims, width, f"entry {key!r}",
                                    f"payload for {key!r} at byte {offset} truncated")
        reader.finish()
        return out


def update_cache(path, new_entries: dict[str, np.ndarray]) -> None:
    """Merge entries into an existing cache file (or create it)."""
    try:
        current = read_cache(path)
    except FileNotFoundError:
        current = {}
    current.update(new_entries)
    write_cache(path, current)
