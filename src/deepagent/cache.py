"""Binary feature cache keyed by string ids.

Layout: magic "DAFT", format version (u32 LE), entry count (u32 LE), then
the entry table -- per entry: id length (u32) + UTF-8 id bytes, dtype code
(u32, byte width), rank (u32), dims (u32 each), payload offset (u64 LE from
file start) -- followed by the raw little-endian IEEE-754 payloads. Writes
are sorted by id so identical content produces identical bytes, and replace
the file in one step, so a failed write leaves the previous cache intact.
Reading rejects a key that is not UTF-8 and a byte width other than 4 or 8,
naming the byte offset.
"""

from __future__ import annotations

import struct

import numpy as np

from deepagent import atomic
from deepagent.errors import IngestionError

MAGIC = b"DAFT"
FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def write_cache(path, entries: dict[str, np.ndarray]) -> None:
    """Write the id -> float array mapping; float64 unless given float32."""
    items = []
    for key in sorted(entries):
        arr = np.asarray(entries[key])
        width = 4 if arr.dtype == np.float32 else 8
        items.append((key, np.ascontiguousarray(arr, dtype=f"<f{width}"), width))

    table_size = 4 + 4 + 4
    for key, arr, _ in items:
        table_size += 4 + len(key.encode("utf-8")) + 4 + 4 + 4 * arr.ndim + 8

    chunks = [MAGIC, _U32.pack(FORMAT_VERSION), _U32.pack(len(items))]
    offset = table_size
    payloads = []
    for key, arr, width in items:
        kb = key.encode("utf-8")
        chunks.append(_U32.pack(len(kb)))
        chunks.append(kb)
        chunks.append(_U32.pack(width))
        chunks.append(_U32.pack(arr.ndim))
        for d in arr.shape:
            chunks.append(_U32.pack(d))
        chunks.append(_U64.pack(offset))
        payload = arr.tobytes()
        payloads.append(payload)
        offset += len(payload)
    atomic.write_bytes(path, b"".join(chunks) + b"".join(payloads))


def read_cache(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise IngestionError(f"{path}: not a feature cache (bad magic)")
    pos = 4

    def u32():
        nonlocal pos
        if pos + 4 > len(blob):
            raise IngestionError(f"{path}: truncated cache at byte {pos}")
        (v,) = _U32.unpack_from(blob, pos)
        pos += 4
        return v

    version = u32()
    if version != FORMAT_VERSION:
        raise IngestionError(f"{path}: unsupported cache version {version}")
    count = u32()
    table = []
    for _ in range(count):
        klen = u32()
        try:
            key = blob[pos:pos + klen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: key at byte {pos} is not valid UTF-8") from exc
        pos += klen
        width = u32()
        if width not in (4, 8):
            raise IngestionError(
                f"{path}: entry {key!r}: byte width {width} at byte {pos - 4} "
                "is not 4 or 8")
        rank = u32()
        dims = tuple(u32() for _ in range(rank))
        if pos + 8 > len(blob):
            raise IngestionError(f"{path}: truncated cache at byte {pos}")
        (offset,) = _U64.unpack_from(blob, pos)
        pos += 8
        table.append((key, width, dims, offset))

    out = {}
    for key, width, dims, offset in table:
        n = int(np.prod(dims)) if dims else 1
        end = offset + n * width
        if end > len(blob):
            raise IngestionError(f"{path}: payload for {key!r} truncated")
        out[key] = np.frombuffer(blob, dtype=f"<f{width}", count=n,
                                 offset=offset).reshape(dims).copy()
    return out


def update_cache(path, new_entries: dict[str, np.ndarray]) -> None:
    """Merge entries into an existing cache file (or create it)."""
    try:
        current = read_cache(path)
    except FileNotFoundError:
        current = {}
    current.update(new_entries)
    write_cache(path, current)
