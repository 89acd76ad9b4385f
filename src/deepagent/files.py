"""How artifacts reach and leave the disk.

Every artifact is replaced whole: its bytes go to a temporary file in the
same directory, which then replaces the target, so a failed write leaves the
previous file intact. DAMC checkpoints and the DAFT feature cache share one
little-endian framing (magic, u32 version, u32 counts, ranks and dims, u64
offsets, raw ``<f4``/``<f8`` payloads), framed by ``pack`` and read through
one bounded ``Reader``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from deepagent.errors import IngestionError


def write_bytes(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file and
    ``os.replace``; a failure leaves the old file and no temporary one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Replace ``path`` with ``obj`` as two-space-indented JSON and a newline."""
    write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


def pack(fmt: str, *values) -> bytes:
    """``values`` packed little-endian by the ``struct`` format ``fmt``."""
    return struct.pack("<" + fmt, *values)


class Reader:
    """Little-endian reads over one binary artifact, in order from byte
    ``pos``; nothing seeks, so ``pos`` is also the furthest byte read.

    Opening checks the magic and the format version. ``what`` names the
    container in faults: a read that runs past the end of the file is an
    :class:`IngestionError` naming the file and the byte where it began.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path, self.what = path, what
        if self.blob[:4] != magic:
            raise IngestionError(
                f"{path}: not a {magic.decode()} {what} (bad magic at byte 0)")
        self.pos = 4
        found = self.u32()
        if found != version:
            raise IngestionError(f"{path}: unsupported {what} version {found}")

    def _advance(self, size: int) -> int:  # returns where the bytes start
        at = self.pos
        if at + size > len(self.blob):
            raise IngestionError(f"{self.path}: truncated {self.what} at byte {at}")
        self.pos = at + size
        return at

    def take(self, size: int) -> bytes:
        return self.blob[self._advance(size):self.pos]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.blob, self._advance(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.blob, self._advance(8))[0]

    def dims(self) -> tuple[int, ...]:
        """A u32 rank followed by that many u32 dims."""
        return tuple(self.u32() for _ in range(self.u32()))

    def array(self, dims, width: int, label: str, truncated: str) -> np.ndarray:
        """A read-only view of the ``<f{width}`` array of shape ``dims`` at
        ``pos``, over the file's bytes, which it keeps alive. The element
        count is a Python int, so dims of any size that describe more data
        than the file holds fail with the ``truncated`` text; an empty axis
        beside axes numpy cannot index fails naming ``label``."""
        at, n = self.pos, math.prod(dims)
        if at + n * width > len(self.blob):
            raise IngestionError(f"{self.path}: {truncated}")
        flat = np.frombuffer(self.blob, dtype=f"<f{width}", count=n, offset=at)
        try:
            arr = flat.reshape(dims)
        except ValueError:
            raise IngestionError(f"{self.path}: {label}: dims {dims} at byte {at} "
                                 "describe no array") from None
        self._advance(n * width)
        return arr

    def finish(self) -> None:
        """Fault when the file goes on past the last byte read."""
        if len(self.blob) > self.pos:
            raise IngestionError(
                f"{self.path}: {len(self.blob) - self.pos} bytes of trailing data "
                f"at byte {self.pos}, after the {self.what}")
