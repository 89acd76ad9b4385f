"""How artifacts reach and leave the disk.

Every artifact is replaced whole: its bytes go to a temporary file in the
same directory, which then replaces the target, so a failed write leaves the
previous file intact. DAMC checkpoints and the DAFT feature cache share one
little-endian framing (magic, u32 version, u32 counts, ranks and dims, u64
offsets, raw ``<f4``/``<f8`` payloads), framed by ``pack`` and read through
one bounded ``Reader`` over an open file handle.
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
    """Little-endian reads over one binary artifact from one open file
    handle, from byte ``pos``; its size comes from ``os.fstat``, so no read
    stages the whole file, and a payload can be skipped and read later.

    Opening checks the magic and the format version. ``what`` names the
    container in faults: a read that runs past the end of the file is an
    :class:`IngestionError` naming the file and the byte where it began.
    The handle is closed by ``close`` or on leaving a ``with`` block, and
    by a fault while opening.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.fh = open(path, "rb")
        self.path, self.what, self.pos = path, what, 0
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            if self.size < 4 or self.take(4) != magic:
                raise IngestionError(
                    f"{path}: not a {magic.decode()} {what} (bad magic at byte 0)")
            found = self.u32()
            if found != version:
                raise IngestionError(f"{path}: unsupported {what} version {found}")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.fh.close()

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _advance(self, size: int) -> int:  # returns where the bytes start
        at = self.pos
        if at + size > self.size:
            raise IngestionError(f"{self.path}: truncated {self.what} at byte {at}")
        self.pos = at + size
        return at

    def seek(self, pos: int) -> None:
        self.fh.seek(pos)
        self.pos = pos

    def take(self, size: int) -> bytes:
        at = self._advance(size)
        data = self.fh.read(size)
        if len(data) != size:  # the file shrank after it was opened
            raise IngestionError(f"{self.path}: truncated {self.what} at byte {at}")
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def dims(self) -> tuple[int, ...]:
        """A u32 rank followed by that many u32 dims."""
        return tuple(self.u32() for _ in range(self.u32()))

    def _payload(self, dims, width: int, label: str, truncated: str) -> int:
        """The byte size of the ``<f{width}`` array of shape ``dims`` at
        ``pos``. The element count is a Python int, so dims of any size that
        describe more data than the file holds fail with the ``truncated``
        text; an empty axis beside axes numpy cannot index fails naming
        ``label``."""
        n = math.prod(dims)
        if self.pos + n * width > self.size:
            raise IngestionError(f"{self.path}: {truncated}")
        if n == 0:
            try:
                np.empty(0, dtype=f"<f{width}").reshape(dims)
            except ValueError:
                raise IngestionError(f"{self.path}: {label}: dims {dims} at byte "
                                     f"{self.pos} describe no array") from None
        return n * width

    def skip_array(self, dims, width: int, label: str, truncated: str) -> None:
        """Check the array at ``pos`` as ``_payload`` does and seek past
        it, reading none of its bytes."""
        self.seek(self.pos + self._payload(dims, width, label, truncated))

    def array(self, dims, width: int, label: str, truncated: str) -> np.ndarray:
        """The ``<f{width}`` array of shape ``dims`` read from ``pos``,
        checked as ``_payload`` does: a read-only view of its own payload
        bytes, so the file's other bytes are never held."""
        data = self.take(self._payload(dims, width, label, truncated))
        return np.frombuffer(data, dtype=f"<f{width}").reshape(dims)

    def finish(self) -> None:
        """Fault when the file goes on past the last byte read or skipped."""
        if self.size > self.pos:
            raise IngestionError(
                f"{self.path}: {self.size - self.pos} bytes of trailing data "
                f"at byte {self.pos}, after the {self.what}")
