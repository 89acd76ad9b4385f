"""Binary model checkpoint container.

Layout (all integers unsigned 32-bit little-endian):

    magic "DAMC" | format version | record count
    per record: kind code | rank | dims... | raw little-endian IEEE-754 payload

Record kind 0 is a metadata record holding ``[model_kind, input_size,
dtype_bits]`` as float64; it tells the loader how to rebuild the
architecture and how wide the remaining payloads are. Metadata that is not
three whole numbers, a model kind other than Agent-1/Agent-2 or a width
other than 32/64 bits is an ingestion fault naming the file and record 0.
DAMC is the package's one binary format, and this module holds all of
its framing: ``save_checkpoint`` writes it and ``Reader`` reads it, over
one open file handle. ``load_checkpoint`` is the one loader. It first
checks the structure -- the metadata, every record's dims against the
payload bounds, then the end of the file -- reading the metadata's 24
payload bytes and seeking past every other payload, so dims too large for
the file fail as a truncated payload and bytes after the last record fail
naming the byte where they start. Only then does it build the targets the
records load into, check the record count against them, and check each
record's kind and shape before reading its payload; a record is read,
checked and copied in before the next is read, so a load never holds more
than one record's bytes beside its targets. Round-trips are bit-exact.
Saving replaces the file whole (``files.write_bytes``), so a failed save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from deepagent import files
from deepagent.errors import IngestionError

MAGIC = b"DAMC"
FORMAT_VERSION = 1

KIND_META = 0
KIND_CONV_KERNEL = 1
KIND_CONV_BIAS = 2
KIND_BN_GAMMA = 3
KIND_BN_BETA = 4
KIND_BN_MEAN = 5
KIND_BN_VAR = 6
KIND_DENSE_W = 7
KIND_DENSE_B = 8
KIND_STD_MU = 9
KIND_STD_SIGMA = 10

MODEL_AGENT1 = 1
MODEL_AGENT2 = 2


class Reader:
    """Little-endian reads over one DAMC file from its open handle ``fh``,
    from byte ``pos``; the size comes from ``os.fstat``, so no read stages
    the whole file, and a payload can be skipped and read later.

    Opening checks the magic and the format version. A read that runs past
    the end of the file is an :class:`IngestionError` naming the file and
    the byte where it began. The caller opens and closes the handle.
    """

    def __init__(self, fh, path):
        self.fh, self.path, self.pos = fh, path, 0
        self.size = os.fstat(fh.fileno()).st_size
        if self.size < 4 or self.take(4) != MAGIC:
            raise IngestionError(f"{path}: not a DAMC checkpoint (bad magic at byte 0)")
        found = self.u32()
        if found != FORMAT_VERSION:
            raise IngestionError(f"{path}: unsupported checkpoint version {found}")

    def seek(self, pos: int) -> None:
        self.fh.seek(pos)
        self.pos = pos

    def take(self, size: int) -> bytes:
        # short when it runs past the end, or the file shrank after it was opened
        data = self.fh.read(size) if self.pos + size <= self.size else b""
        if len(data) != size:
            raise IngestionError(f"{self.path}: truncated checkpoint at byte {self.pos}")
        self.pos += size
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def dims(self) -> tuple[int, ...]:
        """A u32 rank followed by that many u32 dims."""
        return tuple(self.u32() for _ in range(self.u32()))

    def _payload(self, dims, width: int, idx: int) -> int:
        """The byte size of record ``idx``'s ``<f{width}`` payload of shape
        ``dims`` at ``pos``. The element count is a Python int, so dims of
        any size that describe more data than the file holds fail as a
        truncated payload; an empty axis beside axes numpy cannot index
        fails naming the record."""
        n = math.prod(dims)
        if self.pos + n * width > self.size:
            raise IngestionError(f"{self.path}: truncated payload at byte {self.pos}")
        if n == 0:
            try:
                np.empty(0, dtype=f"<f{width}").reshape(dims)
            except ValueError:
                raise IngestionError(f"{self.path}: record {idx}: dims {dims} at byte "
                                     f"{self.pos} describe no array") from None
        return n * width

    def skip_array(self, dims, width: int, idx: int) -> None:
        """Check record ``idx``'s payload at ``pos`` as ``_payload`` does
        and seek past it, reading none of its bytes."""
        self.seek(self.pos + self._payload(dims, width, idx))

    def array(self, dims, width: int, idx: int) -> np.ndarray:
        """Record ``idx``'s ``<f{width}`` payload of shape ``dims`` read from
        ``pos``, checked as ``_payload`` does: a read-only view of its own
        payload bytes, so the file's other bytes are never held."""
        data = self.take(self._payload(dims, width, idx))
        return np.frombuffer(data, dtype=f"<f{width}").reshape(dims)

    def finish(self) -> None:
        """Fault when the file goes on past the last byte read or skipped."""
        if self.size > self.pos:
            raise IngestionError(
                f"{self.path}: {self.size - self.pos} bytes of trailing data "
                f"at byte {self.pos}, after the checkpoint")


def save_checkpoint(path, records, *, model_kind: int, input_size: int,
                    dtype_bits: int) -> None:
    """Write ``records`` (list of (kind, array)) preceded by a meta record."""
    meta = np.array([model_kind, input_size, dtype_bits], dtype="<f8")
    chunks = [MAGIC, struct.pack("<2I", FORMAT_VERSION, len(records) + 1)]
    width = dtype_bits // 8
    for i, (kind, arr) in enumerate([(KIND_META, meta), *records]):
        arr = np.ascontiguousarray(arr, dtype=f"<f{8 if i == 0 else width}")
        chunks += [struct.pack(f"<{2 + arr.ndim}I", kind, arr.ndim, *arr.shape), arr]
    files.write_bytes(path, *chunks)


def load_checkpoint(path, build) -> dict:
    """Load the DAMC file ``path`` into the ``(kind, array)`` targets that
    ``build(header)`` returns (a net's ``state()``) and return the header.
    ``build`` runs once the structure has passed; each record must then
    hold finite values, a BatchNorm variance must not be negative and an
    input sigma must be positive. A fault names the file and the record,
    and the file is closed on every path."""
    with open(path, "rb") as fh:
        reader = Reader(fh, path)
        count = reader.u32()
        if count == 0:
            raise IngestionError(f"{path}: record count 0: no metadata record")
        kind, dims = reader.u32(), reader.dims()
        arr = reader.array(dims, 8, 0)
        if (kind != KIND_META or arr.shape != (3,) or not np.isfinite(arr).all()
                or (arr != np.round(arr)).any()):
            raise IngestionError(
                f"{path}: record 0: metadata must be three whole numbers")
        header = {
            "model_kind": int(arr[0]),
            "input_size": int(arr[1]),
            "dtype_bits": int(arr[2]),
        }
        if header["model_kind"] not in (MODEL_AGENT1, MODEL_AGENT2):
            raise IngestionError(
                f"{path}: record 0: unknown model kind {header['model_kind']}")
        if header["dtype_bits"] not in (32, 64):
            raise IngestionError(
                f"{path}: record 0: dtype_bits must be 32 or 64, "
                f"got {header['dtype_bits']}")
        width = header["dtype_bits"] // 8
        spans = []
        for idx in range(1, count):
            kind, dims = reader.u32(), reader.dims()
            spans.append((kind, dims, reader.pos))
            reader.skip_array(dims, width, idx)
        reader.finish()

        state = build(header)
        if len(spans) != len(state):
            # record 0 is the metadata, so the first missing or extra one is
            # numbered one past the shorter list
            raise IngestionError(
                f"{path}: record {min(len(spans), len(state)) + 1}: expected "
                f"{len(state)} records after the metadata, found {len(spans)}")
        for idx, ((kind, target), (found, dims, at)) in enumerate(zip(state, spans), 1):
            if found != kind or dims != target.shape:
                raise IngestionError(
                    f"{path}: record {idx}: expected kind {kind} shape {target.shape}, "
                    f"found kind {found} shape {dims}")
            reader.seek(at)
            arr = reader.array(dims, width, idx)
            fault = ("non-finite value" if not np.isfinite(arr).all() else
                     "negative variance" if kind == KIND_BN_VAR and (arr < 0).any() else
                     "non-positive sigma" if kind == KIND_STD_SIGMA and (arr <= 0).any()
                     else None)
            if fault:
                raise IngestionError(f"{path}: record {idx}: {fault} in kind {kind}")
            target[...] = arr
    return header
