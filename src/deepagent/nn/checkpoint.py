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
its framing: ``save_checkpoint`` writes it and ``load_checkpoint``, the
one loader, reads it front to back in one pass over one open file handle.
It checks the magic, the version and the metadata, builds the targets the
records load into and checks the record count against them. Each record's
rank must then match its target's before any of its dims are read, and its
kind and dims before any of its payload bytes are read; the payload is read, checked and copied in before the next
record is read, so a load never holds more than one record's bytes beside
its targets. A payload that runs past the end of the file fails as a
truncated payload, and bytes after the last record fail naming the byte
where they start. When a file has two faults, the first in file order is
reported. Round-trips are bit-exact.
Saving replaces the file whole (``files.write_bytes``), so a failed save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

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
    ``build`` runs once the metadata has passed; each record must then
    hold finite values, a BatchNorm variance must not be negative and an
    input sigma must be positive. A fault names the file and the record or
    byte, and the file is closed on every path."""
    with open(path, "rb") as fh:
        size, pos = os.fstat(fh.fileno()).st_size, 0

        def take(n: int, what: str = "checkpoint") -> bytes:
            nonlocal pos
            # short when it runs past the end, or the file shrank after it was opened
            data = fh.read(n) if pos + n <= size else b""
            if len(data) != n:
                raise IngestionError(f"{path}: truncated {what} at byte {pos}")
            pos += n
            return data

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        def head(ndim: int) -> tuple[int, int, tuple[int, ...]]:
            """A record's kind code and u32 rank, then that many u32 dims,
            but none when the rank is not its target's ``ndim``: that rank
            is already a mismatch, whatever dims follow."""
            kind, rank = u32(), u32()
            return kind, rank, tuple(u32() for _ in range(rank if rank == ndim else 0))

        if size < 4 or take(4) != MAGIC:
            raise IngestionError(f"{path}: not a DAMC checkpoint (bad magic at byte 0)")
        found = u32()
        if found != FORMAT_VERSION:
            raise IngestionError(f"{path}: unsupported checkpoint version {found}")
        count = u32()
        if count == 0:
            raise IngestionError(f"{path}: record count 0: no metadata record")
        meta = (np.frombuffer(take(24, "payload"), dtype="<f8")
                if head(1) == (KIND_META, 1, (3,)) else None)
        if meta is None or not np.isfinite(meta).all() or (meta != np.round(meta)).any():
            raise IngestionError(
                f"{path}: record 0: metadata must be three whole numbers")
        header = {
            "model_kind": int(meta[0]),
            "input_size": int(meta[1]),
            "dtype_bits": int(meta[2]),
        }
        if header["model_kind"] not in (MODEL_AGENT1, MODEL_AGENT2):
            raise IngestionError(
                f"{path}: record 0: unknown model kind {header['model_kind']}")
        if header["dtype_bits"] not in (32, 64):
            raise IngestionError(
                f"{path}: record 0: dtype_bits must be 32 or 64, "
                f"got {header['dtype_bits']}")
        width = header["dtype_bits"] // 8

        state = build(header)
        if count - 1 != len(state):
            # record 0 is the metadata, so the first missing or extra one is
            # numbered one past the shorter list
            raise IngestionError(
                f"{path}: record {min(count - 1, len(state)) + 1}: expected "
                f"{len(state)} records after the metadata, found {count - 1}")
        for idx, (kind, target) in enumerate(state, 1):
            found, rank, dims = head(target.ndim)
            if found != kind or dims != target.shape:
                raise IngestionError(
                    f"{path}: record {idx}: expected kind {kind} shape {target.shape}, "
                    f"found kind {found} "
                    + (f"shape {dims}" if rank == target.ndim else f"rank {rank}"))
            # a read-only view of the record's own payload bytes, not a copy
            arr = np.frombuffer(take(target.size * width, "payload"),
                                dtype=f"<f{width}").reshape(dims)
            fault = ("non-finite value" if not np.isfinite(arr).all() else
                     "negative variance" if kind == KIND_BN_VAR and (arr < 0).any() else
                     "non-positive sigma" if kind == KIND_STD_SIGMA and (arr <= 0).any()
                     else None)
            if fault:
                raise IngestionError(f"{path}: record {idx}: {fault} in kind {kind}")
            target[...] = arr
        if size > pos:
            raise IngestionError(f"{path}: {size - pos} bytes of trailing data "
                                 f"at byte {pos}, after the checkpoint")
    return header
