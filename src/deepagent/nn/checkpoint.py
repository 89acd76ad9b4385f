"""Binary model checkpoint container.

Layout (all integers unsigned 32-bit little-endian):

    magic "DAMC" | format version | record count
    per record: kind code | rank | dims... | raw little-endian IEEE-754 payload

Record kind 0 is a metadata record holding ``[model_kind, input_size,
dtype_bits]`` as float64; it tells the loader how to rebuild the
architecture and how wide the remaining payloads are. Metadata that is not
three whole numbers, a model kind other than Agent-1/Agent-2 or a width
other than 32/64 bits is an ingestion fault naming the file and record 0.
Element counts are Python integers, so dims too large for the file fail as
a truncated payload. Round-trips are bit-exact. Saving replaces the file in
one step, so a failed save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from deepagent import atomic
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

_U32 = struct.Struct("<I")


def save_checkpoint(path, records, *, model_kind: int, input_size: int,
                    dtype_bits: int) -> None:
    """Write ``records`` (list of (kind, array)) preceded by a meta record."""
    meta = np.array([model_kind, input_size, dtype_bits], dtype="<f8")
    chunks = [MAGIC, _U32.pack(FORMAT_VERSION), _U32.pack(len(records) + 1)]

    def emit(kind, arr, width):
        chunks.append(_U32.pack(kind))
        chunks.append(_U32.pack(arr.ndim))
        for d in arr.shape:
            chunks.append(_U32.pack(d))
        chunks.append(np.ascontiguousarray(arr, dtype=f"<f{width}").tobytes())

    emit(KIND_META, meta, 8)
    width = dtype_bits // 8
    for kind, arr in records:
        emit(kind, arr, width)
    atomic.write_bytes(path, b"".join(chunks))


def load_checkpoint(path):
    """Return (header dict, list of (kind, float array)) from a DAMC file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise IngestionError(f"{path}: not a DAMC checkpoint (bad magic at byte 0)")
    pos = 4

    def u32():
        nonlocal pos
        if pos + 4 > len(blob):
            raise IngestionError(f"{path}: truncated checkpoint at byte {pos}")
        (val,) = _U32.unpack_from(blob, pos)
        pos += 4
        return val

    version = u32()
    if version != FORMAT_VERSION:
        raise IngestionError(f"{path}: unsupported checkpoint version {version}")
    count = u32()
    width = 8
    header = None
    records = []
    for idx in range(count):
        kind = u32()
        rank = u32()
        dims = tuple(u32() for _ in range(rank))
        n = math.prod(dims)  # a Python int: huge dims cannot wrap around
        size = n * (8 if idx == 0 else width)
        if pos + size > len(blob):
            raise IngestionError(f"{path}: truncated payload at byte {pos}")
        flat = np.frombuffer(blob, dtype=f"<f{8 if idx == 0 else width}",
                             count=n, offset=pos)
        try:
            arr = flat.reshape(dims).copy()
        except ValueError:  # an empty axis beside axes numpy cannot index
            raise IngestionError(
                f"{path}: record {idx}: dims {dims} at byte {pos} describe no array"
            ) from None
        pos += size
        if idx == 0:
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
        else:
            records.append((kind, arr))
    return header, records
