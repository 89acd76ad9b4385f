"""Binary model checkpoint container.

Layout (all integers unsigned 32-bit little-endian):

    magic "DAMC" | format version | record count
    per record: kind code | rank | dims... | raw little-endian IEEE-754 payload

Record kind 0 is a metadata record holding ``[model_kind, input_size,
dtype_bits]`` as float64; it tells the loader how to rebuild the
architecture and how wide the remaining payloads are. Metadata that is not
three whole numbers, a model kind other than Agent-1/Agent-2 or a width
other than 32/64 bits is an ingestion fault naming the file and record 0.
``load_checkpoint`` is the one reader, over one open ``files.Reader``.
It first checks the structure -- the metadata, every record's dims against
the payload bounds, then the end of the file -- reading the metadata's 24
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
    chunks = [MAGIC, files.pack("2I", FORMAT_VERSION, len(records) + 1)]
    width = dtype_bits // 8
    for i, (kind, arr) in enumerate([(KIND_META, meta), *records]):
        arr = np.ascontiguousarray(arr, dtype=f"<f{8 if i == 0 else width}")
        chunks += [files.pack(f"{2 + arr.ndim}I", kind, arr.ndim, *arr.shape),
                   arr.tobytes()]
    files.write_bytes(path, b"".join(chunks))


def load_checkpoint(path, build) -> dict:
    """Load the DAMC file ``path`` into the ``(kind, array)`` targets that
    ``build(header)`` returns (a net's ``state()``) and return the header.
    ``build`` runs once the structure has passed; each record must then
    hold finite values, a BatchNorm variance must not be negative and an
    input sigma must be positive. A fault names the file and the record,
    and the file is closed on every path."""
    with files.Reader(path, MAGIC, FORMAT_VERSION, "checkpoint") as reader:
        count = reader.u32()
        if count == 0:
            raise IngestionError(f"{path}: record count 0: no metadata record")
        kind, dims = reader.u32(), reader.dims()
        arr = reader.array(dims, 8, "record 0", f"truncated payload at byte {reader.pos}")
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
            reader.skip_array(dims, width, f"record {idx}",
                              f"truncated payload at byte {reader.pos}")
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
            arr = reader.array(dims, width, f"record {idx}",
                               f"truncated payload at byte {at}")
            fault = ("non-finite value" if not np.isfinite(arr).all() else
                     "negative variance" if kind == KIND_BN_VAR and (arr < 0).any() else
                     "non-positive sigma" if kind == KIND_STD_SIGMA and (arr <= 0).any()
                     else None)
            if fault:
                raise IngestionError(f"{path}: record {idx}: {fault} in kind {kind}")
            target[...] = arr
    return header
