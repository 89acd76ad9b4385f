"""Binary model checkpoint container.

Layout (all integers unsigned 32-bit little-endian):

    magic "DAMC" | format version | record count
    per record: kind code | rank | dims... | raw little-endian IEEE-754 payload

Record kind 0 is a metadata record holding ``[model_kind, input_size,
dtype_bits]`` as float64; it tells the loader how to rebuild the
architecture and how wide the remaining payloads are. Metadata that is not
three whole numbers, a model kind other than Agent-1/Agent-2 or a width
other than 32/64 bits is an ingestion fault naming the file and record 0.
Loading reads through ``files.Reader`` in two steps over one open file.
The first checks the structure -- the metadata, every record's dims
against the payload bounds, then the end of the file -- reading the
metadata's 24 payload bytes and seeking past every other payload, so dims
too large for the file fail as a truncated payload and bytes after the last
record fail naming the byte where they start. The second reads the records
one at a time as the caller iterates them, so a load never holds more than
one record's bytes beside what it copies them into. Round-trips are
bit-exact. Saving replaces the file whole (``files.write_bytes``), so a
failed save leaves the previous checkpoint intact.
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


class Records:
    """The records after a checkpoint's metadata, read from its open file:
    ``len`` gives their count without reading them, and iterating reads each
    ``(kind, read-only float array)`` in file order, one at a time, then
    closes the file. They are read once; ``close``, or leaving a ``with``
    block, closes the file before the last one."""

    def __init__(self, reader: files.Reader, width: int, spans: list):
        self.reader, self.width, self.spans = reader, width, spans

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        with self.reader:
            for idx, (kind, dims, at) in enumerate(self.spans, 1):
                self.reader.seek(at)
                yield kind, self.reader.array(dims, self.width, f"record {idx}",
                                              f"truncated payload at byte {at}")

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> Records:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_checkpoint(path) -> tuple[dict, Records]:
    """Return (header dict, ``Records``) from a DAMC file after one pass
    over its structure that reads the metadata payload and seeks past every
    other one; the records hold the file open until they are read or
    closed, and a fault closes it."""
    reader = files.Reader(path, MAGIC, FORMAT_VERSION, "checkpoint")
    try:
        width = 8
        header = None
        spans = []
        for idx in range(reader.u32()):
            kind = reader.u32()
            dims = reader.dims()
            label, truncated = f"record {idx}", f"truncated payload at byte {reader.pos}"
            if idx > 0:
                spans.append((kind, dims, reader.pos))
                reader.skip_array(dims, width, label, truncated)
                continue
            arr = reader.array(dims, width, label, truncated)
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
        if header is None:
            raise IngestionError(f"{path}: record count 0: no metadata record")
        reader.finish()
    except BaseException:
        reader.close()
        raise
    return header, Records(reader, width, spans)
