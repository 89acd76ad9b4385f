"""How artifacts reach and leave the disk.

Every artifact is replaced whole: its bytes go to a temporary file in the
same directory, which then replaces the target, so a failed write leaves the
previous file intact. JSON artifacts are two-space-indented UTF-8.
``read_json`` is the one JSON parse of every input (manifest, config,
scores, fold report, cache): a file that cannot be read, text that is not
UTF-8 or not JSON or nests too deep, and an object that repeats a key are
ingestion faults naming the file, and the key where there is one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from deepagent.errors import IngestionError


def write_bytes(path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` (bytes or C-contiguous arrays), each
    written in turn to a temporary file that then replaces it by
    ``os.replace``, so no chunk is copied and a failure leaves the old file
    and no temporary one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Replace ``path`` with ``obj`` as two-space-indented JSON and a newline."""
    write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


def read_json(path, what: str):
    """The JSON value in ``path``, read as UTF-8; ``what`` names the input in
    the fault of a file that cannot be read or parsed."""
    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise IngestionError(f"{path}: repeats key {key!r}")
            out[key] = value
        return out

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique)
    except (OSError, ValueError, RecursionError) as exc:
        raise IngestionError(f"{path}: cannot read {what}: {exc}") from None
