"""How artifacts reach the disk.

Every artifact is replaced whole: its bytes go to a temporary file in the
same directory, which then replaces the target, so a failed write leaves the
previous file intact. JSON artifacts are two-space-indented UTF-8.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


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
