"""Whole-file replacement that never leaves a partly written file behind."""

from __future__ import annotations

import os
from pathlib import Path


def write_bytes(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` with ``os.replace``; a failure at any point leaves the
    old file as it was and removes the temporary one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
