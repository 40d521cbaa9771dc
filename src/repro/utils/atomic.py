"""Atomic file writes (stdlib only, importable from every layer)."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file, then ``os.replace``.

    The temp file (``.tmp-*`` with the target's extension) lives in the
    target's directory, so the rename never crosses a file system and
    readers — other processes included — only ever observe a complete
    file.  The temp file is removed if the write fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    suffix = os.path.splitext(path)[1]
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
