"""Crash-safe file replacement shared by every persistence path.

A snapshot writer that opens its destination with ``open("wb")`` and
crashes mid-write destroys the *previous* good snapshot along with the
new one.  Every durable artefact in this package — result-store
snapshots (including the serve tier's warm-store dumps) and streaming
checkpoints, both array containers (:mod:`repro.engine.container`) —
goes through :func:`atomic_write_bytes` instead: write to a
same-directory temporary file, flush + ``fsync`` it, then
``os.replace`` it over the destination.  ``os.replace`` is atomic on
POSIX and Windows for same-filesystem paths (the same-directory tmp
guarantees that), so a crash at any point leaves either the old file
or the complete new file, never a torn hybrid.  The tmp name carries
the process and thread id, so concurrent writers of one path (the
checkpoint writer thread beside a caller, two threads saving one
store) each replace from their own tmp file and the last rename wins.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path


def atomic_write_bytes(path: Path, payload: bytes) -> Path:
    """Atomically (re)place ``path`` with ``payload``.

    ``payload`` goes to a temporary file in ``path``'s directory, which
    is flushed, fsynced, and renamed over ``path``; the directory entry
    is fsynced too so the rename itself survives a power loss.  On any
    failure the tmp file is removed and the previous ``path`` is left
    untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    try:
        with tmp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry; best-effort on filesystems without it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows, or a filesystem refusing O_RDONLY on dirs
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems cannot fsync directories; rename still atomic
    finally:
        os.close(fd)
