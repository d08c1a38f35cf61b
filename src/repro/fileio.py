"""The one atomic writer and the one file lock.

:func:`publish` writes ``--out``, ``--json``, ``--trace``, store
artifacts, validate reports and baselines, and topology cache entries.
:class:`FileLock` serializes the store's writers and the topology
cache's builders.  This module sits below every package that publishes
files, so ``topology/`` can use it without importing ``store/``.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


def publish(path: str, data: bytes) -> None:
    """Atomically write ``data`` at ``path``, creating missing parents.

    The bytes go to a temp file in the target directory, which is
    fsynced and renamed over ``path``: readers see the previous complete
    file or the new one, even if the process dies mid-write.  A failed
    write removes the temp file.  New files are created 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".repro-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


class FileLock:
    """A reentrant advisory lock bound to one lock-file path.

    Usable as a context manager::

        with FileLock(os.path.join(root, ".lock")):
            ...  # mutate ledger/objects

    Reentrancy matters because a ledger method that takes the lock may
    be called from a store method that already holds it.

    The lock is *advisory* on purpose: readers never take it (reads are
    safe against torn state by construction: files publish via temp
    file + rename and SQLite reads are transactional), so a wedged
    writer can never block triage commands like ``repro.store ls``.  On
    platforms without ``fcntl`` the lock degrades to a no-op.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[int] = None
        self._depth = 0

    def acquire(self) -> None:
        if self._depth > 0:
            self._depth += 1
            return
        if fcntl is not None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(self._handle, fcntl.LOCK_EX)
        self._depth = 1

    def release(self) -> None:
        if self._depth == 0:
            raise RuntimeError("release() without acquire()")
        self._depth -= 1
        if self._depth > 0:
            return
        if self._handle is not None:
            fcntl.flock(self._handle, fcntl.LOCK_UN)
            os.close(self._handle)
            self._handle = None

    @property
    def held(self) -> bool:
        return self._depth > 0

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
