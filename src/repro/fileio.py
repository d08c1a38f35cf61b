"""The one atomic writer: ``--out``, ``--json``, ``--trace``, store
artifacts, validate reports and baselines, and topology cache entries.

It sits below every package that publishes files, so ``topology/`` can
use it without importing ``store/``.
"""

from __future__ import annotations

import os
import tempfile


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
