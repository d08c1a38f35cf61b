"""Content-addressed artifact store with verified reads and quarantine.

Layout under the store root::

    objects/<aa>/<digest>      # payload bytes, named by their SHA-256
    quarantine/<digest>.<pid>  # corrupted payloads, moved aside on read

Writes are atomic (:func:`repro.fileio.publish`: temp file in the
destination directory + ``fsync`` + ``os.replace``), so a ``kill -9``
mid-publication leaves at worst an orphaned temp file — never a live
object with torn bytes.  Reads hash the payload and compare against the
name: a mismatch (bit rot, torn copy, truncation by an external tool)
moves the object into ``quarantine/`` and reports a miss, so the caller
re-executes the unit instead of trusting bad bytes.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional

from ..errors import StoreError
from ..fileio import FileLock, publish
from .keys import content_digest

_HEX = set("0123456789abcdef")


def _is_digest(name: str) -> bool:
    return len(name) == 64 and set(name) <= _HEX


class ArtifactStore:
    """Immutable blobs named by their own SHA-256."""

    def __init__(self, root: str, lock: Optional[FileLock] = None):
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.quarantine_dir = os.path.join(root, "quarantine")
        self._lock = lock or FileLock(os.path.join(root, ".lock"))
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, digest[:2], digest)

    # -- writes ------------------------------------------------------------------

    def put(self, data: bytes) -> str:
        """Store ``data``; returns its digest.  Idempotent: storing bytes
        that already exist is a no-op (content addressing dedups)."""
        digest = content_digest(data)
        path = self._path(digest)
        if os.path.exists(path):
            return digest
        with self._lock:
            # A lost publication race found the same bytes already there.
            if not os.path.exists(path):
                publish(path, data)
        return digest

    # -- verified reads ----------------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        """The payload for ``digest``, or ``None`` on miss *or* corruption.

        A corrupt object (stored bytes no longer hash to their name) is
        moved into ``quarantine/`` so the slot frees up for a re-executed
        unit to republish good bytes, and the evidence survives for
        post-mortems.
        """
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        if content_digest(data) != digest:
            self._quarantine(digest, path)
            return None
        return data

    def _quarantine(self, digest: str, path: str) -> None:
        destination = os.path.join(
            self.quarantine_dir, f"{digest}.{os.getpid()}"
        )
        try:
            os.replace(path, destination)
        except OSError:  # pragma: no cover - racing quarantiners
            pass

    # -- maintenance -------------------------------------------------------------

    def contains(self, digest: str) -> bool:
        return os.path.exists(self._path(digest))

    def digests(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if _is_digest(name):
                    yield name

    def quarantined(self) -> List[str]:
        return sorted(os.listdir(self.quarantine_dir))

    def delete(self, digest: str) -> bool:
        """Remove one object (``gc`` uses this); True if it existed."""
        if not _is_digest(digest):
            raise StoreError(f"not a content digest: {digest!r}")
        with self._lock:
            try:
                os.remove(self._path(digest))
                return True
            except FileNotFoundError:
                return False

    def purge_quarantine(self) -> int:
        """Delete quarantined payloads; returns how many were removed."""
        removed = 0
        with self._lock:
            for name in self.quarantined():
                os.remove(os.path.join(self.quarantine_dir, name))
                removed += 1
        return removed
