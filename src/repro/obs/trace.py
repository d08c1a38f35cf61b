"""JSONL trace sink: records serialized to compact lines in memory.

:class:`~repro.obs.attach.ObsAttachment` writes one per observed run;
the lines ride back to the runner on the result's artifacts and are
merged into one file in submission order, which is what makes the final
trace byte-identical at any ``--jobs`` value.  The runner publishes the
merged file atomically, like ``--out`` and ``--json``.
"""

from __future__ import annotations

import json
from typing import Dict, List


class TraceWriter:
    """Serializes typed records to compact JSONL lines (no newline)."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, record: Dict[str, object]) -> None:
        """Serialize one record.  Key order is preserved (insertion
        order), separators are compact — both are part of the
        byte-identity contract."""
        self.lines.append(json.dumps(record, separators=(",", ":")))
