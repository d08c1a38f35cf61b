"""Protocol message types and a message accountant.

The simulator executes protocol operations at operation granularity (a
join is one event, not a packet exchange), but every operation is priced
in messages so that control-plane overhead can be reported alongside the
paper's reconnection-count metric.  The message catalogue follows the
protocol descriptions in Sections 3 and 4.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


class MessageType(enum.Enum):
    """Every control message named by the paper's protocols."""

    # Tree construction (Section 3.3)
    JOIN = "join"
    ACCEPT = "accept"
    REJECT = "reject"
    LEAVE = "leave"
    # BTP-based switching (Section 3.3)
    BTP_QUERY = "btp_query"
    BTP_REPLY = "btp_reply"
    LOCK_REQUEST = "lock_request"
    LOCK_GRANT = "lock_grant"
    LOCK_DENY = "lock_deny"
    SWITCH_COMMIT = "switch_commit"
    # Referee mechanism (Section 3.4)
    REFEREE_ASSIGN = "referee_assign"
    REFEREE_QUERY = "referee_query"
    REFEREE_REPLY = "referee_reply"
    HEARTBEAT = "heartbeat"
    # Error recovery (Section 4)
    REPAIR_REQUEST = "repair_request"
    REPAIR_DATA = "repair_data"
    NACK = "nack"
    ELN = "eln"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality.  Enum's own ``__hash__`` is a Python-level
    # ``hash(self._name_)``, called twice by every ``MessageStats.record``.
    # Neither hash is stable across processes (str hashes are salted), so
    # no output can depend on which one is used.
    __hash__ = object.__hash__


@dataclass
class MessageStats:
    """Counts of control messages sent, by type."""

    counts: Counter = field(default_factory=Counter)

    def record(self, message_type: MessageType, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"negative message count {count}")
        self.counts[message_type] += count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{name: count}`` mapping for reports."""
        return {mt.value: self.counts[mt] for mt in MessageType if self.counts[mt]}

    def merge(self, other: "MessageStats") -> None:
        self.counts.update(other.counts)

    def to_payload(self) -> Dict[str, int]:
        """JSON-ready ``{type-value: count}``; inverse of from_payload."""
        return {mt.value: int(self.counts[mt]) for mt in MessageType if self.counts[mt]}

    @classmethod
    def from_payload(cls, data: Dict[str, int]) -> "MessageStats":
        stats = cls()
        for name, count in data.items():
            stats.counts[MessageType(name)] = count
        return stats
