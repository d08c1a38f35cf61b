"""Message accounting."""

import pickle

import pytest

from repro.overlay.messages import MessageStats, MessageType


def test_record_and_total():
    stats = MessageStats()
    stats.record(MessageType.JOIN, 3)
    stats.record(MessageType.ACCEPT)
    assert stats.total == 4
    assert stats.counts[MessageType.JOIN] == 3


def test_as_dict_omits_zero_entries():
    stats = MessageStats()
    stats.record(MessageType.NACK, 2)
    assert stats.as_dict() == {"nack": 2}


def test_merge():
    a, b = MessageStats(), MessageStats()
    a.record(MessageType.ELN, 1)
    b.record(MessageType.ELN, 2)
    b.record(MessageType.REPAIR_DATA, 5)
    a.merge(b)
    assert a.counts[MessageType.ELN] == 3
    assert a.counts[MessageType.REPAIR_DATA] == 5


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        MessageStats().record(MessageType.JOIN, -1)


def test_identity_hash_keeps_counts_reports_and_pickles():
    """MessageType hashes by identity (a C-level slot, not Enum's
    Python-level name hash); reports, merges and pickles are unaffected."""
    assert hash(MessageType.JOIN) == object.__hash__(MessageType.JOIN)
    stats = MessageStats()
    for message_type, count in [
        (MessageType.ELN, 2),
        (MessageType.JOIN, 3),
        (MessageType.ELN, 1),
        (MessageType.HEARTBEAT, 4),
    ]:
        stats.record(message_type, count)
    assert list(stats.as_dict().items()) == [("join", 3), ("heartbeat", 4), ("eln", 3)]
    assert stats.to_payload() == stats.as_dict()
    assert MessageStats.from_payload(stats.to_payload()).counts == stats.counts

    other = MessageStats()
    other.record(MessageType("join"))
    stats.merge(other)
    assert stats.counts[MessageType.JOIN] == 4

    restored = pickle.loads(pickle.dumps(stats))
    assert list(restored.counts.items()) == list(stats.counts.items())
    assert restored.to_payload() == {"join": 4, "heartbeat": 4, "eln": 3}
    restored.record(MessageType.JOIN)
    assert restored.counts[MessageType.JOIN] == 5
