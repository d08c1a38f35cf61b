"""Event queue ordering, cancellation and determinism."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


def test_pops_in_time_order():
    q = EventQueue()
    fired = []
    for t in [5.0, 1.0, 3.0]:
        q.schedule(t, lambda t=t: fired.append(t))
    while q:
        q.pop().action()
    assert fired == [1.0, 3.0, 5.0]


def test_same_time_fifo_by_schedule_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.schedule(1.0, lambda i=i: order.append(i))
    while q:
        q.pop().action()
    assert order == list(range(10))


def test_priority_breaks_time_ties():
    q = EventQueue()
    order = []
    q.schedule(1.0, lambda: order.append("late"), priority=5)
    q.schedule(1.0, lambda: order.append("early"), priority=-5)
    while q:
        q.pop().action()
    assert order == ["early", "late"]


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    keep = q.schedule(1.0, lambda: fired.append("keep"))
    drop = q.schedule(0.5, lambda: fired.append("drop"))
    drop.cancel()
    while q:
        q.pop().action()
    assert fired == ["keep"]
    assert not keep.cancelled


def test_cancel_is_idempotent_and_len_accurate():
    q = EventQueue()
    e1 = q.schedule(1.0, lambda: None)
    q.schedule(2.0, lambda: None)
    assert len(q) == 2
    e1.cancel()
    e1.cancel()
    assert len(q) == 1
    assert q.pop().time == 2.0
    assert len(q) == 0
    assert not q


def test_peek_time_skips_cancelled_head():
    q = EventQueue()
    head = q.schedule(1.0, lambda: None)
    q.schedule(2.0, lambda: None)
    head.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_schedule_nan_rejected():
    with pytest.raises(SimulationError):
        EventQueue().schedule(float("nan"), lambda: None)


def test_clear_discards_everything():
    q = EventQueue()
    events = [q.schedule(float(i), lambda: None) for i in range(5)]
    q.clear()
    assert len(q) == 0
    assert q.peek_time() is None
    assert all(e.cancelled for e in events)


def test_clear_drops_actions_and_queue_links():
    """A cleared event never fires, so it keeps neither its action's
    closure nor the queue alive through a handle held elsewhere."""
    q = EventQueue()
    events = [q.schedule(float(i), lambda: None) for i in range(3)]
    events[1].cancel()
    q.clear()
    for event in events:
        assert event.action is None
        assert event._queue is None


def test_labels_are_kept():
    q = EventQueue()
    e = q.schedule(1.0, lambda: None, label="rejoin")
    assert e.label == "rejoin"


# -- _live bookkeeping audit ---------------------------------------------------
#
# ``len(q)``/``bool(q)`` are backed by a counter maintained across lazy
# cancellation; these regressions lock the counter against every sequence
# that has historically corrupted such designs.


def test_double_cancel_does_not_corrupt_len():
    q = EventQueue()
    e1 = q.schedule(1.0, lambda: None)
    e2 = q.schedule(2.0, lambda: None)
    e3 = q.schedule(3.0, lambda: None)
    e2.cancel()
    e2.cancel()
    e2.cancel()
    assert len(q) == 2
    e1.cancel()
    e1.cancel()
    assert len(q) == 1
    assert q.pop() is e3
    assert len(q) == 0 and not q


def test_cancel_then_pop_sequence():
    q = EventQueue()
    events = [q.schedule(float(i), lambda: None) for i in range(6)]
    events[0].cancel()  # cancelled head
    events[3].cancel()  # cancelled middle
    popped = []
    while q:
        popped.append(q.pop())
    assert popped == [events[1], events[2], events[4], events[5]]
    assert len(q) == 0


def test_cancel_after_pop_is_harmless():
    q = EventQueue()
    e1 = q.schedule(1.0, lambda: None)
    q.schedule(2.0, lambda: None)
    popped = q.pop()
    assert popped is e1
    assert len(q) == 1
    # a popped event is no longer the queue's concern; cancelling its
    # handle must not decrement the live count of the remaining events
    popped.cancel()
    assert len(q) == 1
    assert bool(q)
    q.pop()
    assert len(q) == 0


def test_len_consistency_under_mixed_schedule_cancel():
    q = EventQueue()
    live = []
    expected = 0
    for round_no in range(10):
        batch = [q.schedule(float(round_no), lambda: None) for _ in range(5)]
        live.extend(batch)
        expected += 5
        # cancel every other event of this batch, one of them twice
        for event in batch[::2]:
            event.cancel()
            expected -= 1
        batch[0].cancel()
        assert len(q) == expected
        assert bool(q) == (expected > 0)
    drained = 0
    while q:
        q.pop()
        drained += 1
    assert drained == expected
    assert len(q) == 0 and not q


def test_clear_then_cancel_handles_is_safe():
    q = EventQueue()
    events = [q.schedule(float(i), lambda: None) for i in range(4)]
    q.clear()
    for event in events:
        event.cancel()  # must not drive the counter negative
    assert len(q) == 0 and not q
    e = q.schedule(1.0, lambda: None)
    assert len(q) == 1
    assert q.pop() is e


def test_pop_all_cancelled_raises_with_zero_len():
    from repro.errors import SimulationError as SE

    q = EventQueue()
    for event in [q.schedule(float(i), lambda: None) for i in range(3)]:
        event.cancel()
    assert len(q) == 0 and not q
    with pytest.raises(SE):
        q.pop()
