"""Event and event-queue primitives for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The monotonically
increasing sequence number makes ordering total and deterministic: two
events scheduled for the same instant at the same priority fire in the
order they were scheduled, which keeps every simulation run exactly
reproducible for a given seed.

The ordering lives in the heap entries alone: the heap stores plain
``(time, priority, seq, event)`` tuples, so sift operations compare
small tuples of floats/ints in C, and the ``seq`` component is unique,
so the trailing ``event`` element is never compared.  :class:`Event`
therefore defines no ordering (events compare by identity) and uses
``__slots__`` to keep instances small and attribute access off the
instance-dict path — together these are the kernel's single hottest
allocation and comparison site.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback.

    Instances are created by :meth:`EventQueue.schedule`; user code normally
    holds one only to :meth:`cancel` it.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
        _queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled
        self._queue = _queue

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so it is skipped when it reaches the queue head.

        Cancellation is lazy (O(1)): the entry stays in the heap and is
        dropped when it surfaces.  Cancelling twice is a no-op.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Insert ``action`` to fire at ``time``; returns a cancellable handle."""
        if time != time:  # NaN guard
            raise SimulationError("cannot schedule an event at time NaN")
        seq = next(self._seq)
        event = Event(time, priority, seq, action, label, False, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next live event."""
        self._drop_cancelled_head()
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        event = heapq.heappop(self._heap)[3]
        self._live -= 1
        # The event has left the queue: cancelling its handle later (e.g. a
        # timer disarmed after firing) must not touch the live count.
        event._queue = None
        return event

    def live_events(self):
        """Iterate over the pending (non-cancelled) events, heap order.

        O(n) diagnostic surface for audits and invariant checking; the
        hot path never calls it.  The iteration order is the raw heap
        layout, not firing order.
        """
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled:
                yield event

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def clear(self) -> None:
        """Discard every pending event."""
        for entry in self._heap:
            entry[3].cancelled = True
        self._heap.clear()
        self._live = 0
