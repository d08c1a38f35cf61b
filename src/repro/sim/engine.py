"""The simulation engine: a virtual clock driving an event queue."""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .events import Event, EventQueue

#: Process-wide count of events dispatched by every Simulator instance.
#: Accumulated once per run (not per event) so the hot loop stays clean;
#: benchmarks snapshot it around a figure to report per-figure workload.
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events dispatched by all simulators in this process so far."""
    return _TOTAL_EVENTS


class Simulator:
    """Single-threaded discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule_at(10.0, lambda: print("fires at t=10"))
        sim.run_until(100.0)
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._listeners: List[object] = []
        #: topic -> the subscribed ``on_<topic>`` methods, in subscription
        #: order.  Tuples, replaced (never mutated) on subscribe, so a
        #: snapshot taken by a running loop or a publish in progress is
        #: never affected by a subscription made meanwhile.
        self._handlers: Dict[str, Tuple[Callable, ...]] = {}
        #: Optional profiling hook: ``profile(event, wall_s)`` runs after
        #: each action with its wall-clock duration in seconds.  ``None``
        #: (the default) keeps the dispatch loop free of any timing calls;
        #: used by :mod:`repro.obs` for per-event-type attribution.
        self.profile: Optional[Callable[[Event, float], None]] = None

    # -- listeners ---------------------------------------------------------------

    def subscribe(self, listener: object) -> None:
        """Append ``listener`` to the simulator's listener list.

        Every ``on_<topic>`` method ``listener`` defines is filed under
        ``<topic>``, and every producer calls a topic's methods in
        subscription order.  The dispatch loop itself produces
        ``event_pre(event)`` (clock advanced, action not yet run) and
        ``event_post(event)`` (action returned: a quiescent point).  It
        reads them once at entry, so a subscription made from inside an
        event action reaches those two topics at the next run call; every
        other topic is read when it is published.
        """
        self._listeners.append(listener)
        handlers = self._handlers
        for name in dir(listener):
            if name.startswith("on_"):
                topic = name[3:]
                method = getattr(listener, name)
                handlers[topic] = handlers.get(topic, ()) + (method,)

    @property
    def listeners(self) -> Tuple[object, ...]:
        """The subscribed listeners, in subscription order."""
        return tuple(self._listeners)

    def handlers(self, topic: str) -> Tuple[Callable, ...]:
        """The methods subscribed to ``topic``, in subscription order.

        For producers that build their message only when someone listens.
        """
        return self._handlers.get(topic, ())

    def publish(self, topic: str, *args) -> None:
        """Call every method subscribed to ``topic`` with ``args``."""
        for handler in self._handlers.get(topic, ()):
            handler(*args)

    @property
    def event_queue(self) -> EventQueue:
        """The underlying queue (read-only diagnostic surface)."""
        return self._queue

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        return len(self._queue)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``.

        Scheduling in the past raises :class:`SimulationError` — silent
        time travel is a classic source of unreproducible runs.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        if time != time:  # NaN guard (mirrors EventQueue.schedule)
            raise SimulationError("cannot schedule an event at time NaN")
        queue = self._queue
        seq = next(queue._seq)
        event = Event(time, priority, seq, action, label, False, queue)
        heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` (>= 0) seconds.

        The queue insert is inlined (same steps as ``EventQueue.schedule``)
        because this is the single hottest scheduling entry point — every
        timer in every simulation goes through here.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard (mirrors EventQueue.schedule)
            raise SimulationError("cannot schedule an event at time NaN")
        queue = self._queue
        seq = next(queue._seq)
        event = Event(time, priority, seq, action, label, False, queue)
        heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def run_until(self, end_time: float) -> None:
        """Process events in order until virtual time reaches ``end_time``.

        The clock is left exactly at ``end_time`` even if the queue drains
        earlier, so back-to-back ``run_until`` calls compose naturally.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) but now is t={self._now}"
            )
        self._dispatch("run_until", end_time, None)
        self._now = end_time

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue completely (or up to ``max_events`` events)."""
        self._dispatch("run", math.inf, max_events)

    def _dispatch(
        self, caller: str, end_time: float, max_events: Optional[int]
    ) -> None:
        """The one dispatch loop: fire events in order while the next one
        is due at or before ``end_time``, at most ``max_events`` of them."""
        if self._running:
            raise SimulationError(f"{caller} re-entered from an event action")
        self._running = True
        entered = self._events_processed
        limit = sys.maxsize if max_events is None else entered + max_events
        # Fast path: the queue head test and pop are inlined (same steps as
        # EventQueue.peek_time + EventQueue.pop, minus most of the
        # method-call overhead) and the event topics are snapshotted once
        # (None when nobody listens), so with no listener an event costs
        # one ``is None`` test per topic; per-event cost is what pays for
        # 300k+ events per figure.  ``limit`` stays an int: an int-float
        # comparison per event is measurably slower.
        # The cancelled-head filter stays a queue method so the filtering
        # policy has exactly one implementation (it is also the seam the
        # mutation-smoke suite sabotages to prove the invariant checker
        # catches cancelled events firing).
        queue = self._queue
        heap = queue._heap
        drop_cancelled = queue._drop_cancelled_head
        pre = self._handlers.get("event_pre")
        post = self._handlers.get("event_post")
        profile = self.profile
        processed = entered
        try:
            while processed < limit:
                drop_cancelled()
                if not heap or heap[0][0] > end_time:
                    break
                event = heappop(heap)[3]
                queue._live -= 1
                event._queue = None
                self._now = event.time
                processed += 1
                if pre is not None:
                    for handler in pre:
                        handler(event)
                if profile is None:
                    event.action()
                else:
                    started = perf_counter()
                    event.action()
                    profile(event, perf_counter() - started)
                if post is not None:
                    for handler in post:
                        handler(event)
        finally:
            self._running = False
            self._events_processed = processed
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += processed - entered

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
