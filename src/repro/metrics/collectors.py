"""Event collectors populated by the churn simulation driver.

:class:`ChurnMetrics` accumulates exactly the raw quantities the paper's
Figures 4-11 are computed from.  All counters respect the measurement
window: events before ``window_start`` (warm-up) or after ``window_end``
are ignored, matching the paper's "steady state" methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .stats import mean_and_ci


def exact_num(value):
    """Normalize a number for an exact JSON payload.

    Preserves the int/float distinction — JSON keeps it, and the figure
    code downstream is type-sensitive (a probe count serialized as
    ``0.0`` would make a replayed result differ from a fresh one by a
    single trailing ``.0`` in ``--json``).  Plain ints stay ints;
    everything else (incl. numpy scalars) becomes a Python float, which
    ``repr``-round-trips bit-for-bit.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    return float(value)


@dataclass
class TimeSeries:
    """An append-only (time, value) series (probe member figures 6 & 9)."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"time going backwards: {t} after {self.times[-1]}")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def as_pairs(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def to_payload(self) -> dict:
        """JSON-ready exact form (floats round-trip bit-for-bit)."""
        return {
            "times": [exact_num(t) for t in self.times],
            "values": [exact_num(v) for v in self.values],
        }

    @classmethod
    def from_payload(cls, data: dict) -> "TimeSeries":
        return cls(times=list(data["times"]), values=list(data["values"]))


class ChurnMetrics:
    """Raw metric accumulation for one churn run.

    The driver calls the ``record_*`` methods; experiments read the
    ``avg_*`` properties after the run.
    """

    def __init__(
        self, window_start: float, window_end: float, mean_lifetime_s: float = math.nan
    ):
        if window_end <= window_start:
            raise ValueError("window_end must be > window_start")
        self.window_start = window_start
        self.window_end = window_end
        #: Mean member lifetime; converts per-node-second event rates into
        #: the paper's per-lifetime metrics.
        self.mean_lifetime_s = mean_lifetime_s
        #: Disruption events (one per affected descendant per failure).
        self.disruption_events = 0
        #: Parent changes caused by the optimizing mechanism (Fig. 10).
        self.optimization_reconnections = 0
        #: Parent changes caused by failure recovery (rejoins).
        self.failure_reconnections = 0
        #: Per-departed-member lifetime disruption counts (Figs 4, 5).
        self.disruptions_per_departed: List[int] = []
        #: Per-departed-member optimization reconnections (Fig. 10).
        self.reconnections_per_departed: List[int] = []
        #: Attached-population time integral (node-seconds) over the window.
        self.node_seconds = 0.0
        self._last_population_time = window_start
        self._last_population = 0
        #: Periodic whole-tree delay/stretch samples (Figs 7, 8).
        self.delay_samples_ms: List[float] = []
        self.stretch_samples: List[float] = []
        #: Sessions that never managed to attach before departing.
        self.rejected_sessions = 0
        self.join_retries = 0
        #: Number of member departures observed inside the window.
        self.departures_in_window = 0
        self.arrivals_in_window = 0

    # -- recording -------------------------------------------------------------

    def in_window(self, t: float) -> bool:
        return self.window_start <= t <= self.window_end

    def record_population(self, t: float, population: int) -> None:
        """Integrate attached population over the window (call on changes)."""
        t_clamped = min(max(t, self.window_start), self.window_end)
        if t_clamped > self._last_population_time:
            self.node_seconds += self._last_population * (
                t_clamped - self._last_population_time
            )
            self._last_population_time = t_clamped
        self._last_population = population

    def record_disruptions(self, t: float, affected: int) -> None:
        if self.in_window(t):
            self.disruption_events += affected

    def record_optimization_reconnections(self, t: float, count: int) -> None:
        if self.in_window(t):
            self.optimization_reconnections += count

    def record_failure_reconnection(self, t: float) -> None:
        if self.in_window(t):
            self.failure_reconnections += 1

    def record_departure(
        self,
        t: float,
        disruptions: int,
        optimization_reconnections: int,
        full_observation: bool = True,
    ) -> None:
        """Record a member departure.

        ``full_observation`` is False for members of the stationary
        initial population, whose pre-simulation disruptions were not
        observed; they count toward departure totals but not toward the
        per-lifetime distributions.
        """
        if self.in_window(t):
            self.departures_in_window += 1
            if full_observation:
                self.disruptions_per_departed.append(disruptions)
                self.reconnections_per_departed.append(optimization_reconnections)

    def record_arrival(self, t: float) -> None:
        if self.in_window(t):
            self.arrivals_in_window += 1

    def record_tree_sample(self, delay_ms: float, stretch: float) -> None:
        self.delay_samples_ms.append(delay_ms)
        self.stretch_samples.append(stretch)

    # -- serialization ------------------------------------------------------------

    def to_payload(self) -> dict:
        """Every accumulated field, JSON-ready and exact.

        Includes the population-integral bookkeeping
        (``_last_population_time`` / ``_last_population``) so a rebuilt
        instance is state-identical, not merely derived-metric-identical.
        """
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "mean_lifetime_s": self.mean_lifetime_s,
            "disruption_events": int(self.disruption_events),
            "optimization_reconnections": int(self.optimization_reconnections),
            "failure_reconnections": int(self.failure_reconnections),
            "disruptions_per_departed": [int(x) for x in self.disruptions_per_departed],
            "reconnections_per_departed": [
                int(x) for x in self.reconnections_per_departed
            ],
            "node_seconds": exact_num(self.node_seconds),
            "last_population_time": exact_num(self._last_population_time),
            "last_population": int(self._last_population),
            "delay_samples_ms": [exact_num(x) for x in self.delay_samples_ms],
            "stretch_samples": [exact_num(x) for x in self.stretch_samples],
            "rejected_sessions": int(self.rejected_sessions),
            "join_retries": int(self.join_retries),
            "departures_in_window": int(self.departures_in_window),
            "arrivals_in_window": int(self.arrivals_in_window),
        }

    @classmethod
    def from_payload(cls, data: dict) -> "ChurnMetrics":
        metrics = cls(
            data["window_start"], data["window_end"], data["mean_lifetime_s"]
        )
        metrics.disruption_events = data["disruption_events"]
        metrics.optimization_reconnections = data["optimization_reconnections"]
        metrics.failure_reconnections = data["failure_reconnections"]
        metrics.disruptions_per_departed = list(data["disruptions_per_departed"])
        metrics.reconnections_per_departed = list(data["reconnections_per_departed"])
        metrics.node_seconds = data["node_seconds"]
        metrics._last_population_time = data["last_population_time"]
        metrics._last_population = data["last_population"]
        metrics.delay_samples_ms = list(data["delay_samples_ms"])
        metrics.stretch_samples = list(data["stretch_samples"])
        metrics.rejected_sessions = data["rejected_sessions"]
        metrics.join_retries = data["join_retries"]
        metrics.departures_in_window = data["departures_in_window"]
        metrics.arrivals_in_window = data["arrivals_in_window"]
        return metrics

    # -- derived metrics ----------------------------------------------------------

    @property
    def avg_disruptions_per_node(self) -> float:
        """Average disruptions a member experiences during its lifetime.

        Rate-based: disruption events per attached node-second in the
        window, scaled by the mean lifetime.  Unbiased under stationary
        initialisation, where per-departure counting would miss the
        pre-simulation exposure of initial members.
        """
        return self.disruption_rate_per_node_second() * self.mean_lifetime_s

    @property
    def avg_optimization_reconnections_per_node(self) -> float:
        """Fig. 10's protocol-overhead metric (rate-based, per lifetime)."""
        if self.node_seconds <= 0:
            return math.nan
        return (
            self.optimization_reconnections / self.node_seconds
        ) * self.mean_lifetime_s

    def disruption_rate_per_node_second(self) -> float:
        """Disruption events per attached node-second."""
        if self.node_seconds <= 0:
            return math.nan
        return self.disruption_events / self.node_seconds

    @property
    def avg_service_delay_ms(self) -> float:
        mean, _ = mean_and_ci(self.delay_samples_ms)
        return mean

    @property
    def avg_stretch(self) -> float:
        mean, _ = mean_and_ci(self.stretch_samples)
        return mean

    @property
    def mean_population(self) -> float:
        span = self.window_end - self.window_start
        return self.node_seconds / span if span > 0 else math.nan


class ResilienceMetrics:
    """Fault-resilience accounting for one run (see :mod:`repro.faults`).

    Splits every failure-driven quantity by *cause* — ``"churn"`` for
    ordinary workload departures vs ``"fault:<kind>"`` for injected
    faults — so a campaign can compare correlated-failure damage against
    the independent-loss baseline on the same run:

    * **disruptions** — events and affected-member counts per cause, plus
      per-member disruption totals;
    * **MTTR** — mean time to repair: how long an orphan stayed detached
      between a disruption and its successful re-attachment;
    * **delivered-data ratio** — attached (streaming) node-seconds over
      attached + detached node-seconds inside the measurement window.

    The churn driver does not know this class:
    :func:`repro.faults.injector.wire_resilience` feeds it from a churn
    run's ``disruption`` / ``reattach`` / ``departure`` topics, and the
    outages its methods report opening and closing become that run's
    ``outage_open`` / ``outage_close`` topics.
    """

    def __init__(self, window_start: float, window_end: float):
        if window_end <= window_start:
            raise ValueError("window_end must be > window_start")
        self.window_start = window_start
        self.window_end = window_end
        #: Faults that actually fired: (time, kind, detail-dict).
        self.faults_fired: List[Tuple[float, str, dict]] = []
        #: Disruption events per cause (one event per failed member).
        self.disruption_events: Dict[str, int] = {}
        #: Members losing the stream per cause (failed + descendants).
        self.members_affected: Dict[str, int] = {}
        #: Per-member disruption counts over the whole run.
        self.disruptions_per_member: Dict[int, int] = {}
        #: Repair-time samples per cause, seconds.
        self.repair_times: Dict[str, List[float]] = {}
        #: Detached (non-streaming) node-seconds inside the window.
        self.detached_seconds = 0.0
        #: Stream content lost to link degradation (loss_rate x member x
        #: seconds, clipped to the window) while members stayed attached.
        self.stream_loss_seconds = 0.0
        #: member_id -> (detach time, cause) for currently-open outages.
        self._open_outages: Dict[int, Tuple[float, str]] = {}
        #: member_id -> closed (start, end) outage intervals, unclipped
        #: (consumers — e.g. the multi-tree stripe accounting — clip to
        #: their own observation windows).
        self.outage_intervals: Dict[int, List[Tuple[float, float]]] = {}

    # -- recording -------------------------------------------------------------

    def record_fault(self, t: float, kind: str, detail: dict) -> None:
        self.faults_fired.append((t, kind, dict(detail)))

    def record_disruption(self, t: float, cause: str, member_ids) -> None:
        """One failure event: ``member_ids`` are the failed member and its
        descendants (everyone whose stream stopped)."""
        member_ids = list(member_ids)
        self.disruption_events[cause] = self.disruption_events.get(cause, 0) + 1
        self.members_affected[cause] = (
            self.members_affected.get(cause, 0) + len(member_ids)
        )
        for member_id in member_ids:
            self.disruptions_per_member[member_id] = (
                self.disruptions_per_member.get(member_id, 0) + 1
            )

    def mark_detached(self, t: float, member_id: int, cause: str) -> bool:
        """An orphan lost its parent at ``t``.  True if this opens a new
        outage; a member already detached keeps its earliest mark."""
        if member_id in self._open_outages:
            return False
        self._open_outages[member_id] = (t, cause)
        return True

    def record_reattach(
        self, t: float, member_id: int
    ) -> Optional[Tuple[float, str]]:
        """The member streams again; returns the ``(start, cause)`` of the
        outage this closes, if it had one open."""
        opened = self._open_outages.pop(member_id, None)
        if opened is None:
            return None
        start, cause = opened
        self.repair_times.setdefault(cause, []).append(t - start)
        self._account_detached(start, t)
        self._close_interval(start, t, member_id)
        return opened

    def record_stream_loss(
        self, start: float, end: float, members: int, loss_rate: float
    ) -> None:
        """Account partial stream loss over ``[start, end]`` for ``members``
        attached members (link degradation, not detachment)."""
        lo = max(start, self.window_start)
        hi = min(end, self.window_end)
        if hi > lo and members > 0 and loss_rate > 0:
            self.stream_loss_seconds += (hi - lo) * members * loss_rate

    def record_departure(
        self, t: float, member_id: int
    ) -> Optional[Tuple[float, str]]:
        """A member left; closes (and returns the ``(start, cause)`` of)
        any outage it never repaired."""
        opened = self._open_outages.pop(member_id, None)
        if opened is not None:
            start, _ = opened
            self._account_detached(start, t)
            self._close_interval(start, t, member_id)
        return opened

    def finish(self, t: float) -> List[Tuple[int, float, str]]:
        """End of run: members still detached stayed so through ``t``.
        Returns the ``(member_id, start, cause)`` of every outage closed."""
        closed = []
        for member_id in sorted(self._open_outages):
            start, cause = self._open_outages[member_id]
            self._account_detached(start, t)
            self._close_interval(start, t, member_id)
            closed.append((member_id, start, cause))
        self._open_outages.clear()
        return closed

    def _account_detached(self, start: float, end: float) -> None:
        lo = max(start, self.window_start)
        hi = min(end, self.window_end)
        if hi > lo:
            self.detached_seconds += hi - lo

    def _close_interval(self, start: float, end: float, member_id: int) -> None:
        if end > start:
            self.outage_intervals.setdefault(member_id, []).append((start, end))

    # -- derived metrics ----------------------------------------------------------

    def mttr_s(self, cause: Optional[str] = None) -> float:
        """Mean time to repair, overall or for one cause."""
        if cause is None:
            samples = [s for times in self.repair_times.values() for s in times]
        else:
            samples = self.repair_times.get(cause, [])
        mean, _ = mean_and_ci(samples)
        return mean

    def delivered_data_ratio(self, attached_node_seconds: float) -> float:
        """Streaming time over total (streaming + repairing) member time.

        Stream content lost to link degradation counts against the
        delivered part even though the members stayed attached.
        """
        total = attached_node_seconds + self.detached_seconds
        if total <= 0:
            return math.nan
        delivered = max(0.0, attached_node_seconds - self.stream_loss_seconds)
        return delivered / total

    def as_dict(self) -> dict:
        """JSON-ready summary (cause-keyed; report schema of campaigns)."""
        return {
            "faults_fired": len(self.faults_fired),
            "disruption_events": dict(sorted(self.disruption_events.items())),
            "members_affected": dict(sorted(self.members_affected.items())),
            "disrupted_members": len(self.disruptions_per_member),
            "max_disruptions_per_member": max(
                self.disruptions_per_member.values(), default=0
            ),
            "mttr_s": {
                cause: self.mttr_s(cause)
                for cause in sorted(self.repair_times)
            },
            "detached_seconds": self.detached_seconds,
            "stream_loss_seconds": self.stream_loss_seconds,
        }
