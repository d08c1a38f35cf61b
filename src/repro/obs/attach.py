"""ObsAttachment: tracing/metrics/profiling for one simulation.

Observes a run the way :class:`repro.invariants.InvariantChecker` does:
as one listener on its simulator
(:meth:`~repro.sim.engine.Simulator.subscribe`).  It listens to the
engine's ``event_pre``/``event_post``, the churn run's ``disruption``/
``reattach``/``overhead``, ROST's ``switch_post``, the recovery
observer's ``episode_pre``/``episode_post`` and the fault resilience
feed's ``outage_open``/``outage_close`` topics, and the profiler takes
the engine's ``profile`` slot.  Protocol and kernel code is never
modified, and unless the trace or metrics channel is enabled nothing is
subscribed at all, preserving the engine's no-listener fast path.

Counting is done with plain integer attributes in the topic methods;
:meth:`finalize` copies them into the run's metrics snapshot.  The
counts stay independent of the :mod:`repro.metrics` collectors, which is
what lets the reconciliation tests assert the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .capture import (
    ObsUnit,
    metrics_enabled,
    profile_enabled,
    trace_enabled,
    trace_events_enabled,
)
from .metrics import Histogram
from .profile import Profiler
from .schema import TRACE_SCHEMA_VERSION
from .trace import TraceWriter


def _event_profile_key(event) -> str:
    label = event.label
    if label:
        return label
    action = event.action
    return getattr(action, "__qualname__", type(action).__name__)


class ObsAttachment:
    """One attachment observes one simulation run.

    ``trace``/``trace_events``/``metrics``/``profile`` default to the
    corresponding ``REPRO_OBS_*`` environment flags (the channel the CLI
    uses); tests pass them explicitly.  ``meta`` identifies the run in
    artifacts (protocol, population, seed, scenario, ...) and supplies
    the optional fields of the ``run_start`` record.
    """

    def __init__(
        self,
        meta: Optional[Dict[str, object]] = None,
        trace: Optional[bool] = None,
        trace_events: Optional[bool] = None,
        metrics: Optional[bool] = None,
        profile: Optional[bool] = None,
    ) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._trace = trace_enabled() if trace is None else trace
        self._trace_events = (
            trace_events_enabled() if trace_events is None else trace_events
        )
        self._metrics = metrics_enabled() if metrics is None else metrics
        self._profile = profile_enabled() if profile is None else profile
        self.writer: Optional[TraceWriter] = TraceWriter() if self._trace else None
        self.profiler: Optional[Profiler] = Profiler() if self._profile else None

        # Hot-loop tallies (plain ints; exported to the metrics snapshot
        # at finalize).  All are virtual-time deterministic.
        self._events_dispatched = 0
        self._fault_activations = 0
        self._disruption_failures = 0
        self._disruption_events = 0  # in-window affected members (legacy mirror)
        self._switches = 0
        self._promotions = 0
        self._opt_reconnections = 0
        self._failure_reconnections = 0
        self._subtree_hist = Histogram()
        # scheme name -> [episodes, gap_packets, repaired_packets]
        self._recovery: Dict[str, List[int]] = {}
        self._repaired_before = 0

        self._churn = None
        self._sim = None
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._trace or self._metrics or self._profile

    def attach(self, target) -> "ObsAttachment":
        """Attach to a ChurnSimulation (or anything exposing ``.churn``,
        e.g. a RecoverySimulation, whose episodes are then tallied)."""
        if not self.enabled:
            return self
        churn = getattr(target, "churn", None)
        if churn is None:
            churn = target
        self._churn = churn
        self._emit_run_start(churn)
        return self._attach_sim(churn.sim)

    def attach_engine(self, sim) -> "ObsAttachment":
        """Engine-only attachment for bare :class:`Simulator` users.

        Only the event/fault records, the event count and the profiler
        apply.  With every channel disabled this is a strict no-op (used
        by the hot-loop overhead regression test).
        """
        if not self.enabled:
            return self
        return self._attach_sim(sim)

    def _attach_sim(self, sim) -> "ObsAttachment":
        self._sim = sim
        if self._trace or self._metrics:
            sim.subscribe(self)
        if self.profiler is not None:
            profiler = self.profiler
            sim.profile = lambda event, wall_s: profiler.record(
                _event_profile_key(event), wall_s
            )
        return self

    # -- wiring ------------------------------------------------------------------------

    def _emit_run_start(self, churn) -> None:
        writer = self.writer
        meta = self.meta
        config = churn.config
        meta.setdefault(
            "kind", "recovery" if "scenario" in meta else "churn"
        )
        meta.setdefault(
            "protocol",
            getattr(churn.protocol, "name", None)
            or type(churn.protocol).__name__,
        )
        meta.setdefault("population", int(config.workload.target_population))
        meta.setdefault("seed", int(config.seed))
        if writer is None:
            return
        record: Dict[str, object] = {
            "type": "run_start",
            "v": TRACE_SCHEMA_VERSION,
            "kind": str(meta["kind"]),
            "protocol": str(meta["protocol"]),
            "population": int(meta["population"]),
            "seed": int(meta["seed"]),
            "horizon_s": float(config.horizon_s),
        }
        for optional in (
            "scenario",
            "scale",
            "replica",
            "switch_interval_s",
            "stripe",
            "trees",
        ):
            value = meta.get(optional)
            if value is not None:
                record[optional] = value
        writer.emit(record)

    # -- topics ------------------------------------------------------------------------

    def on_event_pre(self, event) -> None:
        writer = self.writer
        label = event.label
        if writer is not None and self._trace_events:
            writer.emit(
                {
                    "type": "event",
                    "t": float(event.time),
                    "seq": int(event.seq),
                    "label": label,
                    "priority": int(event.priority),
                }
            )
        if label and label.startswith("fault:"):
            self._fault_activations += 1
            if writer is not None:
                writer.emit(
                    {
                        "type": "fault",
                        "t": float(event.time),
                        "label": label,
                    }
                )

    def on_event_post(self, event) -> None:
        self._events_dispatched += 1

    def on_disruption(self, event) -> None:
        writer = self.writer
        self._disruption_failures += 1
        if event.in_window:
            self._disruption_events += event.subtree_size - 1
        self._subtree_hist.observe(event.subtree_size)
        if writer is None:
            return
        writer.emit(
            {
                "type": "disruption",
                "t": float(event.time),
                "cause": event.cause,
                "failed": int(event.failed.member_id),
                "subtree_size": int(event.subtree_size),
                "in_window": bool(event.in_window),
                "co_failed": sorted(int(m) for m in event.co_failed_ids),
            }
        )
        for child in sorted(event.failed.children, key=lambda n: n.member_id):
            writer.emit(
                {
                    "type": "episode_open",
                    "t": float(event.time),
                    "member": int(child.member_id),
                    "cause": event.cause,
                }
            )

    def on_reattach(self, now: float, orphan) -> None:
        if self._churn.metrics.in_window(now):
            self._failure_reconnections += 1
        if self.writer is not None:
            self.writer.emit(
                {
                    "type": "episode_close",
                    "t": float(now),
                    "member": int(orphan.member_id),
                }
            )

    def on_overhead(self, reconnections: int) -> None:
        if self._churn.metrics.in_window(self._sim.now):
            self._opt_reconnections += reconnections

    def on_switch_post(self, op: str, node) -> None:
        if op == "swap":
            self._switches += 1
        else:
            self._promotions += 1
        if self.writer is not None:
            self.writer.emit(
                {
                    "type": "switch",
                    "t": float(self._sim.now),
                    "op": op,
                    "member": int(node.member_id),
                }
            )

    def on_episode_pre(self, observer, scheme, *_) -> None:
        self._repaired_before = observer.results[scheme.name].repaired_packets_total

    def on_episode_post(
        self, observer, scheme, now, members, sources, gap_packets, backfill
    ) -> None:
        repaired = observer.results[scheme.name].repaired_packets_total
        tally = self._recovery.get(scheme.name)
        if tally is None:
            tally = self._recovery[scheme.name] = [0, 0, 0]
        tally[0] += len(members)
        tally[1] += gap_packets * len(members)
        tally[2] += repaired - self._repaired_before

    def on_outage_open(self, t: float, member_id: int, cause: str) -> None:
        stripe = self.meta.get("stripe")
        if self.writer is not None and stripe is not None:
            self.writer.emit(
                {
                    "type": "stripe_outage_open",
                    "t": float(t),
                    "member": int(member_id),
                    "stripe": stripe,
                    "cause": str(cause),
                }
            )

    def on_outage_close(
        self, start: float, end: float, member_id: int, cause: str
    ) -> None:
        stripe = self.meta.get("stripe")
        if self.writer is not None and stripe is not None:
            self.writer.emit(
                {
                    "type": "stripe_outage_close",
                    "t": float(end),
                    "member": int(member_id),
                    "stripe": stripe,
                }
            )

    # -- export ------------------------------------------------------------------------

    def _metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """The run's metrics, keyed ``<subsystem>.<name>``, keys sorted."""
        counters: Dict[str, int] = {
            "sim.events_processed": self._events_dispatched,
            "faults.activations": self._fault_activations,
        }
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        churn = self._churn
        if churn is not None:
            counters.update(
                {
                    "overlay.disruption_failures": self._disruption_failures,
                    "overlay.disruption_events": self._disruption_events,
                    "overlay.optimization_reconnections": self._opt_reconnections,
                    "overlay.failure_reconnections": self._failure_reconnections,
                    "overlay.control_messages": churn.ctx.messages.total,
                    "overlay.tree_switch_ops": self._switches,
                    "overlay.tree_promotions": self._promotions,
                }
            )
            histograms["overlay.disruption_subtree_size"] = (
                self._subtree_hist.as_dict()
            )
            for name in ("switches", "promotions", "lock_failures"):
                if hasattr(churn.protocol, name):
                    counters["rost." + name] = getattr(churn.protocol, name)
            gauges["sim.pending_events_final"] = float(self._sim.pending_events)
            gauges["overlay.final_attached"] = float(churn.tree.num_attached)
        for scheme_name, (episodes, gap, repaired) in self._recovery.items():
            counters[f"recovery.episodes.{scheme_name}"] = episodes
            counters[f"recovery.gap_packets.{scheme_name}"] = gap
            counters[f"recovery.repaired_packets.{scheme_name}"] = repaired
        return {
            "counters": {key: int(value) for key, value in sorted(counters.items())},
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def finalize(self) -> ObsUnit:
        """Emit the run_end record, snapshot metrics, build the unit.

        Safe to call once; the unit is also handed to the ambient
        :func:`~repro.obs.capture.job_capture` by the *caller* (the run
        cache needs to stash the unit for replay, so emission stays its
        responsibility).
        """
        if self._finalized:
            raise ValueError("ObsAttachment.finalize called twice")
        self._finalized = True
        if not self.enabled:
            return ObsUnit(meta=dict(self.meta))
        writer = self.writer
        if writer is not None and self._sim is not None:
            writer.emit(
                {
                    "type": "run_end",
                    "t": float(self._sim.now),
                    "events_processed": int(self._events_dispatched),
                    "disruptions": int(self._disruption_events),
                    "switches": int(self._switches + self._promotions),
                }
            )
        return ObsUnit(
            meta=dict(self.meta),
            trace_lines=writer.lines if writer is not None else [],
            metrics=self._metrics_snapshot() if self._metrics else {},
            profile=self.profiler.as_dict() if self.profiler else {},
        )
