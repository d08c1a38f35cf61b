"""The churn simulation driver.

Replays a :class:`~repro.workload.generator.ChurnWorkload` against one
tree protocol:

* arrivals create members and place them through the protocol (with
  bounded-backoff retries when no capacity is reachable);
* departures are *abrupt* (the paper's extreme, most-dynamic case): every
  descendant of the departed member suffers one streaming disruption, and
  each orphaned child re-attaches — with its subtree — only after the
  failure-detection (5 s) plus rejoin (10 s) window;
* the ROST/relaxed protocols' optimization reconnections, the tree's
  service delay/stretch, and the probe member's time series are collected
  into :class:`~repro.metrics.collectors.ChurnMetrics`.

The run publishes its failure lifecycle on the simulator's listener list
(:meth:`~repro.sim.engine.Simulator.subscribe`): ``disruption(event)``
for every abrupt failure, ``departure(now, node)`` for every departure
and ``reattach(now, orphan)`` whenever an orphan is placed again.  The
recovery simulation prices starvation episodes off these, and the
invariant checker, the fault resilience metrics and :mod:`repro.obs`
listen the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..config import SimulationConfig
from ..errors import SimulationError
from ..metrics.collectors import ChurnMetrics, TimeSeries, exact_num
from ..overlay.membership import MembershipService
from ..overlay.messages import MessageStats
from ..overlay.node import OverlayNode
from ..overlay.tree import MulticastTree
from ..protocols.base import ProtocolContext, TreeProtocol
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.rng import RngRegistry
from ..topology.routing import DelayOracle
from ..topology.transit_stub import TransitStubTopology, generate_transit_stub
from ..workload.generator import ChurnWorkload, generate_workload
from ..workload.session import Session
from .probe import PROBE_MEMBER_ID

#: How long an unplaceable join waits before retrying.
JOIN_RETRY_S = 5.0
#: Give up on a fresh join after this many attempts (the session then
#: counts as rejected; with the paper's capacity distribution this is
#: rare and transient).
MAX_JOIN_ATTEMPTS = 100
#: Tree-quality samples (service delay, stretch) spread evenly over the
#: measurement window.
TREE_SAMPLES = 10


#: Cause tag for ordinary workload-driven abrupt departures.
CHURN_CAUSE = "churn"


@dataclass(frozen=True)
class DisruptionEvent:
    """One abrupt failure, as published on the ``disruption`` topic.

    Delivered just before the departed member is dismantled, so
    ``failed`` still carries its children and subtree.  ``cause``
    distinguishes workload churn (``"churn"``) from injected faults
    (``"fault:<kind>"``, see :mod:`repro.faults`), so injector-caused and
    churn-caused disruptions stay separable in metrics.
    """

    time: float
    failed: OverlayNode
    #: Whether the event falls inside the measurement window.
    in_window: bool
    cause: str = CHURN_CAUSE
    #: Members losing the stream: the failed member plus its descendants.
    subtree_size: int = 1
    #: Members failing in the *same* correlated event (e.g. every victim
    #: of a stub-domain outage).  Recovery sources drawn from this set are
    #: dead at repair time even if they have not been dismantled yet.
    co_failed_ids: frozenset = frozenset()


@dataclass
class ChurnRunResult:
    """Everything one churn run produces."""

    protocol_name: str
    config: SimulationConfig
    metrics: ChurnMetrics
    messages: MessageStats
    sessions_total: int
    sessions_rejected: int
    probe_disruptions: Optional[TimeSeries] = None
    probe_delay_ms: Optional[TimeSeries] = None
    #: Protocol-specific counters (e.g. ROST switches / lock failures).
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_disruptions_per_node(self) -> float:
        return self.metrics.avg_disruptions_per_node

    @property
    def avg_service_delay_ms(self) -> float:
        return self.metrics.avg_service_delay_ms

    @property
    def avg_stretch(self) -> float:
        return self.metrics.avg_stretch

    @property
    def avg_optimization_reconnections(self) -> float:
        return self.metrics.avg_optimization_reconnections_per_node

    # -- serialization ------------------------------------------------------------

    def to_payload(self) -> dict:
        """Exact JSON-ready form for crossing process boundaries.

        Every float survives a JSON round-trip bit-for-bit (repr-based
        shortest serialization; NaN/inf use the JSON extensions Python's
        ``json`` emits by default), every list keeps its order, so a
        rebuilt result is indistinguishable from the original to any
        figure-extraction code.  Inverse of :meth:`from_payload`.
        """
        from ..config import config_to_dict

        return {
            "protocol_name": self.protocol_name,
            "config": config_to_dict(self.config),
            "metrics": self.metrics.to_payload(),
            "messages": self.messages.to_payload(),
            "sessions_total": int(self.sessions_total),
            "sessions_rejected": int(self.sessions_rejected),
            "probe_disruptions": (
                self.probe_disruptions.to_payload()
                if self.probe_disruptions is not None
                else None
            ),
            "probe_delay_ms": (
                self.probe_delay_ms.to_payload()
                if self.probe_delay_ms is not None
                else None
            ),
            "extras": {name: exact_num(v) for name, v in self.extras.items()},
        }

    @classmethod
    def from_payload(cls, data: dict) -> "ChurnRunResult":
        from ..config import config_from_dict

        return cls(
            protocol_name=data["protocol_name"],
            config=config_from_dict(data["config"]),
            metrics=ChurnMetrics.from_payload(data["metrics"]),
            messages=MessageStats.from_payload(data["messages"]),
            sessions_total=data["sessions_total"],
            sessions_rejected=data["sessions_rejected"],
            probe_disruptions=(
                TimeSeries.from_payload(data["probe_disruptions"])
                if data["probe_disruptions"] is not None
                else None
            ),
            probe_delay_ms=(
                TimeSeries.from_payload(data["probe_delay_ms"])
                if data["probe_delay_ms"] is not None
                else None
            ),
            extras=dict(data["extras"]),
        )


class ChurnSimulation:
    """One protocol, one workload, one run."""

    def __init__(
        self,
        config: SimulationConfig,
        protocol_factory: Callable[[ProtocolContext], TreeProtocol],
        topology: Optional[TransitStubTopology] = None,
        oracle: Optional[DelayOracle] = None,
        workload: Optional[ChurnWorkload] = None,
        probe: Optional[Session] = None,
        listeners: Sequence[object] = (),
        member_setup: Optional[Callable[[OverlayNode], None]] = None,
        probe_sample_interval_s: float = 60.0,
        check_invariants=False,
        graceful_departure_fraction: float = 0.0,
        membership_mode: str = "abstract",
    ):
        """``listeners`` are subscribed to the simulator in order (see
        :meth:`~repro.sim.engine.Simulator.subscribe`), after the run's
        own metrics and before the invariant checker.

        ``check_invariants`` enables runtime invariant checking (see
        :mod:`repro.invariants`): ``True`` attaches a strict
        :class:`~repro.invariants.InvariantChecker` that raises on the
        first violation; passing a checker instance uses it as configured
        (e.g. ``strict=False`` to accumulate violations for a report).

        ``graceful_departure_fraction`` extends the paper's abrupt-only
        extreme: that fraction of departures announce themselves, so their
        children re-attach immediately (make-before-break) with neither a
        streaming disruption nor the 15 s recovery window.

        ``membership_mode`` selects the peer-sampling substrate:
        ``"abstract"`` (converged uniform views — the default, and the
        only practical choice at paper scale) or ``"gossip"`` (the actual
        Cyclon-style shuffling protocol, whose per-member views the
        protocols then join/recover from)."""
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.topology = topology if topology is not None else generate_transit_stub(
            config.topology
        )
        self.oracle = oracle if oracle is not None else DelayOracle(self.topology)
        if workload is None:
            workload = generate_workload(
                config.workload,
                horizon_s=config.horizon_s,
                attach_nodes=self.topology.stub_nodes,
                rng=self.rngs.stream("workload"),
                probe=probe,
            )
        self.workload = workload
        self.sim = Simulator()
        root = OverlayNode(
            member_id=0,
            underlay_node=workload.root.underlay_node,
            bandwidth=workload.root.bandwidth,
            out_degree_cap=workload.root.out_degree(config.workload.stream_rate),
            join_time=0.0,
            is_root=True,
        )
        self.tree = MulticastTree(root)
        if membership_mode == "abstract":
            self.membership = MembershipService(self.rngs.stream("membership"))
        elif membership_mode == "gossip":
            from ..overlay.gossip import GossipMembership

            self.membership = GossipMembership(
                self.rngs.stream("membership"), self.sim
            )
        else:
            raise SimulationError(
                f"unknown membership_mode {membership_mode!r} "
                "(expected 'abstract' or 'gossip')"
            )
        self.membership.register(root)
        self.ctx = ProtocolContext(
            sim=self.sim,
            tree=self.tree,
            membership=self.membership,
            oracle=self.oracle,
            config=config.protocol,
            stream_rate=config.workload.stream_rate,
            rng=self.rngs.stream("protocol"),
        )
        self.protocol = protocol_factory(self.ctx)
        self.metrics = ChurnMetrics(
            config.warmup_s,
            config.horizon_s,
            mean_lifetime_s=config.workload.mean_lifetime_s,
        )
        self.member_setup = member_setup
        self.probe_sample_interval_s = probe_sample_interval_s
        if not 0.0 <= graceful_departure_fraction <= 1.0:
            raise SimulationError(
                f"graceful_departure_fraction must be in [0, 1], got "
                f"{graceful_departure_fraction}"
            )
        self.graceful_departure_fraction = graceful_departure_fraction
        self._departure_rng = self.rngs.stream("departure-style")
        self.sessions_rejected = 0
        self.rescued_rejoins = 0
        self._probe_node: Optional[OverlayNode] = None
        self.probe_disruptions: Optional[TimeSeries] = None
        self.probe_delay_ms: Optional[TimeSeries] = None
        self._pending_rejoins: Dict[int, Event] = {}
        self._ran = False
        # The run's own metrics listen first (``on_overhead``), then the
        # caller's listeners, then the checker (attached last: it observes
        # everything constructed above, including the protocol).
        self.sim.subscribe(self)
        for listener in listeners:
            self.sim.subscribe(listener)
        #: The attached checker, or None.
        self.invariant_checker = None
        if check_invariants:
            from ..invariants import InvariantChecker

            checker = (
                check_invariants
                if isinstance(check_invariants, InvariantChecker)
                else InvariantChecker()
            )
            self.invariant_checker = checker.attach(self)

    # -- public API ------------------------------------------------------------------

    def run(self) -> ChurnRunResult:
        """Execute the run and return the collected results."""
        if self._ran:
            raise SimulationError("a ChurnSimulation instance runs once")
        self._ran = True
        for session in self.workload.sessions:
            self.sim.schedule_at(
                session.arrival_s, lambda s=session: self._on_arrival(s)
            )
        self._schedule_tree_samples()
        self.sim.run_until(self.workload.horizon_s)
        self.metrics.record_population(self.workload.horizon_s, self.tree.num_attached)
        if self.invariant_checker is not None:
            self.invariant_checker.finalize()
        return self._result()

    def on_overhead(self, reconnections: int) -> None:
        """The ``overhead`` topic: a protocol's tree optimization just
        reconnected ``reconnections`` members (ROST switches and
        promotions, relaxed-ordered evictions)."""
        self.metrics.record_optimization_reconnections(self.sim.now, reconnections)

    # -- event handlers -----------------------------------------------------------------

    def _on_arrival(self, session: Session) -> None:
        now = self.sim.now
        node = OverlayNode(
            member_id=session.member_id,
            underlay_node=session.underlay_node,
            bandwidth=session.bandwidth,
            out_degree_cap=session.out_degree(self.config.workload.stream_rate),
            # Members of the stationary initial population carry the age
            # they had already accumulated before t=0.
            join_time=now - session.initial_age_s,
        )
        if self.member_setup is not None:
            self.member_setup(node)
        self.tree.add_member(node)
        self.membership.register(node)
        self.metrics.record_arrival(now)
        if session.member_id == PROBE_MEMBER_ID:
            self._setup_probe(node)
        self.sim.schedule_at(
            session.departure_s, lambda: self._on_departure(node), priority=-1
        )
        self._attempt_join(node, attempt=1)

    def _attempt_join(self, node: OverlayNode, attempt: int) -> None:
        if self.tree.members.get(node.member_id) is not node or node.attached:
            return
        if self.protocol.place(node, rejoin=False):
            self.metrics.record_population(self.sim.now, self.tree.num_attached)
            return
        self.metrics.join_retries += 1
        if attempt >= MAX_JOIN_ATTEMPTS:
            return  # departure will record the rejection
        self.sim.schedule_in(
            JOIN_RETRY_S,
            lambda: self._attempt_join(node, attempt + 1),
            label="join-retry",
        )

    def fail_member(
        self,
        node: OverlayNode,
        cause: str,
        co_failed_ids: frozenset = frozenset(),
    ) -> bool:
        """Abruptly fail ``node`` right now (fault injection entry point).

        The member departs through the ordinary abrupt path — descendants
        are disrupted, orphans rejoin after the recovery window — but the
        emitted :class:`DisruptionEvent` carries ``cause`` instead of
        ``"churn"``, and ``co_failed_ids`` names every member dying in the
        same correlated event.  Returns False if ``node`` already left.
        """
        if self.tree.members.get(node.member_id) is not node:
            return False
        if node.is_root:
            raise SimulationError("the root cannot be fault-injected away")
        self._on_departure(node, cause=cause, co_failed_ids=co_failed_ids)
        return True

    def _on_departure(
        self,
        node: OverlayNode,
        cause: str = CHURN_CAUSE,
        co_failed_ids: frozenset = frozenset(),
    ) -> None:
        if self.tree.members.get(node.member_id) is not node:
            return
        now = self.sim.now
        was_attached = node.attached
        if not node.ever_attached:
            self.sessions_rejected += 1
        self.protocol.on_departure(node)
        self.membership.unregister(node)
        pending = self._pending_rejoins.pop(node.member_id, None)
        if pending is not None:
            pending.cancel()

        # Injected failures are always abrupt: a crashed member does not
        # announce itself, whatever the graceful fraction says.
        graceful = (
            was_attached
            and cause == CHURN_CAUSE
            and self.graceful_departure_fraction > 0.0
            and self._departure_rng.random() < self.graceful_departure_fraction
        )
        abrupt = was_attached and not graceful
        descendants = node.descendants() if abrupt else []
        failed_parent = node.parent
        listening = self.sim.handlers("disruption") if abrupt else ()
        if listening:
            # Listeners see the overlay *before* the departed member is
            # dismantled: recovery-group selection and loss-correlation
            # evaluation both depend on the pre-failure structure.
            event = DisruptionEvent(
                time=now,
                failed=node,
                in_window=self.metrics.in_window(now),
                cause=cause,
                subtree_size=1 + len(descendants),
                co_failed_ids=co_failed_ids,
            )
            for handler in listening:
                handler(event)
        orphans = self.tree.remove_departed(node)

        if abrupt:
            self.metrics.record_disruptions(now, len(descendants))
            for member in descendants:
                member.disruptions += 1
                if member is self._probe_node and self.probe_disruptions is not None:
                    self.probe_disruptions.append(now, member.disruptions)
        if node.ever_attached:
            # Never-attached (rejected) sessions experienced no streaming
            # at all and would only dilute per-lifetime statistics.  A
            # member of the initial stationary population (join_time < 0)
            # was only partially observed; its counts feed the rate-based
            # estimators but not the per-lifetime distribution.
            self.metrics.record_departure(
                now,
                node.disruptions,
                node.optimization_reconnections,
                full_observation=node.join_time >= 0.0,
            )
        self.sim.publish("departure", now, node)
        protocol_cfg = self.config.protocol
        grandparent = node.rejoin_hint if not was_attached else None
        # Proactive rescue plans (if enabled): orphans whose precomputed
        # backup — the grandparent — is alive with spare capacity skip the
        # parent re-finding phase.  The freed slot plus any existing spare
        # bounds how many children the plan can absorb.
        rescue_slots = 0
        if (
            protocol_cfg.proactive_rescue
            and was_attached
            and failed_parent is not None
            and failed_parent.attached
        ):
            rescue_slots = failed_parent.spare_degree
        # Orphans re-find parents in BTP order: the highest-BTP child is
        # the quickest to detect the failure and act (it sits closest to
        # the top of its own subtree's data flow and, per Fig. 2 of the
        # paper, is the preferred candidate for freed positions).
        ordered = sorted(orphans, key=lambda o: o.claimed_btp(now), reverse=True)
        for index, orphan in enumerate(ordered):
            if rescue_slots > 0:
                rescue_slots -= 1
                self.rescued_rejoins += 1
                window_end = now + protocol_cfg.failure_detect_s + protocol_cfg.rescue_s
            else:
                window_end = now + protocol_cfg.recovery_window_s
            # Each orphan knows the failed parent's own parent — the
            # natural first contact for grandparent-succession rejoins.
            orphan.rejoin_hint = failed_parent if was_attached else grandparent
            if graceful:
                # Announced departure: the children re-attach while the
                # parent is still forwarding (make-before-break).
                if self.protocol.place(orphan, rejoin=True):
                    orphan.reconnections += 1
                    self.metrics.record_failure_reconnection(now)
                    self.sim.publish("reattach", now, orphan)
                    continue
                # No position available right now — degrade to the normal
                # recovery path (without counting disruptions: the parent
                # drains its buffer toward the subtree on the way out).
            self.protocol.on_recovery_lock(orphan, window_end)
            self._pending_rejoins[orphan.member_id] = self.sim.schedule_at(
                window_end, lambda o=orphan: self._on_rejoin(o), priority=index
            )
        self.metrics.record_population(now, self.tree.num_attached)

    def _on_rejoin(self, orphan: OverlayNode) -> None:
        self._pending_rejoins.pop(orphan.member_id, None)
        if self.tree.members.get(orphan.member_id) is not orphan:
            return
        if orphan.attached or orphan.parent is not None:
            return
        now = self.sim.now
        if self.protocol.place(orphan, rejoin=True):
            orphan.reconnections += 1
            self.metrics.record_failure_reconnection(now)
            self.metrics.record_population(now, self.tree.num_attached)
            self.sim.publish("reattach", now, orphan)
            return
        self._pending_rejoins[orphan.member_id] = self.sim.schedule_in(
            self.config.protocol.rejoin_s, lambda: self._on_rejoin(orphan)
        )

    # -- probe ----------------------------------------------------------------------------

    def _setup_probe(self, node: OverlayNode) -> None:
        self._probe_node = node
        self.probe_disruptions = TimeSeries()
        self.probe_delay_ms = TimeSeries()
        self.probe_disruptions.append(self.sim.now, 0)
        self._schedule_probe_sample()

    def _schedule_probe_sample(self) -> None:
        def sample() -> None:
            node = self._probe_node
            if node is None or self.tree.members.get(node.member_id) is not node:
                return
            if node.attached:
                self.probe_delay_ms.append(
                    self.sim.now, self.ctx.service_delay_ms(node)
                )
            self._schedule_probe_sample()

        self.sim.schedule_in(self.probe_sample_interval_s, sample, label="probe-sample")

    # -- tree quality sampling -------------------------------------------------------------

    def _schedule_tree_samples(self) -> None:
        start = self.config.warmup_s
        span = self.config.horizon_s - start
        for i in range(TREE_SAMPLES):
            at = start + span * (i + 1) / (TREE_SAMPLES + 1)
            self.sim.schedule_at(at, self._sample_tree, label="tree-sample")

    def _sample_tree(self) -> None:
        root_underlay = self.tree.root.underlay_node
        sampled = [n for n in self.tree.attached_nodes() if not n.is_root]
        if not sampled:
            return
        delays = [self.ctx.service_delay_ms(node) for node in sampled]
        directs = self.oracle.delays_from(
            root_underlay, [n.underlay_node for n in sampled]
        )
        stretches = [
            delay / direct if direct > 0 else 1.0
            for delay, direct in zip(delays, directs.tolist())
        ]
        self.metrics.record_tree_sample(
            float(np.mean(delays)), float(np.mean(stretches))
        )

    # -- result assembly ---------------------------------------------------------------------

    def _result(self) -> ChurnRunResult:
        extras: Dict[str, float] = {
            "events_processed": float(self.sim.events_processed),
            "final_attached": float(self.tree.num_attached),
            "rescued_rejoins": float(self.rescued_rejoins),
        }
        for attr in ("switches", "promotions", "lock_failures"):
            if hasattr(self.protocol, attr):
                extras[attr] = float(getattr(self.protocol, attr))
        referees = getattr(self.protocol, "referees", None)
        if referees is not None:
            extras["referee_replacements"] = float(referees.replacements)
            extras["referee_lost_records"] = float(referees.lost_records)
        return ChurnRunResult(
            protocol_name=self.protocol.name,
            config=self.config,
            metrics=self.metrics,
            messages=self.ctx.messages,
            sessions_total=len(self.workload.sessions),
            sessions_rejected=self.sessions_rejected,
            probe_disruptions=self.probe_disruptions,
            probe_delay_ms=self.probe_delay_ms,
            extras=extras,
        )
