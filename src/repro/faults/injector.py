"""Engine-level fault injection into a running :class:`ChurnSimulation`.

The injector replays a :class:`~repro.faults.schedule.FaultSchedule` into
an *unmodified* churn driver: every fault becomes one timer event, and
every effect flows through public engine surface —
:meth:`ChurnSimulation.fail_member` for kills (which routes through the
ordinary abrupt-departure path, so recovery, metrics and invariants all
behave exactly as for natural churn), ``schedule_at`` for flash-crowd
arrivals and surge departures, and an oracle *proxy*
(:class:`DegradedOracle`) for link degradation.  The churn driver is
never forked and never learns about faults; cause attribution rides on
the structured :class:`~repro.simulation.churn.DisruptionEvent`.

Determinism: each fault draws from ``default_rng([schedule.seed, index])``
created at fire time, and victims are processed in sorted member-id
order, so a schedule replays bit-identically for a given seed regardless
of what else the simulation does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import FaultError
from ..metrics.collectors import ResilienceMetrics
from ..overlay.node import OverlayNode
from ..simulation.churn import ChurnSimulation
from ..simulation.probe import PROBE_MEMBER_ID
from ..workload.distributions import BoundedPareto, LogNormalLifetime
from ..workload.session import Session
from .model import LinkDegradation
from .schedule import FaultSchedule


class ResilienceFeed:
    """Listener feeding a churn run's failure lifecycle into
    :class:`ResilienceMetrics`.

    Every outage the metrics report opening or closing is published on
    the same simulator as ``outage_open(t, member_id, cause)`` and
    ``outage_close(start, end, member_id, cause)``; end-of-run closes are
    published by :meth:`finish`.
    """

    def __init__(self, churn: ChurnSimulation, resilience: ResilienceMetrics):
        self.resilience = resilience
        self._sim = churn.sim

    def on_disruption(self, event) -> None:
        resilience = self.resilience
        descendants = event.failed.descendants()
        ids = [event.failed.member_id] + [d.member_id for d in descendants]
        resilience.record_disruption(event.time, event.cause, ids)
        # The failed member departs; its descendants are without data
        # until their subtree root (the orphan child) re-attaches.
        for member in descendants:
            if resilience.mark_detached(event.time, member.member_id, event.cause):
                self._sim.publish(
                    "outage_open", event.time, member.member_id, event.cause
                )

    def on_reattach(self, now: float, orphan: OverlayNode) -> None:
        for member in [orphan] + orphan.descendants():
            member_id = member.member_id
            self._closed(
                now, member_id, self.resilience.record_reattach(now, member_id)
            )

    def on_departure(self, now: float, node: OverlayNode) -> None:
        member_id = node.member_id
        self._closed(
            now, member_id, self.resilience.record_departure(now, member_id)
        )

    def finish(self, t: float) -> None:
        """End the run's accounting at ``t`` (see ResilienceMetrics.finish)."""
        for member_id, start, cause in self.resilience.finish(t):
            self._sim.publish("outage_close", start, t, member_id, cause)

    def _closed(self, end: float, member_id: int, opened) -> None:
        if opened is not None:
            start, cause = opened
            self._sim.publish("outage_close", start, end, member_id, cause)


def wire_resilience(
    churn: ChurnSimulation, resilience: ResilienceMetrics
) -> ResilienceFeed:
    """Subscribe a :class:`ResilienceFeed` to ``churn`` and return it.

    It joins the end of the listener list, after e.g. the
    :class:`~repro.simulation.streaming.RecoveryObserver`, so one run can
    price starvation episodes *and* account MTTR / delivered data.
    """
    feed = ResilienceFeed(churn, resilience)
    churn.sim.subscribe(feed)
    return feed


class DegradedOracle:
    """Delay-oracle proxy inflating delays during degradation windows.

    Wraps the real oracle and multiplies ``delay_ms`` for every active
    window whose domain set touches either endpoint (or every path when
    the window is global).  All other attributes delegate, so protocol
    code cannot tell the difference; the wrapped oracle — possibly shared
    through the topology cache — is never mutated.
    """

    #: Class attribute (not delegated): delays change as windows open and
    #: close, so per-edge caches keyed on the oracle must stay disabled.
    stable_delays = False

    def __init__(self, inner, topology):
        self._inner = inner
        self._topology = topology
        self._windows: List[Tuple[Optional[Set[int]], float]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def activate(
        self, domain_ids: Optional[Set[int]], factor: float
    ) -> Tuple[Optional[Set[int]], float]:
        window = (domain_ids, factor)
        self._windows.append(window)
        return window

    def deactivate(self, window) -> None:
        if window in self._windows:
            self._windows.remove(window)

    @property
    def active_windows(self) -> int:
        return len(self._windows)

    def delay_ms(self, u: int, v: int) -> float:
        base = self._inner.delay_ms(u, v)
        if not self._windows:
            return base
        node_domain = self._topology.node_domain
        du, dv = int(node_domain[u]), int(node_domain[v])
        factor = 1.0
        for domains, f in self._windows:
            if domains is None or du in domains or dv in domains:
                factor *= f
        return base * factor

    def delays_from(self, source: int, targets) -> "np.ndarray":
        """Exactly ``[self.delay_ms(source, t) for t in targets]`` as
        float64, like :meth:`DelayOracle.delays_from`."""
        delay_ms = self.delay_ms
        return np.array([delay_ms(source, t) for t in targets], dtype=np.float64)


class FaultInjector:
    """Replays a fault schedule into one churn simulation.

    Usage::

        injector = FaultInjector(schedule)
        injector.bind(sim.churn, resilience=metrics)   # before run()
        sim.run()
        injector.log                                   # what fired, when

    ``bind`` schedules one timer event per fault (at priority -2, so an
    injected kill beats a natural departure at the same instant and the
    later natural event no-ops).  The optional ``resilience`` collector is
    fed through :func:`wire_resilience` and receives the injection log.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        #: What actually fired: (time, kind, detail) in firing order.
        self.log: List[Tuple[float, str, dict]] = []
        self.churn: Optional[ChurnSimulation] = None
        self.resilience: Optional[ResilienceMetrics] = None
        self._degraded: Optional[DegradedOracle] = None
        self._sessions: Dict[int, Session] = {}
        self._next_member_id = 1

    # -- binding ---------------------------------------------------------------

    def bind(
        self,
        churn: ChurnSimulation,
        resilience: Optional[ResilienceMetrics] = None,
    ) -> "FaultInjector":
        if self.churn is not None:
            raise FaultError("a FaultInjector binds to exactly one simulation")
        self.churn = churn
        self.resilience = resilience
        self._sessions = {s.member_id: s for s in churn.workload.sessions}
        self._next_member_id = (
            max(
                (mid for mid in self._sessions if mid != PROBE_MEMBER_ID),
                default=0,
            )
            + 1
        )
        if any(isinstance(f, LinkDegradation) for f in self.schedule.faults):
            self._degraded = DegradedOracle(churn.oracle, churn.topology)
            churn.oracle = self._degraded
            churn.ctx.oracle = self._degraded
        if resilience is not None:
            wire_resilience(churn, resilience)
        horizon = churn.workload.horizon_s
        for index, fault in enumerate(self.schedule.faults):
            churn.sim.schedule_at(
                fault.fire_time(horizon),
                self._fire_closure(fault, index),
                label=f"fault:{fault.kind}",
                priority=-2,
            )
        return self

    def _fire_closure(self, fault, index: int) -> Callable[[], None]:
        entropy = [self.schedule.seed, index]

        def fire() -> None:
            rng = np.random.default_rng(entropy)
            detail = fault.inject(self, rng)
            now = self.churn.sim.now
            self.log.append((now, fault.kind, detail))
            if self.resilience is not None:
                self.resilience.record_fault(now, fault.kind, detail)

        return fire

    # -- context the primitives drive ---------------------------------------------

    @property
    def now(self) -> float:
        return self.churn.sim.now

    def attached_members(self) -> List[OverlayNode]:
        """Attached non-root members, sorted by member id."""
        nodes = [n for n in self.churn.tree.attached_nodes() if not n.is_root]
        nodes.sort(key=lambda n: n.member_id)
        return nodes

    def root_children(self) -> List[OverlayNode]:
        return list(self.churn.tree.root.children)

    def members_by_id(self, member_ids: Sequence[int]) -> List[OverlayNode]:
        members = self.churn.tree.members
        found = []
        for member_id in sorted(member_ids):
            node = members.get(member_id)
            if node is not None and not node.is_root:
                found.append(node)
        return found

    def attached_domain_population(self) -> Dict[int, int]:
        """Attached non-root member count per stub-domain id."""
        node_domain = self.churn.topology.node_domain
        population: Dict[int, int] = {}
        for node in self.churn.tree.attached_nodes():
            if node.is_root:
                continue
            domain = int(node_domain[node.underlay_node])
            if domain >= 0:
                population[domain] = population.get(domain, 0) + 1
        return population

    def members_in_domains(self, domain_ids: Sequence[int]) -> List[OverlayNode]:
        """Every current member (attached or orphaned) homed in the domains."""
        wanted = set(int(d) for d in domain_ids)
        node_domain = self.churn.topology.node_domain
        return [
            node
            for _, node in sorted(self.churn.tree.members.items())
            if not node.is_root
            and int(node_domain[node.underlay_node]) in wanted
        ]

    def kill(self, victims: Sequence[OverlayNode], cause: str) -> List[int]:
        """Fail every victim in one correlated event; returns killed ids."""
        victims = [v for v in victims if not v.is_root]
        co_failed = frozenset(v.member_id for v in victims)
        killed = []
        for victim in sorted(victims, key=lambda n: n.member_id):
            if self.churn.fail_member(victim, cause=cause, co_failed_ids=co_failed):
                killed.append(victim.member_id)
        return killed

    def degrade(
        self,
        domain_ids: Optional[Sequence[int]],
        delay_factor: float,
        loss_rate: float,
        duration_s: float,
    ) -> int:
        """Open a degradation window; returns the affected member count."""
        if self._degraded is None:
            raise FaultError("bind() did not install a DegradedOracle")
        domains = set(int(d) for d in domain_ids) if domain_ids else None
        if delay_factor > 1.0:
            window = self._degraded.activate(domains, delay_factor)
            self.churn.sim.schedule_in(
                duration_s,
                lambda: self._degraded.deactivate(window),
                label="fault:degrade-end",
            )
        node_domain = self.churn.topology.node_domain
        affected = 0
        for node in self.churn.tree.attached_nodes():
            if node.is_root:
                continue
            if domains is None or int(node_domain[node.underlay_node]) in domains:
                affected += 1
        if loss_rate > 0.0 and self.resilience is not None:
            now = self.now
            self.resilience.record_stream_loss(
                now, now + duration_s, affected, loss_rate
            )
        return affected

    def spawn_arrivals(
        self,
        size: int,
        spread_s: float,
        rng: np.random.Generator,
        bandwidth: Optional[float] = None,
    ) -> int:
        """Schedule a burst of fresh sessions starting now."""
        cfg = self.churn.config.workload
        lifetime_dist = LogNormalLifetime(
            cfg.lifetime_location, cfg.lifetime_shape, cap=cfg.lifetime_cap_s
        )
        stubs = np.asarray(self.churn.topology.stub_nodes)
        now = self.now
        offsets = (
            np.abs(rng.normal(0.0, spread_s, size=size))
            if spread_s > 0
            else np.zeros(size)
        )
        lifetimes = lifetime_dist.sample(rng, size=size)
        if bandwidth is None:
            bandwidths = BoundedPareto(
                cfg.pareto_shape, cfg.pareto_lower, cfg.pareto_upper
            ).sample(rng, size=size)
        else:
            bandwidths = np.full(size, float(bandwidth))
        nodes = rng.choice(stubs, size=size, replace=True)
        for i in range(size):
            member_id = self._fresh_member_id()
            session = Session(
                member_id=member_id,
                arrival_s=float(now + offsets[i]),
                lifetime_s=float(lifetimes[i]),
                bandwidth=float(bandwidths[i]),
                underlay_node=int(nodes[i]),
            )
            self._sessions[member_id] = session
            self.churn.sim.schedule_at(
                session.arrival_s,
                lambda s=session: self.churn._on_arrival(s),
                label="fault:flash-arrival",
            )
        return size

    def _fresh_member_id(self) -> int:
        member_id = self._next_member_id
        if member_id == PROBE_MEMBER_ID:
            member_id += 1
        self._next_member_id = member_id + 1
        return member_id

    def compress_lifetimes(
        self,
        factor: float,
        fraction: float,
        rng: np.random.Generator,
        cause: str,
    ) -> int:
        """Pull departures forward: remaining lifetime x ``factor``."""
        now = self.now
        compressed = 0
        for node in self.attached_members():
            if fraction < 1.0 and rng.random() >= fraction:
                continue
            session = self._sessions.get(node.member_id)
            if session is None:
                continue
            remaining = session.departure_s - now
            if remaining <= 0:
                continue
            new_departure = now + remaining * factor
            if new_departure >= session.departure_s:
                continue
            # The original departure event later finds the member gone and
            # no-ops (fail_member / _on_departure identity guards).
            self.churn.sim.schedule_at(
                new_departure,
                lambda n=node: self.churn.fail_member(n, cause=cause),
                priority=-1,
                label="fault:surge-departure",
            )
            compressed += 1
        return compressed
