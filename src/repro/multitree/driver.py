"""The K-tree churn orchestrator.

Runs K stripe trees over the *same* member population and underlay.
Each member is interior-capable only in its **home tree** (member id
modulo K — the SplitStream interior-disjointness rule); in the other
trees it joins with zero out-degree.  The multicast source serves every
stripe, its outbound budget split evenly, which leaves it the same
per-tree fan-out as in the single-tree system (each stripe carries 1/K
of the rate).

Stripe trees are *independent* given the capacity assignment — they
share no overlay state — so the orchestrator composes K single-tree
simulations over one workload and combines their outage timelines:

* a member's **stripe outage** is the real detach→reattach (or
  detach→departure) window an upstream failure opens in one stripe,
  recorded by that stripe's :class:`~repro.metrics.collectors.
  ResilienceMetrics` (quality degrades by 1/K);
* a **blackout** is an instant where *all* K stripes are down at once —
  the single-tree "streaming disruption" equivalent, which
  interior-disjointness is designed to make rare.

Beyond the original sketch, the orchestrator composes the rest of the
stack per stripe:

* **protocols** — each stripe tree can run a different registered
  protocol (``stripe_protocols``), and ``switch_interval_s`` enables
  periodic BTP switching inside every stripe;
* **repair** — a scheme grid turns every stripe into a
  :class:`~repro.simulation.streaming.RecoverySimulation` (CER/MLC per
  stripe) with the residual-bandwidth budget split evenly across
  stripes;
* **faults** — a :class:`~repro.faults.schedule.FaultSchedule` is
  planned once by :class:`~repro.multitree.faults.StripeFaultPlanner`
  and replayed into every stripe, so a correlated crash removes the
  member from *all* trees atomically.

The driver reads no run flag: its caller hands each stripe a checker
through the ``check_invariants`` factory and observes the stripes
:meth:`MultiTreeSimulation.stripes` lists before the run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SimulationConfig
from ..faults.injector import ResilienceFeed, wire_resilience
from ..faults.schedule import FaultSchedule
from ..metrics.collectors import ResilienceMetrics
from ..metrics.stats import mean_and_ci
from ..overlay.node import OverlayNode
from ..protocols import PROTOCOLS
from ..simulation.churn import ChurnRunResult, ChurnSimulation
from ..simulation.streaming import RecoverySimulation
from .faults import StripeFaultPlanner
from .metrics import MultiTreeResilienceMetrics


def home_tree(member_id: int, num_trees: int) -> int:
    """The one stripe where ``member_id`` is interior-capable
    (SplitStream interior-disjointness: member id modulo K)."""
    return member_id % num_trees


ProtocolSpec = Union[str, Callable]


def _resolve_protocol(spec: ProtocolSpec) -> Callable:
    """A registered protocol name, or any factory callable, per stripe."""
    if isinstance(spec, str):
        return PROTOCOLS[spec]
    if callable(spec):
        return spec
    raise TypeError(f"stripe protocol must be a name or factory, got {spec!r}")


def _protocol_label(spec: ProtocolSpec) -> str:
    if isinstance(spec, str):
        return spec
    return getattr(spec, "protocol_name", None) or getattr(
        spec, "__name__", type(spec).__name__
    )


@dataclass
class MultiTreeResult:
    """Combined metrics of a K-tree run."""

    num_trees: int
    #: Per-stripe run results (ChurnRunResult, or RecoveryRunResult when a
    #: scheme grid was evaluated per stripe).
    per_tree: List
    #: Stripe outages experienced per member lifetime (mean over departed
    #: members): how often *some* stripe was interrupted.
    stripe_disruptions_per_node: float
    #: Blackouts (all stripes down simultaneously) per member lifetime.
    blackouts_per_node: float
    #: Mean fraction of the stream delivered over members' lifetimes
    #: (1 - lost stripe-time / (K * view time)).
    mean_delivered_quality: float
    #: Mean over members of max-over-stripes service delay (all stripes
    #: are needed, so the slowest stripe gates playback).
    effective_delay_ms: float
    members_measured: int
    #: Fraction of member view-time spent in total blackout.
    blackout_rate: float = 0.0
    #: Fraction of member stripe-time (K x view) lost to outages.
    stripe_outage_rate: float = 0.0
    #: Time-binned blackout/outage/quality series (see multitree.metrics).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: Full resilience aggregate, JSON-ready.
    resilience: Dict[str, object] = field(default_factory=dict)
    #: Injected faults that fired: (time, kind, detail) per fault.
    fault_log: List[Tuple[float, str, dict]] = field(default_factory=list)
    #: The protocol running in each stripe, by label.
    stripe_protocols: Tuple[str, ...] = ()


class MultiTreeSimulation:
    """Compose K stripe-tree simulations over one workload."""

    def __init__(
        self,
        config: SimulationConfig,
        protocol_factory: Optional[Callable] = None,
        num_trees: int = 2,
        topology=None,
        oracle=None,
        stripe_protocols: Optional[Sequence[ProtocolSpec]] = None,
        switch_interval_s: Optional[float] = None,
        schemes: Optional[Sequence] = None,
        faults: Optional[FaultSchedule] = None,
        check_invariants: Optional[Callable[[], object]] = None,
    ):
        """``check_invariants`` is called once per stripe for that stripe
        simulation's argument of the same name."""
        if num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {num_trees}")
        self.num_trees = num_trees
        self.base_config = config
        self.schemes = list(schemes) if schemes else None
        stripe_rate = config.workload.stream_rate / num_trees
        # Per-stripe config: the stripe carries 1/K of the rate and the
        # source commits 1/K of its outbound budget to it.
        stripe_config = dataclasses.replace(
            config,
            workload=dataclasses.replace(
                config.workload,
                stream_rate=stripe_rate,
                root_bandwidth=config.workload.root_bandwidth / num_trees,
            ),
        )
        if switch_interval_s is not None:
            stripe_config = stripe_config.with_switch_interval(switch_interval_s)
        if self.schemes:
            # The residual repair budget is a per-member resource; split it
            # evenly so K stripes together spend what one tree would.
            stripe_config = dataclasses.replace(
                stripe_config,
                recovery=dataclasses.replace(
                    stripe_config.recovery,
                    residual_max_pps=config.recovery.residual_max_pps / num_trees,
                ),
            )
        self.stripe_config = stripe_config

        if stripe_protocols is None:
            if protocol_factory is None:
                raise ValueError(
                    "provide protocol_factory or stripe_protocols"
                )
            specs: List[ProtocolSpec] = [protocol_factory] * num_trees
        else:
            specs = list(stripe_protocols)
            if len(specs) == 1:
                specs = specs * num_trees
            if len(specs) != num_trees:
                raise ValueError(
                    f"stripe_protocols needs 1 or {num_trees} entries, "
                    f"got {len(specs)}"
                )
        self.stripe_protocol_names: Tuple[str, ...] = tuple(
            _protocol_label(spec) for spec in specs
        )

        self._sims: List = []
        self._churns: List[ChurnSimulation] = []
        self.stripe_resilience: List[ResilienceMetrics] = []
        self._feeds: List[ResilienceFeed] = []
        self._measured: Dict[int, Tuple[float, float]] = {}
        self.resilience = MultiTreeResilienceMetrics(
            num_trees, stripe_config.warmup_s, stripe_config.horizon_s
        )

        workload = None
        for tree_index in range(num_trees):

            def member_setup(node: OverlayNode, tree_index=tree_index) -> None:
                if home_tree(node.member_id, self.num_trees) == tree_index:
                    # Home tree: full forwarding capacity, measured against
                    # the stripe rate.
                    node.out_degree_cap = int(
                        node.bandwidth / self.stripe_config.workload.stream_rate
                    )
                else:
                    # Leaf everywhere else (interior-disjointness).
                    node.out_degree_cap = 0

            seeded = self.stripe_config.with_seed(config.seed * 7 + tree_index)
            factory = _resolve_protocol(specs[tree_index])
            stripe_check = check_invariants() if check_invariants else False
            if self.schemes:
                sim = RecoverySimulation(
                    seeded,
                    factory,
                    self.schemes,
                    topology=topology,
                    oracle=oracle,
                    workload=workload,
                    member_setup=member_setup,
                    check_invariants=stripe_check,
                )
                churn = sim.churn
            else:
                sim = churn = ChurnSimulation(
                    seeded,
                    factory,
                    topology=topology,
                    oracle=oracle,
                    workload=workload,
                    member_setup=member_setup,
                    check_invariants=stripe_check,
                )
            # All stripes share one underlay and one workload.
            topology, oracle, workload = churn.topology, churn.oracle, churn.workload

            resilience = ResilienceMetrics(
                seeded.warmup_s, seeded.horizon_s
            )
            # Subscribed after the stripe's own listeners (the recovery
            # observer, the checker).
            self._feeds.append(wire_resilience(churn, resilience))
            if tree_index == 0:
                churn.sim.subscribe(self)
            self._sims.append(sim)
            self._churns.append(churn)
            self.stripe_resilience.append(resilience)
        self.topology, self.oracle, self.workload = topology, oracle, workload

        self.fault_planner: Optional[StripeFaultPlanner] = None
        if faults is not None:
            self.fault_planner = StripeFaultPlanner(
                faults, self.workload, self.topology
            )
            for tree_index, churn in enumerate(self._churns):
                self.fault_planner.bind_stripe(
                    tree_index, churn, self.stripe_resilience[tree_index]
                )

    def stripes(self) -> List[Tuple[object, Dict[str, object]]]:
        """Each stripe's simulation with the meta of its ObsUnit."""
        population = int(self.base_config.workload.target_population)
        return [
            (
                sim,
                {
                    "kind": "multitree",
                    "protocol": self.stripe_protocol_names[tree_index],
                    "population": population,
                    "seed": int(self.base_config.seed),
                    "stripe": tree_index,
                    "trees": self.num_trees,
                },
            )
            for tree_index, sim in enumerate(self._sims)
        ]

    # -- listener ---------------------------------------------------------------

    def on_departure(self, now: float, node: OverlayNode) -> None:
        """Record (join, departure) of members measured inside the window.

        Only stripe 0 publishes here — the workload (and hence the member
        timeline) is shared across stripes.
        """
        if not node.ever_attached:
            return
        if not self._churns[0].metrics.in_window(now):
            return
        self._measured[node.member_id] = (node.join_time, now)

    # -- run ----------------------------------------------------------------------

    def run(self) -> MultiTreeResult:
        results = [sim.run() for sim in self._sims]
        for feed, churn in zip(self._feeds, self._churns):
            feed.finish(churn.sim.now)
        return self._combine(results)

    def _combine(self, results: Sequence) -> MultiTreeResult:
        aggregate = self.resilience
        for member_id in sorted(self._measured):
            join_s, departure_s = self._measured[member_id]
            per_stripe = [
                r.outage_intervals.get(member_id, [])
                for r in self.stripe_resilience
            ]
            aggregate.observe_member(member_id, join_s, departure_s, per_stripe)

        effective_delay = self._effective_delay()
        return MultiTreeResult(
            num_trees=self.num_trees,
            per_tree=list(results),
            stripe_disruptions_per_node=aggregate.stripe_outages_per_node,
            blackouts_per_node=aggregate.blackouts_per_node,
            mean_delivered_quality=aggregate.mean_delivered_quality,
            effective_delay_ms=effective_delay,
            members_measured=aggregate.members_measured,
            blackout_rate=aggregate.blackout_rate,
            stripe_outage_rate=aggregate.stripe_outage_rate,
            series=aggregate.series(),
            resilience=aggregate.as_dict(),
            fault_log=list(self.fault_planner.log) if self.fault_planner else [],
            stripe_protocols=self.stripe_protocol_names,
        )

    def _effective_delay(self) -> float:
        """Mean over members of the slowest stripe's delay (end state)."""
        delays: List[float] = []
        for member_id in self._churns[0].tree.members:
            if member_id == 0:
                continue
            per_stripe = []
            for churn in self._churns:
                node = churn.tree.members.get(member_id)
                if node is None or not node.attached:
                    break
                per_stripe.append(churn.ctx.service_delay_ms(node))
            else:
                delays.append(max(per_stripe))
        mean, _ = mean_and_ci(delays or [float("nan")])
        return mean
