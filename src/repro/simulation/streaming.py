"""Packet-level recovery simulation (Figures 12-14).

Runs a churn simulation and prices every streaming disruption as a
packet-level starvation episode under one or more
:class:`~repro.recovery.schemes.RecoveryScheme` configurations
simultaneously (the tree evolution is identical for all schemes, so a
single churn pass evaluates the whole scheme grid).

Per failure of member *f*:

* every child *c* of *f* must rejoin; with ELN (the paper's protocol) *c*
  alone runs the recovery — repaired packets flow down to *c*'s subtree,
  so every member of the subtree experiences *c*'s episode timeline;
* *c*'s recovery group was selected before the failure from its partial
  view (Algorithm 1 for MLC schemes, uniform for the random baseline),
  ordered by network distance; group members that share the failed
  upstream are co-affected and NACK;
* the episode outcome (missed playback slots) accumulates into each
  member's :class:`~repro.recovery.buffer.PlaybackState`; at departure
  the member's starving-time ratio joins the scheme's sample.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RecoveryConfig, SimulationConfig
from ..metrics.collectors import exact_num
from ..metrics.stats import mean_and_ci
from ..overlay.node import OverlayNode
from ..recovery.buffer import PlaybackState
from ..recovery.episode import BackfillSpec, RepairSource, starvation_episode
from ..recovery.mlc import (
    PartialTreeView,
    group_loss_correlation,
    group_underlay_correlation,
    select_mlc_group,
    select_random_group,
)
from ..recovery.schemes import RecoveryScheme
from .churn import ChurnRunResult, ChurnSimulation, DisruptionEvent


@dataclass
class SchemeResult:
    """Per-scheme outcome of a recovery run."""

    scheme: RecoveryScheme
    #: Starving-time ratios of members that departed in the window.
    ratios: List[float] = field(default_factory=list)
    #: Aggregate starving / viewing seconds over the same members.  Each
    #: member's starving is clipped to its viewing time.
    total_starving_s: float = 0.0
    total_view_s: float = 0.0
    episodes: int = 0
    #: Total repair coverage observed (mean fraction of the stream rate
    #: the contacted sources provided).
    coverage_sum: float = 0.0
    #: Gap packets priced / repaired before their playback deadline,
    #: summed over every member-episode: their ratio is the scheme's
    #: repair success rate (the campaign-level resilience headline).
    gap_packets_total: int = 0
    repaired_packets_total: int = 0
    #: Loss-correlation accounting of the recovery groups this scheme
    #: actually used: pairwise shared-tree-edge sums (Section 4.1's ``w``)
    #: and pairwise same-stub-domain counts, summed over episodes.
    group_tree_correlation_sum: int = 0
    group_domain_correlation_sum: int = 0
    groups_selected: int = 0

    @property
    def avg_starving_ratio_pct(self) -> float:
        """Aggregate starving-time ratio: total starving over total view
        time (the headline metric of Figs 12-14).

        The per-member mean (:attr:`mean_member_ratio_pct`) is reported
        too, but it is dominated by members whose lifetime barely exceeds
        the startup buffering — a one-second viewer hit by a failure
        scores a ratio of 1.0 and swamps the average.  Aggregating weights
        members by how long they actually watched.
        """
        if self.total_view_s <= 0:
            return float("nan")
        return 100.0 * self.total_starving_s / self.total_view_s

    @property
    def mean_member_ratio_pct(self) -> float:
        mean, _ = mean_and_ci(self.ratios)
        return 100.0 * mean

    @property
    def mean_coverage(self) -> float:
        return self.coverage_sum / self.episodes if self.episodes else float("nan")

    @property
    def repair_success_rate(self) -> float:
        """Fraction of gap packets delivered before their deadline."""
        if self.gap_packets_total <= 0:
            return float("nan")
        return self.repaired_packets_total / self.gap_packets_total

    @property
    def mean_group_domain_correlation(self) -> float:
        """Mean same-stub-domain pair count per selected recovery group."""
        if self.groups_selected <= 0:
            return float("nan")
        return self.group_domain_correlation_sum / self.groups_selected

    # -- serialization ------------------------------------------------------------

    def to_payload(self) -> dict:
        """Exact JSON-ready form; inverse of :meth:`from_payload`."""
        return {
            "scheme": dataclasses.asdict(self.scheme),
            "ratios": [exact_num(r) for r in self.ratios],
            "total_starving_s": exact_num(self.total_starving_s),
            "total_view_s": exact_num(self.total_view_s),
            "episodes": int(self.episodes),
            "coverage_sum": exact_num(self.coverage_sum),
            "gap_packets_total": int(self.gap_packets_total),
            "repaired_packets_total": int(self.repaired_packets_total),
            "group_tree_correlation_sum": int(self.group_tree_correlation_sum),
            "group_domain_correlation_sum": int(self.group_domain_correlation_sum),
            "groups_selected": int(self.groups_selected),
        }

    @classmethod
    def from_payload(cls, data: dict) -> "SchemeResult":
        return cls(
            scheme=RecoveryScheme(**data["scheme"]),
            ratios=list(data["ratios"]),
            total_starving_s=data["total_starving_s"],
            total_view_s=data["total_view_s"],
            episodes=data["episodes"],
            coverage_sum=data["coverage_sum"],
            gap_packets_total=data["gap_packets_total"],
            repaired_packets_total=data["repaired_packets_total"],
            group_tree_correlation_sum=data["group_tree_correlation_sum"],
            group_domain_correlation_sum=data["group_domain_correlation_sum"],
            groups_selected=data["groups_selected"],
        )


@dataclass
class RecoveryRunResult:
    """Churn result plus the per-scheme starvation statistics."""

    churn: ChurnRunResult
    schemes: Dict[str, SchemeResult]

    def ratio_pct(self, scheme_name: str) -> float:
        return self.schemes[scheme_name].avg_starving_ratio_pct

    def to_payload(self) -> dict:
        """Exact JSON-ready form; scheme order is preserved (JSON objects
        keep insertion order), so iteration downstream is unchanged."""
        return {
            "churn": self.churn.to_payload(),
            "schemes": {
                name: result.to_payload() for name, result in self.schemes.items()
            },
        }

    @classmethod
    def from_payload(cls, data: dict) -> "RecoveryRunResult":
        return cls(
            churn=ChurnRunResult.from_payload(data["churn"]),
            schemes={
                name: SchemeResult.from_payload(payload)
                for name, payload in data["schemes"].items()
            },
        )


class RecoveryObserver:
    """Evaluates a grid of recovery schemes off a churn run's
    ``disruption`` and ``departure`` topics.

    Each priced episode is published in turn as ``episode_pre`` and
    ``episode_post`` (see :meth:`_apply_episode`).
    """

    def __init__(
        self,
        schemes: Sequence[RecoveryScheme],
        recovery_config: RecoveryConfig,
        recovery_window_s: float,
        view_size: int,
    ):
        names = [s.name for s in schemes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scheme names: {names}")
        self.schemes = list(schemes)
        self.recovery_config = recovery_config
        self.recovery_window_s = recovery_window_s
        self.view_size = view_size
        self.results: Dict[str, SchemeResult] = {
            s.name: SchemeResult(s) for s in self.schemes
        }
        self._states: Dict[Tuple[str, int], PlaybackState] = {}
        self._residuals: Dict[int, float] = {}
        self._episode_counter = 0
        # Bound after the ChurnSimulation is constructed.
        self.churn: Optional[ChurnSimulation] = None

    # -- residual bandwidths -------------------------------------------------------

    def residual_pps(self, member_id: int) -> float:
        """Stable per-member residual bandwidth, U[0, residual_max_pps]."""
        value = self._residuals.get(member_id)
        if value is None:
            gen = np.random.default_rng([self.recovery_config.seed, member_id])
            value = float(gen.uniform(0.0, self.recovery_config.residual_max_pps))
            self._residuals[member_id] = value
        return value

    # -- disruption pricing -----------------------------------------------------------

    def on_disruption(self, event: DisruptionEvent) -> None:
        assert self.churn is not None, "observer not bound to a churn simulation"
        now, failed = event.time, event.failed
        affected_ids = {failed.member_id}
        affected_ids.update(d.member_id for d in failed.descendants())
        # Correlated-failure accounting: members dying in the same fault
        # event (e.g. a whole stub domain) cannot serve repairs either,
        # even when they have not been dismantled yet at pricing time.
        affected_ids.update(event.co_failed_ids)
        rescued = self._rescued_children(now, failed)
        for child in failed.children:
            self._price_child_episode(
                now, child, affected_ids, rescued=child.member_id in rescued
            )

    def _rescued_children(self, now: float, failed: OverlayNode) -> set:
        """Children whose proactive rescue plan (the grandparent) applies."""
        protocol_cfg = self.churn.config.protocol
        if not protocol_cfg.proactive_rescue:
            return set()
        parent = failed.parent
        if parent is None or not parent.attached:
            return set()
        slots = parent.spare_degree
        ordered = sorted(
            failed.children, key=lambda c: c.claimed_btp(now), reverse=True
        )
        return {child.member_id for child in ordered[:slots]}

    def _price_child_episode(
        self, now: float, child: OverlayNode, affected_ids: set, rescued: bool = False
    ) -> None:
        self._episode_counter += 1
        subtree = [child] + child.descendants()
        exclude_ids = {m.member_id for m in subtree}
        view = self._build_view(child, exclude_ids)
        protocol_cfg = self.churn.config.protocol
        outage_s = protocol_cfg.failure_detect_s + (
            protocol_cfg.rescue_s if rescued else protocol_cfg.rejoin_s
        )
        gap_packets = int(round(outage_s * self.recovery_config.packet_rate_pps))
        # The residual bandwidth of the post-rejoin parent is a property of
        # the episode, not of the recovery scheme: every scheme sees the
        # same new parent.
        backfill_rng = np.random.default_rng(
            [self.recovery_config.seed, child.member_id, self._episode_counter, 777]
        )
        backfill_rate = float(
            backfill_rng.uniform(0.0, self.recovery_config.residual_max_pps)
        )
        for scheme in self.schemes:
            sources = self._sources_for(scheme, child, view, affected_ids)
            backfill = self._backfill_for(scheme, backfill_rate, outage_s)
            if scheme.eln:
                self._apply_episode(
                    scheme, now, subtree, sources, gap_packets, backfill
                )
            else:
                # ELN ablation: every affected member recovers on its own.
                for member in subtree:
                    own_sources = self._sources_for(
                        scheme, member, view, affected_ids
                    )
                    self._apply_episode(
                        scheme, now, [member], own_sources, gap_packets, backfill
                    )

    def _backfill_for(
        self, scheme: RecoveryScheme, rate_pps: float, outage_s: float
    ) -> BackfillSpec:
        """Post-rejoin backfill: the new parent replays the part of the gap
        its own playback buffer (scheme.buffer_s deep) still holds."""
        rate = self.recovery_config.packet_rate_pps
        cutoff = max(0.0, (outage_s - scheme.buffer_s) * rate)
        return BackfillSpec(
            start_s=outage_s,
            rate_pps=rate_pps,
            cutoff_seq=int(np.ceil(cutoff)),
        )

    def _build_view(
        self, requester: OverlayNode, exclude_ids: set
    ) -> Optional[PartialTreeView]:
        membership = self.churn.membership
        sample = membership.sample_for(
            requester, self.view_size, attached_only=True
        )
        known = [m for m in sample if m.member_id not in exclude_ids]
        if not known:
            return None
        return PartialTreeView.from_members(known, exclude=exclude_ids)

    def _sources_for(
        self,
        scheme: RecoveryScheme,
        requester: OverlayNode,
        view: Optional[PartialTreeView],
        affected_ids: set,
    ) -> List[RepairSource]:
        if view is None:
            return []
        # The group depends only on the failure episode, the selection
        # policy and the group size — never on the scheme's buffer or the
        # order schemes are evaluated in — so scheme variants that share a
        # policy compare against byte-identical recovery groups.
        group_rng = np.random.default_rng(
            [
                self.recovery_config.seed,
                requester.member_id,
                self._episode_counter,
                int(scheme.use_mlc),
                scheme.group_size,
            ]
        )
        if scheme.use_mlc:
            group_ids = select_mlc_group(
                view,
                scheme.group_size,
                group_rng,
                domain_of=self._domain_of if scheme.domain_aware else None,
            )
        else:
            group_ids = select_random_group(view, scheme.group_size, group_rng)
        oracle = self.churn.oracle
        members = self.churn.tree.members
        self._record_group_correlation(scheme, group_ids, members)
        present = [
            (member_id, members[member_id])
            for member_id in group_ids
            if member_id in members
        ]
        delays = oracle.delays_from(
            requester.underlay_node, [node.underlay_node for _, node in present]
        )
        sources = [
            RepairSource(
                member_id=member_id,
                rate_pps=self.residual_pps(member_id),
                has_data=member_id not in affected_ids,
                delay_ms=float(delays[i]),
            )
            for i, (member_id, node) in enumerate(present)
        ]
        # "A member places the nodes of its recovery group in order of
        # network distance" (Section 4.2).
        sources.sort(key=lambda s: s.delay_ms)
        return sources

    def _domain_of(self, member_id: int) -> int:
        """Stub-domain id of a member (-1 when unknown or on transit)."""
        node = self.churn.tree.members.get(member_id)
        if node is None:
            return -1
        return int(self.churn.topology.node_domain[node.underlay_node])

    def _record_group_correlation(
        self, scheme: RecoveryScheme, group_ids: List[int], members: Dict
    ) -> None:
        """Accumulate tree- and underlay-level loss correlation of the
        group actually selected (deterministic per seed: the groups are)."""
        if not group_ids:
            return
        result = self.results[scheme.name]
        result.groups_selected += 1
        live = [members[m] for m in group_ids if m in members]
        result.group_tree_correlation_sum += group_loss_correlation(live)
        result.group_domain_correlation_sum += group_underlay_correlation(
            group_ids, self._domain_of
        )

    def _apply_episode(
        self,
        scheme: RecoveryScheme,
        now: float,
        members: List[OverlayNode],
        sources: List[RepairSource],
        gap_packets: int,
        backfill: Optional[BackfillSpec] = None,
    ) -> None:
        """Price one episode of ``members`` under ``scheme``.

        ``episode_pre`` and ``episode_post`` are published before and
        after the pricing, each with this observer followed by the
        arguments, so a listener can measure what the episode added to
        ``results[scheme.name]``.
        """
        episode = (self, scheme, now, members, sources, gap_packets, backfill)
        publish = self.churn.sim.publish
        publish("episode_pre", *episode)
        result = self.results[scheme.name]
        cache: Dict[float, object] = {}
        for member in members:
            state = self._state_for(scheme, member)
            buffer_ahead = state.buffer_ahead_at(now)
            key = round(buffer_ahead, 6)
            outcome = cache.get(key)
            if outcome is None:
                outcome = starvation_episode(
                    gap_packets=gap_packets,
                    packet_rate_pps=self.recovery_config.packet_rate_pps,
                    buffer_ahead_s=buffer_ahead,
                    # Packet-loss detection is per-packet (a missed
                    # delivery deadline), so repair starts almost
                    # immediately; the 5 s failure_detect_s only gates the
                    # rejoin and hence the gap length.
                    detect_s=self.recovery_config.repair_detect_s,
                    request_hop_s=self.recovery_config.request_hop_s,
                    sources=sources,
                    striped=scheme.striped,
                    backfill=backfill,
                )
                cache[key] = outcome
            state.record_episode(now, outcome.starving_s, outcome.repair_end_s)
            result.episodes += 1
            result.coverage_sum += outcome.coverage
            result.gap_packets_total += outcome.gap_packets
            result.repaired_packets_total += outcome.repaired_in_time
        publish("episode_post", *episode)

    def _state_for(self, scheme: RecoveryScheme, member: OverlayNode) -> PlaybackState:
        key = (scheme.name, member.member_id)
        state = self._states.get(key)
        if state is None:
            state = PlaybackState(
                buffer_s=scheme.buffer_s, join_time_s=member.join_time
            )
            self._states[key] = state
        return state

    # -- departures ----------------------------------------------------------------------

    def on_departure(self, now: float, node: OverlayNode) -> None:
        assert self.churn is not None
        if not node.ever_attached:
            return
        if not self.churn.metrics.in_window(now):
            self._drop_states(node.member_id)
            return
        for scheme in self.schemes:
            result = self.results[scheme.name]
            state = self._states.get((scheme.name, node.member_id))
            if state is not None:
                view = state.view_time_at(now)
                if view > 0:
                    result.ratios.append(state.starving_ratio_at(now))
                    result.total_view_s += view
                    result.total_starving_s += min(state.starving_s, view)
            else:
                # Never disrupted: a perfect (zero-starvation) viewing, as
                # long as the member actually got past startup buffering.
                view = now - node.join_time - scheme.buffer_s
                if view > 0:
                    result.ratios.append(0.0)
                    result.total_view_s += view
        self._drop_states(node.member_id)

    def _drop_states(self, member_id: int) -> None:
        for scheme in self.schemes:
            self._states.pop((scheme.name, member_id), None)


class RecoverySimulation:
    """Churn + recovery-scheme evaluation in one pass."""

    def __init__(
        self,
        config: SimulationConfig,
        protocol_factory,
        schemes: Sequence[RecoveryScheme],
        **churn_kwargs,
    ):
        self.observer = RecoveryObserver(
            schemes=schemes,
            recovery_config=config.recovery,
            recovery_window_s=config.protocol.recovery_window_s,
            view_size=config.protocol.partial_view_size,
        )
        self.churn = ChurnSimulation(
            config, protocol_factory, listeners=[self.observer], **churn_kwargs
        )
        self.observer.churn = self.churn

    def run(self) -> RecoveryRunResult:
        churn_result = self.churn.run()
        return RecoveryRunResult(churn=churn_result, schemes=self.observer.results)
