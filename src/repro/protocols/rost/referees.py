"""The reference-node (referee) mechanism of Section 3.4.

Truth telling is critical for ROST: a member could claim a huge bandwidth
or age to climb toward the root and then disrupt the whole tree.  The
paper's defence:

* **Age referees** — when a member joins, its *parent* records the joining
  time with ``r_age > 1`` randomly chosen members, who keep heartbeat
  connections with the new member and act as its age witnesses.  The
  member cannot designate its own referees (no collusion); the parent has
  no incentive to collude with a potential competitor.
* **Bandwidth referees** — the parent hands the new member a *measurer
  set* which jointly measures its effective outgoing bandwidth; the
  aggregated measurement is stored with ``r_bw > 1`` bandwidth referees.

Whenever ROST needs another member's BTP it consults that member's
referees rather than trusting the member's own claim.  Referees that
depart are replaced (the new referee synchronizes with the surviving
ones), so the recorded truth outlives individual referees.

:class:`RefereeService` implements all of this bookkeeping; setting
``use_referees=False`` on :class:`~repro.protocols.rost.protocol.RostProtocol`
ablates the mechanism so its effect on cheaters can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...errors import ProtocolError
from ...overlay.messages import MessageType
from ...overlay.node import OverlayNode
from ..base import ProtocolContext


@dataclass
class RefereeRecord:
    """The referee-replicated truth about one member."""

    member_id: int
    #: Measured (true) outbound bandwidth, recorded by the measurer set.
    measured_bandwidth: float
    #: Join time recorded by the parent at join.
    recorded_join_time: float
    age_referees: List[int] = field(default_factory=list)
    bandwidth_referees: List[int] = field(default_factory=list)


class RefereeService:
    """Tracks referee assignments and answers verification queries."""

    def __init__(self, ctx: ProtocolContext):
        self.ctx = ctx
        self._records: Dict[int, RefereeRecord] = {}
        #: referee member id -> ids of members it referees for.
        self._refereeing: Dict[int, Set[int]] = {}
        self.replacements = 0
        self.lost_records = 0

    # -- registration -------------------------------------------------------------

    def register(self, node: OverlayNode, now: float) -> None:
        """Record the member's measured bandwidth and join time with fresh
        referees (called once, at the member's first join)."""
        if node.member_id in self._records:
            raise ProtocolError(f"member {node.member_id} already has referees")
        record = RefereeRecord(
            member_id=node.member_id,
            measured_bandwidth=self._measure_bandwidth(node),
            recorded_join_time=node.join_time,
        )
        config = self.ctx.config
        record.age_referees = self._pick_referees(node, config.age_referees)
        record.bandwidth_referees = self._pick_referees(
            node, config.bandwidth_referees
        )
        for referee_id in record.age_referees + record.bandwidth_referees:
            self._refereeing.setdefault(referee_id, set()).add(node.member_id)
        self._records[node.member_id] = record
        self.ctx.messages.record(
            MessageType.REFEREE_ASSIGN,
            len(record.age_referees) + len(record.bandwidth_referees),
        )

    def _measure_bandwidth(self, node: OverlayNode) -> float:
        """The measurer set's aggregated estimate of the node's *effective*
        outgoing bandwidth (Section 3.4).

        The newcomer concurrently transmits test data to
        ``bandwidth_measurers`` members; each observes a partial rate (an
        equal share of the true outbound capacity, up to measurement
        noise) and the parent aggregates the partials.  The estimate is
        grounded in what the node actually transmits — a cheater's *claim*
        never enters it.
        """
        config = self.ctx.config
        measurers = max(1, config.bandwidth_measurers)
        self.ctx.messages.record(MessageType.REFEREE_ASSIGN, measurers)
        if config.measurement_noise <= 0:
            return node.bandwidth
        share = node.bandwidth / measurers
        partials = share * (
            1.0 + self.ctx.rng.normal(0.0, config.measurement_noise, size=measurers)
        )
        return float(max(0.0, partials.sum()))

    def _pick_referees(self, node: OverlayNode, count: int) -> List[int]:
        picked = self.ctx.membership.sample(count, exclude=[node], attached_only=False)
        return [p.member_id for p in picked]

    # -- verification -----------------------------------------------------------------

    def lookup(self, nodes: Sequence[OverlayNode]) -> List[Tuple[float, float]]:
        """(bandwidth, join_time) per member, as its referees recorded it.

        A pure read that sends no messages.  Falls back to a member's own
        claims only if its record was lost (every referee failed before
        replacement — tracked for reporting).
        """
        records = self._records
        values = []
        for node in nodes:
            record = records.get(node.member_id)
            if record is None:
                values.append((node.claimed_bandwidth, node.claimed_join_time))
            else:
                values.append((record.measured_bandwidth, record.recorded_join_time))
        return values

    def verified_many(self, nodes: Sequence[OverlayNode]) -> List[Tuple[float, float]]:
        """:meth:`lookup`, priced as one REFEREE_QUERY and one REFEREE_REPLY
        per member; each type is recorded once for the whole batch."""
        values = self.lookup(nodes)
        messages = self.ctx.messages
        messages.record(MessageType.REFEREE_QUERY, len(values))
        messages.record(MessageType.REFEREE_REPLY, len(values))
        return values

    def verified(self, node: OverlayNode) -> Tuple[float, float]:
        """(bandwidth, join_time) as vouched for by the member's referees."""
        return self.verified_many((node,))[0]

    def verified_btp(self, node: OverlayNode, now: float) -> float:
        """Referee-verified Bandwidth-Time Product."""
        if node.is_root:
            return float("inf")
        bandwidth, join_time = self.verified(node)
        return bandwidth * (now - join_time)

    def has_record(self, member_id: int) -> bool:
        return member_id in self._records

    def referee_count(self, member_id: int) -> int:
        record = self._records.get(member_id)
        if record is None:
            return 0
        return len(record.age_referees) + len(record.bandwidth_referees)

    # -- churn handling ----------------------------------------------------------------

    def on_departure(self, node: OverlayNode) -> None:
        """Drop the departing member's record and replace it wherever it
        served as a referee."""
        self._records.pop(node.member_id, None)
        wards = self._refereeing.pop(node.member_id, None)
        if not wards:
            return
        for ward_id in wards:
            record = self._records.get(ward_id)
            if record is None:
                continue
            self._replace_referee(record, node.member_id)

    def _replace_referee(self, record: RefereeRecord, departed_id: int) -> None:
        """The ward asks its parent for a new referee, which synchronizes
        with the surviving ones (Section 3.4)."""
        ward = self.ctx.tree.members.get(record.member_id)
        for referee_list in (record.age_referees, record.bandwidth_referees):
            if departed_id not in referee_list:
                continue
            referee_list.remove(departed_id)
            survivors = [
                r for r in record.age_referees + record.bandwidth_referees
            ]
            replacement: Optional[OverlayNode] = None
            if ward is not None:
                exclude = [ward] + [
                    self.ctx.tree.members[r]
                    for r in survivors
                    if r in self.ctx.tree.members
                ]
                replacement = self.ctx.membership.random_member(
                    exclude=exclude, attached_only=False
                )
            if replacement is not None:
                referee_list.append(replacement.member_id)
                self._refereeing.setdefault(replacement.member_id, set()).add(
                    record.member_id
                )
                self.replacements += 1
                self.ctx.messages.record(MessageType.REFEREE_ASSIGN)
            elif not survivors:
                # Every referee died with no replacement available: the
                # replicated record is lost.
                self._records.pop(record.member_id, None)
                self.lost_records += 1
                return

    def estimated_heartbeat_messages(self, duration_s: float, interval_s: float = 30.0) -> int:
        """Analytic count of referee heartbeats over ``duration_s``.

        Heartbeats are constant-rate background traffic; counting them
        analytically (members x referees x rate) avoids flooding the event
        queue with no behavioural consequence.
        """
        per_member = self.ctx.config.age_referees + self.ctx.config.bandwidth_referees
        return int(len(self._records) * per_member * duration_s / interval_s)
