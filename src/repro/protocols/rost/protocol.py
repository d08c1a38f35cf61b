"""The ROST protocol: distributed joining + BTP-based switching.

Implements Section 3.3's three operations:

* **Joining** — query up to ``join_candidates`` known members, attach
  under the smallest-layer member with spare bandwidth (ties broken by
  network delay).  New members therefore start near the leaves and earn
  higher positions over time — the gradual-ascent property that keeps
  short-lived members away from the top of the tree.
* **Leaving** — handled by the churn driver (children rejoin); ROST only
  tears down the member's switching process and referee state.
* **BTP-based switching** — every ``switch_interval_s`` a member compares
  its (referee-verified) BTP with its parent's.  If its BTP is larger and
  its bandwidth is no less than the parent's, it locks the involved nodes
  and exchanges positions with the parent (Fig. 2); the parent's overflow
  children reconnect under the initiator, largest BTP first.  A failed
  lock acquisition retries after ``lock_retry_wait_s``.

Each tree operation is published on the simulator's listener list as
``switch_pre(op, node)`` and ``switch_post(op, node)`` around the tree
call (``op`` is ``"swap"`` or ``"promote"``), and the members it moved
as ``overhead(count)``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ...overlay.messages import MessageType
from ...overlay.node import OverlayNode
from ...sim.process import PeriodicProcess
from ..base import ProtocolContext, TreeProtocol
from .locking import switch_lock_set, try_lock_all
from .referees import RefereeService


class RostProtocol(TreeProtocol):
    """Reliability-Oriented Switching Tree (the paper's contribution)."""

    name = "rost"
    centralized = False

    def __init__(
        self,
        ctx: ProtocolContext,
        use_referees: bool = True,
        bandwidth_guard: bool = True,
        promote_into_spare: bool = True,
        grandparent_rejoin: bool = True,
        lock_hold_s: float = 2.0,
    ):
        """``use_referees=False`` trusts members' claims (ablation for the
        cheating study); ``bandwidth_guard=False`` drops the "child
        bandwidth >= parent bandwidth" switching condition (ablation
        showing why the guard prevents churny, short-lived promotions);
        ``promote_into_spare=False`` disables moving a BTP-dominant member
        into a spare slot of its grandparent (the cheaper alternative to a
        full role exchange whenever free capacity exists one level up);
        ``grandparent_rejoin=False`` disables grandparent-first failure
        recovery (succession: the freed slot under the failed member's own
        parent goes to one of its children, preserving the BTP ordering
        across failures instead of raffling top slots to arbitrary
        rejoiners)."""
        super().__init__(ctx)
        self.use_referees = use_referees
        self.bandwidth_guard = bandwidth_guard
        self.promote_into_spare = promote_into_spare
        self.grandparent_rejoin = grandparent_rejoin
        self.lock_hold_s = lock_hold_s
        self.referees = RefereeService(ctx) if use_referees else None
        self._switch_processes: Dict[int, PeriodicProcess] = {}
        #: Completed switch operations.
        self.switches = 0
        #: Completed spare-slot promotions.
        self.promotions = 0
        #: Switch attempts that found the condition true but lost the lock.
        self.lock_failures = 0

    # -- protocol interface -----------------------------------------------------------

    def place(self, node: OverlayNode, rejoin: bool) -> bool:
        parent = None
        if rejoin and self.grandparent_rejoin:
            parent = self._succession_parent(node)
        if parent is None:
            # Uniform views for both fresh joins and rejoin fallbacks:
            # freed slots near the root are claimed through succession and
            # BTP-earned promotion, never raffled to whoever rejoins next.
            candidates = self.sample_candidates(node, mature_view=False)
            parent = self.select_min_depth(node, candidates)
        node.rejoin_hint = None
        if parent is None:
            return False
        self.attach(node, parent)
        if node.member_id not in self._switch_processes:
            self._start_switching(node)
            if self.referees is not None and not self.referees.has_record(
                node.member_id
            ):
                self.referees.register(node, self.ctx.sim.now)
        return True

    def _succession_parent(self, node: OverlayNode) -> Optional[OverlayNode]:
        """The failed parent's own parent, if still usable by this heir.

        Heirs must be able to forward data (bandwidth at least the stream
        rate); a zero-degree orphan falls back to the normal rejoin so the
        inherited slot stays useful.
        """
        hint = node.rejoin_hint
        if hint is None:
            return None
        if node.bandwidth < self.ctx.stream_rate:
            return None
        if self.ctx.tree.members.get(hint.member_id) is not hint:
            return None
        if not hint.attached or hint.spare_degree <= 0:
            return None
        return hint

    def on_departure(self, node: OverlayNode) -> None:
        process = self._switch_processes.pop(node.member_id, None)
        if process is not None:
            process.stop()
        if self.referees is not None:
            self.referees.on_departure(node)

    def close(self) -> None:
        # Each switch timer's action is a partial of this protocol.
        self._switch_processes.clear()

    # -- switching ---------------------------------------------------------------------

    def _start_switching(self, node: OverlayNode) -> None:
        interval = self.ctx.config.switch_interval_s
        process = PeriodicProcess(
            self.ctx.sim, interval, functools.partial(self._switch_check, node)
        )
        # Random phase so member checks are decorrelated.  numpy computes
        # ``uniform(0.0, interval)`` as ``0.0 + interval * random()``: the
        # same double from the same generator step.
        process.start(initial_delay=interval * self.ctx.rng.random())
        self._switch_processes[node.member_id] = process

    def _values(
        self, members: Sequence[OverlayNode], account: bool = True
    ) -> List[Tuple[float, float]]:
        """(bandwidth, btp) per non-root member, used for switch decisions —
        referee-verified when the mechanism is on, otherwise whatever the
        members claim.

        The referee queries are priced (one query and one reply per
        member) unless ``account`` is False, which the invariant checker
        uses so that observing a run never changes its message counts.
        """
        now = self.ctx.sim.now
        referees = self.referees
        if referees is None:
            claims = [(m.claimed_bandwidth, m.claimed_join_time) for m in members]
        elif account:
            claims = referees.verified_many(members)
        else:
            claims = referees.lookup(members)
        return [(bw, bw * (now - join_time)) for bw, join_time in claims]

    def _switch_action(self, node: OverlayNode) -> str:
        """Decide what ``node`` should do this round.

        Returns ``"swap"`` (exchange roles with the parent), ``"promote"``
        (move into a spare slot of the grandparent — the cheaper operation,
        taken whenever free capacity exists one level up) or ``"none"``.
        """
        if not node.attached:
            return "none"
        parent = node.parent
        if parent is None or parent.is_root or parent.parent is None:
            return "none"
        self.ctx.messages.record(MessageType.BTP_QUERY)
        self.ctx.messages.record(MessageType.BTP_REPLY)
        (my_bandwidth, my_btp), (parent_bandwidth, parent_btp) = self._values(
            (node, parent)
        )
        if self.promote_into_spare and parent.parent.spare_degree > 0:
            if self._may_promote(node, my_bandwidth, my_btp):
                return "promote"
        if my_btp <= parent_btp:
            return "none"
        if self.bandwidth_guard and my_bandwidth < parent_bandwidth:
            return "none"
        # Structural feasibility: the initiator must be able to adopt its
        # siblings plus the demoted parent (guaranteed when the bandwidth
        # guard holds and capacity is monotone in bandwidth).
        if node.out_degree_cap < len(parent.children):
            return "none"
        return "swap"

    def _may_promote(self, node: OverlayNode, my_bandwidth: float, my_btp: float) -> bool:
        """Can ``node`` claim a spare slot one level up?

        The free slot is contended, so entry to the layer must be earned
        against its *weakest incumbent*: the candidate needs a larger BTP
        than the weakest of the grandparent's current children and at
        least that member's bandwidth.  Zero-out-degree members never
        promote — parking a member that cannot forward data in a scarce
        near-root slot wastes tree capacity, and since a childless member
        can never be displaced by a switch, the slot would stay wasted for
        its whole lifetime.
        """
        if my_bandwidth < self.ctx.stream_rate:
            return False
        grandparent = node.parent.parent
        weakest_btp = float("inf")
        weakest_bandwidth = float("inf")
        for bandwidth, btp in self._values(grandparent.children):
            if btp < weakest_btp:
                weakest_btp = btp
                weakest_bandwidth = bandwidth
        if my_btp <= weakest_btp:
            return False
        if self.bandwidth_guard and my_bandwidth < weakest_bandwidth:
            return False
        return True

    def _switch_check(self, node: OverlayNode) -> None:
        """Periodic (and retry) entry point for one member's switch logic."""
        if self.ctx.tree.members.get(node.member_id) is not node:
            return
        action = self._switch_action(node)
        if action == "none":
            return
        now = self.ctx.sim.now
        if action == "promote":
            involved = [node, node.parent, node.parent.parent]
        else:
            involved = switch_lock_set(node)
        self.ctx.messages.record(MessageType.LOCK_REQUEST, len(involved))
        if not try_lock_all(involved, now, now + self.lock_hold_s):
            self.lock_failures += 1
            self.ctx.messages.record(MessageType.LOCK_DENY)
            self.ctx.sim.schedule_in(
                self.ctx.config.lock_retry_wait_s,
                lambda: self._switch_check(node),
                label="rost-lock-retry",
            )
            return
        self.ctx.messages.record(MessageType.LOCK_GRANT, len(involved))
        if action == "promote":
            self._execute_promotion(node)
        else:
            self._execute_switch(node)

    def _execute_promotion(self, node: OverlayNode) -> None:
        sim = self.ctx.sim
        sim.publish("switch_pre", "promote", node)
        self.ctx.tree.promote_to_grandparent(node)
        sim.publish("switch_post", "promote", node)
        self.promotions += 1
        node.optimization_reconnections += 1
        sim.publish("overhead", 1)
        self.ctx.messages.record(MessageType.SWITCH_COMMIT)

    def _execute_switch(self, node: OverlayNode) -> None:
        parent = node.parent
        assert parent is not None
        affected = [node, parent]
        affected.extend(c for c in parent.children if c is not node)
        affected.extend(node.children)

        now = self.ctx.sim.now

        def overflow_priority(child: OverlayNode) -> float:
            if self.referees is not None:
                return self.referees.verified_btp(child, now)
            return child.claimed_btp(now)

        sim = self.ctx.sim
        sim.publish("switch_pre", "swap", node)
        needs_rejoin = self.ctx.tree.swap_with_parent(node, overflow_priority)
        sim.publish("switch_post", "swap", node)
        self.switches += 1
        for member in affected:
            member.optimization_reconnections += 1
        sim.publish("overhead", len(affected))
        self.ctx.messages.record(MessageType.SWITCH_COMMIT, len(affected))
        # With the bandwidth guard on, overflow always fits back under the
        # initiator; without it (ablation) leftover children rejoin.
        for orphan in needs_rejoin:
            if not self.place(orphan, rejoin=True):
                self.ctx.sim.schedule_in(
                    self.ctx.config.rejoin_s,
                    lambda o=orphan: self._retry_orphan(o),
                    label="rost-overflow-retry",
                )

    def _retry_orphan(self, orphan: OverlayNode) -> None:
        if self.ctx.tree.members.get(orphan.member_id) is not orphan:
            return
        if orphan.attached or orphan.parent is not None:
            return
        if not self.place(orphan, rejoin=True):
            self.ctx.sim.schedule_in(
                self.ctx.config.rejoin_s,
                lambda: self._retry_orphan(orphan),
                label="rost-overflow-retry",
            )
