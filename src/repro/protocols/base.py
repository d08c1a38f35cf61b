"""Shared protocol machinery: context bundle and the protocol interface."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..config import ProtocolConfig
from ..overlay.membership import MembershipService
from ..overlay.messages import MessageStats, MessageType
from ..overlay.node import OverlayNode
from ..overlay.tree import MulticastTree
from ..sim.engine import Simulator
from ..topology.routing import DelayOracle


@dataclass
class ProtocolContext:
    """Everything a tree protocol needs to operate.

    One context is shared by the protocol and the churn driver; the
    protocol must treat the tree as its single source of structural truth.
    """

    sim: Simulator
    tree: MulticastTree
    membership: MembershipService
    oracle: DelayOracle
    config: ProtocolConfig
    stream_rate: float
    rng: np.random.Generator
    messages: MessageStats = field(default_factory=MessageStats)

    def delay_ms(self, a: OverlayNode, b: OverlayNode) -> float:
        """Underlay delay between two members, ms."""
        return self.oracle.delay_ms(a.underlay_node, b.underlay_node)

    def service_delay_ms(self, node: OverlayNode) -> float:
        """End-to-end overlay delay from the root to ``node``, ms.

        Sums underlay delays hop by hop along the tree path.  Infinite for
        a detached member (no data path).
        """
        if not node.attached:
            return float("inf")
        total = 0.0
        current = node
        if getattr(self.oracle, "stable_delays", False):
            # Per-edge delays never change, so each node can memoize its
            # uplink delay; parent identity is the validity check.  The
            # walk then costs one float add per hop instead of an oracle
            # query (service delay is evaluated for every attached member
            # on every metrics sample).
            while True:
                parent = current.parent
                if parent is None:
                    return total
                if current._uplink_parent is parent:
                    total += current._uplink_delay
                else:
                    d = self.delay_ms(current, parent)
                    current._uplink_parent = parent
                    current._uplink_delay = d
                    total += d
                current = parent
        while current.parent is not None:
            total += self.delay_ms(current, current.parent)
            current = current.parent
        return total

    def stretch(self, node: OverlayNode) -> float:
        """Service delay over direct-unicast delay from the root (Fig. 8)."""
        direct = self.oracle.delay_ms(
            self.tree.root.underlay_node, node.underlay_node
        )
        if direct <= 0:
            # Member co-located with the root; stretch is defined as 1.
            return 1.0
        return self.service_delay_ms(node) / direct


class TreeProtocol(abc.ABC):
    """Interface between the churn driver and a tree construction policy.

    Drivers call :meth:`place` to attach a (re)joining member and
    :meth:`on_departure` when a member leaves.  ``place`` returns True on
    success; on False the driver schedules a retry.
    """

    #: Registry name, e.g. ``"rost"``.
    name: str = ""
    #: True for the centralized algorithms that assume a global view.
    centralized: bool = False

    def __init__(self, ctx: ProtocolContext):
        self.ctx = ctx

    @abc.abstractmethod
    def place(self, node: OverlayNode, rejoin: bool) -> bool:
        """Attach ``node`` (a detached subtree root) somewhere in the tree.

        ``rejoin`` is True when the node already held a position (failure
        recovery or eviction), False on first join.
        """

    def on_departure(self, node: OverlayNode) -> None:
        """Hook invoked just before the driver dismantles a departed member."""

    def on_recovery_lock(self, node: OverlayNode, until: float) -> None:
        """Hook: the driver locked ``node`` for failure recovery until
        ``until`` (ROST's switching defers to such locks)."""
        node.lock(until)

    # -- shared helpers ------------------------------------------------------------

    def sample_candidates(
        self, node: OverlayNode, mature_view: bool = True
    ) -> List[OverlayNode]:
        """Up to ``join_candidates`` known attached members, excluding the
        joiner itself (the paper's "queries ... up to 100 known members").

        A *mature* view is a uniform sample plus the ``well_known_top``
        members closest to the root — the upper region a member learns
        through the periodic neighbour-information exchange, and what lets
        it "search from the tree root downward" as the minimum-depth
        algorithm requires.  A freshly bootstrapped member has not
        gossiped yet; its view is just the uniform sample
        (``mature_view=False``), so newcomers rarely see (and grab) slots
        at the very top of the tree.
        """
        candidates = self.ctx.membership.sample_for(
            node,
            self.ctx.config.join_candidates,
            exclude=[],
            attached_only=True,
        )
        top = self.ctx.config.well_known_top if mature_view else 0
        if top > 0:
            seen = {c.member_id for c in candidates}
            seen.add(node.member_id)
            for member in self.ctx.tree.attached_nodes():
                if top <= 0:
                    break
                if member.member_id not in seen:
                    candidates.append(member)
                    seen.add(member.member_id)
                top -= 1
        self.ctx.messages.record(MessageType.JOIN, len(candidates))
        return candidates

    def select_min_depth(
        self, node: OverlayNode, candidates: Iterable[OverlayNode]
    ) -> Optional[OverlayNode]:
        """The paper's join rule: among candidates with spare capacity pick
        the smallest layer, breaking ties by network delay.

        Two-phase: find the minimum layer first, then compare delays only
        among the tied candidates (batched through the oracle).  Delay
        lookups are pure, so skipping them for non-minimal layers changes
        nothing; first-occurrence tie-breaking matches the original
        strict-less scan.  A candidate deeper than the best layer so far
        can neither win nor tie, so it is skipped before its capacity is
        read; :func:`naive_select_min` ranked by ``"layer"`` is the full scan
        this must agree with.
        """
        tied: List[OverlayNode] = []
        best_layer = math.inf
        for candidate in candidates:
            layer = candidate.layer
            if layer > best_layer:
                continue
            if candidate.spare_degree <= 0 or not candidate.attached:
                continue
            if layer < best_layer:
                best_layer = layer
                tied = [candidate]
            else:
                tied.append(candidate)
        if not tied:
            return None
        if len(tied) == 1:
            return tied[0]
        delays = self.ctx.oracle.delays_from(
            node.underlay_node, [c.underlay_node for c in tied]
        )
        return tied[int(delays.argmin())]

    def attach(self, node: OverlayNode, parent: OverlayNode) -> None:
        """Perform the attachment and account the ACCEPT message."""
        self.ctx.tree.attach(node, parent)
        self.ctx.messages.record(MessageType.ACCEPT)


def naive_select_min(
    oracle: DelayOracle,
    node: OverlayNode,
    candidates: Iterable[OverlayNode],
    rank: str,
) -> Optional[OverlayNode]:
    """Reference for the join selectors (``rank`` is ``"layer"`` or
    ``"join_time"``): the scan that reads every candidate's capacity
    before comparing ranks."""
    tied: List[OverlayNode] = []
    best = None
    for candidate in candidates:
        if candidate.spare_degree <= 0 or not candidate.attached:
            continue
        value = getattr(candidate, rank)
        if best is None or value < best:
            best = value
            tied = [candidate]
        elif value == best:
            tied.append(candidate)
    if not tied:
        return None
    if len(tied) == 1:
        return tied[0]
    delays = oracle.delays_from(node.underlay_node, [c.underlay_node for c in tied])
    return tied[int(np.argmin(delays))]
