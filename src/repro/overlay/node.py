"""Per-member overlay state."""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import TreeError


class OverlayNode:
    """One multicast member's position and state in the overlay tree.

    The node records both *structural* state (parent/children/layer) and
    the per-member statistics the paper's metrics are computed from
    (disruptions experienced, reconnections performed).
    """

    __slots__ = (
        "member_id",
        "underlay_node",
        "bandwidth",
        "out_degree_cap",
        "join_time",
        "is_root",
        "parent",
        "children",
        "layer",
        "attached",
        "locked_until",
        "rejoin_hint",
        "ever_attached",
        "disruptions",
        "reconnections",
        "optimization_reconnections",
        "claimed_bandwidth",
        "claimed_join_time",
        "_uplink_parent",
        "_uplink_delay",
    )

    def __init__(
        self,
        member_id: int,
        underlay_node: int,
        bandwidth: float,
        out_degree_cap: int,
        join_time: float,
        is_root: bool = False,
    ):
        if out_degree_cap < 0:
            raise TreeError(f"negative out-degree cap {out_degree_cap}")
        self.member_id = member_id
        self.underlay_node = underlay_node
        self.bandwidth = bandwidth
        self.out_degree_cap = out_degree_cap
        self.join_time = join_time
        self.is_root = is_root
        self.parent: Optional[OverlayNode] = None
        self.children: List[OverlayNode] = []
        self.layer = 0 if is_root else -1
        self.attached = is_root
        #: Virtual time until which this node participates in a switching or
        #: recovery operation and refuses new locks (Section 3.3).
        self.locked_until = -math.inf
        #: The failed parent's own parent, recorded at failure time: the
        #: natural first rejoin contact (grandparent succession).
        self.rejoin_hint: Optional[OverlayNode] = None
        #: True once the member has held a tree position at least once.
        self.ever_attached = is_root
        self.disruptions = 0
        #: All parent changes after the initial join.
        self.reconnections = 0
        #: Parent changes caused by the tree-optimization mechanism only
        #: (the paper's "protocol overhead" metric, Fig. 10).
        self.optimization_reconnections = 0
        #: What the node *reports* (equals the truth unless the node cheats;
        #: see repro.protocols.rost.referees).
        self.claimed_bandwidth = bandwidth
        self.claimed_join_time = join_time
        #: Memoized uplink delay (parent identity is the validity check);
        #: only consulted when the oracle reports ``stable_delays``.
        self._uplink_parent: Optional[OverlayNode] = None
        self._uplink_delay = 0.0

    # -- derived properties ---------------------------------------------------

    @property
    def spare_degree(self) -> int:
        """Unused child slots."""
        return self.out_degree_cap - len(self.children)

    @property
    def is_free_rider(self) -> bool:
        return self.out_degree_cap == 0

    def age(self, now: float) -> float:
        """Seconds since this member joined the overlay."""
        return now - self.join_time

    def btp(self, now: float) -> float:
        """Bandwidth-Time Product at virtual time ``now`` (Section 3.2).

        The root is pre-assigned an infinite BTP so it always stays at the
        top of the tree.
        """
        if self.is_root:
            return math.inf
        return self.bandwidth * self.age(now)

    def claimed_btp(self, now: float) -> float:
        """BTP as computable from the node's *claims* (cheatable)."""
        if self.is_root:
            return math.inf
        return self.claimed_bandwidth * (now - self.claimed_join_time)

    # -- locking (Section 3.3) --------------------------------------------------

    def is_locked(self, now: float) -> bool:
        return now < self.locked_until

    def lock(self, until: float) -> None:
        """Extend this node's lock to at least ``until``."""
        if until > self.locked_until:
            self.locked_until = until

    def unlink(self) -> None:
        """Drop every reference to another member: the tree links, the
        rejoin hint and the uplink memo (closing a finished run)."""
        self.parent = None
        self.children = []
        self.rejoin_hint = None
        self._uplink_parent = None

    # -- tree-walk helpers ------------------------------------------------------

    def ancestors(self) -> List["OverlayNode"]:
        """Path from this node's parent up to (and including) the tree root
        of its component."""
        path = []
        node = self.parent
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def descendants(self) -> List["OverlayNode"]:
        """All nodes strictly below this one, in BFS order."""
        result: List[OverlayNode] = []
        frontier = list(self.children)
        while frontier:
            node = frontier.pop()
            result.append(node)
            frontier.extend(node.children)
        return result

    def subtree_size(self) -> int:
        """Number of nodes in this node's subtree, including itself."""
        return 1 + len(self.descendants())

    def depth_below(self, ancestor: "OverlayNode") -> int:
        """Hops from ``ancestor`` down to this node; raises if unrelated."""
        hops = 0
        node: Optional[OverlayNode] = self
        while node is not None:
            if node is ancestor:
                return hops
            node = node.parent
            hops += 1
        raise TreeError(
            f"node {ancestor.member_id} is not an ancestor of {self.member_id}"
        )

    def __repr__(self) -> str:
        return (
            f"OverlayNode(id={self.member_id}, bw={self.bandwidth:.2f}, "
            f"cap={self.out_degree_cap}, layer={self.layer}, "
            f"children={len(self.children)}, attached={self.attached})"
        )
