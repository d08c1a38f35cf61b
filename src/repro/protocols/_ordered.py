"""Shared machinery for the centralized relaxed-ordered protocols.

Both the relaxed bandwidth-ordered and relaxed time-ordered algorithms
(Section 5, algorithms (3) and (4)) follow the same template: on every
join or rejoin, scan the tree's layers from the top looking for a node
that is *worse* than the joiner under the protocol's ordering (smaller
bandwidth, respectively younger).  If one exists the worst such node in
the first qualifying layer is evicted and the joiner takes its position,
adopting as many of its children as capacity allows; the evicted node and
any unadoptable children are forced to rejoin through the same procedure.
If no node is worse, the joiner attaches under the globally highest member
with spare capacity (these algorithms assume a central administrator with
global topological information).

The scan is made efficient with per-layer lazy max-heaps keyed by the
protocol's *eviction priority* (higher = more evictable) and a global lazy
min-heap of spare-capacity nodes.  Both orderings key on immutable member
attributes (bandwidth / join time), so heap entries only go stale through
layer changes or detachment — which lazy validation handles.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..overlay.messages import MessageType
from ..overlay.node import OverlayNode
from .base import ProtocolContext, TreeProtocol

#: Random layer-index entries :meth:`RelaxedOrderedProtocol.
#: _first_found_in_layer` probes before falling back to the worst member.
LAYER_PROBES = 8


class RelaxedOrderedProtocol(TreeProtocol):
    """Template for the centralized relaxed BO / relaxed TO algorithms."""

    centralized = True
    #: Whether the layer scan replaces whichever qualifying member it
    #: happens to find first (the paper's "the located node"), or the
    #: extreme (worst-ordered) member of the layer.
    evict_first_found = True

    def __init__(self, ctx: ProtocolContext):
        super().__init__(ctx)
        # layer -> max-heap of (-priority, seq, node, layer)
        self._layer_heaps: Dict[int, List[tuple]] = {}
        # min-heap of (layer, seq, node) over nodes with spare capacity
        self._spare_heap: List[tuple] = []
        self._seq = itertools.count()
        self._max_layer = 0
        ctx.tree.position_listeners.append(self._on_position)
        self._on_position(ctx.tree.root)

    # -- ordering hooks --------------------------------------------------------

    @abc.abstractmethod
    def eviction_priority(self, node: OverlayNode) -> float:
        """Higher = more evictable (worse under the protocol's ordering)."""

    def adoption_order(self, node: OverlayNode) -> float:
        """Sort key for adopting an evictee's children: best (lowest
        priority) first, so the most deserving children keep a position."""
        return self.eviction_priority(node)

    # -- index maintenance -------------------------------------------------------

    def _on_position(self, node: OverlayNode) -> None:
        if not node.attached:
            return
        layer = node.layer
        if layer > self._max_layer:
            self._max_layer = layer
        if not node.is_root and layer > 0:
            heap = self._layer_heaps.setdefault(layer, [])
            heapq.heappush(
                heap, (-self.eviction_priority(node), next(self._seq), node, layer)
            )
        if node.spare_degree > 0:
            heapq.heappush(self._spare_heap, (layer, next(self._seq), node))

    def _entry_alive(self, node: OverlayNode, layer: int) -> bool:
        return (
            self.ctx.tree.members.get(node.member_id) is node
            and node.attached
            and node.layer == layer
        )

    def _peek_worst_in_layer(self, layer: int) -> Optional[OverlayNode]:
        heap = self._layer_heaps.get(layer)
        if not heap:
            return None
        while heap:
            _, _, node, entry_layer = heap[0]
            if self._entry_alive(node, entry_layer):
                return node
            heapq.heappop(heap)
        return None

    def _first_found_in_layer(
        self, layer: int, my_priority: float
    ) -> Optional[OverlayNode]:
        """A qualifying member of ``layer``, as a top-down search would
        stumble on one — *not* necessarily the worst.

        The paper's relaxed algorithms replace "the located node", i.e.
        whichever qualifying member the layer scan finds first.  We model
        that by probing a few random entries of the layer's index and
        falling back to the worst member only if no probe qualifies.
        """
        heap = self._layer_heaps.get(layer)
        if heap:
            size = len(heap)
            integers = self.ctx.rng.integers
            alive = self._entry_alive
            priority = self.eviction_priority
            for _ in range(min(LAYER_PROBES, size)):
                _, _, node, entry_layer = heap[int(integers(0, size))]
                if alive(node, entry_layer) and priority(node) > my_priority:
                    return node
        worst = self._peek_worst_in_layer(layer)
        if worst is not None and self.eviction_priority(worst) > my_priority:
            return worst
        return None

    def _pop_global_spare(self, exclude: OverlayNode) -> Optional[OverlayNode]:
        """Globally highest attached node with spare capacity."""
        while self._spare_heap:
            layer, _, node = self._spare_heap[0]
            if (
                self._entry_alive(node, layer)
                and node.spare_degree > 0
                and node is not exclude
            ):
                return node
            heapq.heappop(self._spare_heap)
        return None

    # -- placement ----------------------------------------------------------------

    def place(self, node: OverlayNode, rejoin: bool) -> bool:
        """Attach ``node`` by eviction or by global min-depth fallback.

        Displaced members (the evictee and any children the joiner cannot
        adopt) re-place themselves through the central administrator after
        the rejoin delay — evictions therefore ripple over simulated time
        rather than cascading instantaneously, matching the per-node
        rejoin cost the relaxed algorithms were defined to expose.
        """
        spare_parent = self._pop_global_spare(exclude=node)
        target = self._find_eviction_target(node)
        # Evict only when that yields a strictly higher position than the
        # best free slot — a central administrator has no reason to force
        # a rejoin for a position the member could take for free.
        if target is not None and spare_parent is not None:
            if target.layer >= spare_parent.layer + 1:
                target = None
        if target is None:
            if spare_parent is None:
                return False
            self.attach(node, spare_parent)
            return True

        parent = target.parent
        if parent is None:
            raise ProtocolError("eviction target must have a parent")
        self.ctx.tree.detach(target)
        orphans = self.ctx.tree.pop_children(target)
        self.attach(node, parent)
        self.ctx.messages.record(MessageType.REJECT)

        for child in sorted(orphans, key=self.adoption_order):
            child.optimization_reconnections += 1
            self._count_overhead()
            if node.spare_degree > 0:
                self.ctx.tree.attach(child, node)
            else:
                self._schedule_placement(child)
        target.optimization_reconnections += 1
        self._count_overhead()
        self._schedule_placement(target)
        return True

    def _find_eviction_target(self, node: OverlayNode) -> Optional[OverlayNode]:
        """Scan layers top-down for the first node worse than ``node``."""
        priority = self.eviction_priority
        peek_worst = self._peek_worst_in_layer
        my_priority = priority(node)
        for layer in range(1, self._max_layer + 1):
            worst = peek_worst(layer)
            if worst is None or worst is node:
                continue
            if priority(worst) > my_priority:
                if self.evict_first_found:
                    found = self._first_found_in_layer(layer, my_priority)
                    if found is not None and found is not node:
                        return found
                return worst
        return None

    def _schedule_placement(self, node: OverlayNode) -> None:
        """Re-place a displaced member after the rejoin delay."""
        delay = self.ctx.config.rejoin_s

        def retry() -> None:
            if self.ctx.tree.members.get(node.member_id) is not node:
                return
            if node.attached or node.parent is not None:
                return
            if not self.place(node, rejoin=True):
                self._schedule_placement(node)

        self.ctx.sim.schedule_in(delay, retry, label="ordered-eviction-rejoin")

    # -- accounting ------------------------------------------------------------------

    def _count_overhead(self) -> None:
        """Publish one optimization reconnection (the ``overhead`` topic)."""
        self.ctx.sim.publish("overhead", 1)
