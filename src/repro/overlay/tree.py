"""The multicast tree: a mechanical structure with enforced invariants.

Responsibilities:

* maintain parent/child links, per-node ``layer`` numbers and ``attached``
  flags (attached = reachable from the root) under attach, detach,
  departure and ROST-switch operations;
* enforce out-degree caps and reject structurally invalid operations;
* notify listeners of position changes (used by the centralized
  bandwidth-/time-ordered protocols to maintain their per-layer indices).

Policy — who attaches where, who is evicted, who switches — lives in
:mod:`repro.protocols`.  Every mutating method is O(size of the moved
subtree) or better.  :func:`repro.invariants.check_tree` verifies the
whole structure against the registered tree checks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List

from ..errors import TreeError
from .node import OverlayNode

PositionListener = Callable[[OverlayNode], None]


class MulticastTree:
    """A rooted overlay multicast tree plus detached (rejoining) subtrees.

    Members are registered in :attr:`members` whether or not they are
    currently attached; detached members form forests whose roots have
    ``parent is None`` and ``attached is False``.
    """

    def __init__(self, root: OverlayNode):
        if not root.is_root:
            raise TreeError("tree root must be constructed with is_root=True")
        self.root = root
        root.attached = True
        root.layer = 0
        self.members: Dict[int, OverlayNode] = {root.member_id: root}
        #: Fired for every node that gains a (new) attached position.
        self.position_listeners: List[PositionListener] = []
        #: Fired for every node that loses its attached position.
        self.detach_listeners: List[PositionListener] = []
        self._attached_count = 1

    # -- registration ---------------------------------------------------------

    def add_member(self, node: OverlayNode) -> None:
        """Register a member (initially detached, position to be assigned)."""
        if node.member_id in self.members:
            raise TreeError(f"duplicate member id {node.member_id}")
        if node.is_root:
            raise TreeError("a tree has exactly one root")
        node.parent = None
        node.attached = False
        node.layer = -1
        self.members[node.member_id] = node

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def num_attached(self) -> int:
        return self._attached_count

    def attached_nodes(self) -> Iterator[OverlayNode]:
        """BFS iterator over the attached component, root first."""
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    # -- structural operations ---------------------------------------------------

    def attach(self, child: OverlayNode, parent: OverlayNode) -> None:
        """Link ``child`` (a detached subtree root) under ``parent``.

        The whole subtree of ``child`` becomes attached and its layers are
        set from the new position.
        """
        self._require_member(child)
        self._require_member(parent)
        if child.parent is not None:
            raise TreeError(f"member {child.member_id} already has a parent")
        if child.attached:
            raise TreeError(f"member {child.member_id} is already attached")
        if not parent.attached:
            raise TreeError(
                f"cannot attach under detached member {parent.member_id}"
            )
        if parent.spare_degree <= 0:
            raise TreeError(
                f"member {parent.member_id} has no spare out-degree "
                f"(cap {parent.out_degree_cap})"
            )
        if child is parent:
            raise TreeError("cannot attach a node to itself")
        child.parent = parent
        parent.children.append(child)
        self._mark_attached(child, parent.layer + 1)
        # The parent's spare capacity changed; listeners keeping capacity
        # indices need to re-examine it.
        self._notify_position(parent)

    def detach(self, node: OverlayNode) -> None:
        """Unlink ``node`` from its parent; its whole subtree goes detached."""
        self._require_member(node)
        if node.is_root:
            raise TreeError("cannot detach the root")
        former_parent = node.parent
        if former_parent is not None:
            former_parent.children.remove(node)
            node.parent = None
        if node.attached:
            self._mark_detached(node)
            if former_parent is not None and former_parent.attached:
                # Spare capacity freed up; re-index the former parent.
                self._notify_position(former_parent)

    def pop_children(self, node: OverlayNode) -> List[OverlayNode]:
        """Unlink and return all children of a *detached* node.

        Each returned child becomes the root of its own detached subtree
        (used when dismantling a departed member's position).
        """
        self._require_member(node)
        if node.attached:
            raise TreeError(
                f"pop_children requires a detached node, {node.member_id} is attached"
            )
        children = node.children
        node.children = []
        for child in children:
            child.parent = None
        return children

    def remove_departed(self, node: OverlayNode) -> List[OverlayNode]:
        """Handle the departure of ``node``: unregister it and return its
        orphaned children (each now a detached subtree root).

        Works both for attached members and for members inside a detached
        (rejoining) subtree.
        """
        self._require_member(node)
        if node.is_root:
            raise TreeError("the root never departs")
        self.detach(node)
        orphans = self.pop_children(node)
        del self.members[node.member_id]
        return orphans

    def swap_with_parent(
        self,
        child: OverlayNode,
        overflow_priority: Callable[[OverlayNode], float],
    ) -> List[OverlayNode]:
        """Exchange the positions of ``child`` and its parent (ROST, Fig. 2).

        After the swap the former parent ``p`` holds ``child``'s former
        children; any of them exceeding ``p``'s out-degree cap overflow —
        highest ``overflow_priority`` first — back under ``child`` while it
        has spare slots.  Children that fit nowhere (possible only when the
        bandwidth guard is disabled) are detached and returned for rejoin.
        """
        self._require_member(child)
        parent = child.parent
        if parent is None or not child.attached:
            raise TreeError(f"member {child.member_id} has no attached parent")
        if parent.is_root:
            raise TreeError("cannot swap with the root")
        grandparent = parent.parent
        if grandparent is None:
            raise TreeError(f"parent {parent.member_id} has no parent")

        former_children = child.children
        former_siblings = [c for c in parent.children if c is not child]
        if len(former_siblings) + 1 > child.out_degree_cap:
            raise TreeError(
                f"member {child.member_id} (cap {child.out_degree_cap}) cannot "
                f"adopt {len(former_siblings)} siblings plus its former parent"
            )

        # Relink: child takes parent's slot under the grandparent.
        grandparent.children[grandparent.children.index(parent)] = child
        child.parent = grandparent
        child.children = former_siblings + [parent]
        for sibling in former_siblings:
            sibling.parent = child
        parent.parent = child
        parent.children = former_children
        for grandchild in former_children:
            grandchild.parent = parent

        # Only the two principals change depth; both stay attached.
        child.layer, parent.layer = parent.layer, parent.layer + 1
        self._notify_position(child)
        self._notify_position(parent)

        # Resolve parent's overflow (it inherited child's former children).
        needs_rejoin: List[OverlayNode] = []
        if len(parent.children) > parent.out_degree_cap:
            overflow = sorted(
                parent.children, key=overflow_priority, reverse=True
            )
            for candidate in overflow:
                if len(parent.children) <= parent.out_degree_cap:
                    break
                parent.children.remove(candidate)
                if child.spare_degree > 0:
                    candidate.parent = child
                    child.children.append(candidate)
                    self._shift_layers(candidate, -1)
                else:
                    candidate.parent = None
                    self._mark_detached(candidate)
                    needs_rejoin.append(candidate)
        return needs_rejoin

    def promote_to_grandparent(self, node: OverlayNode) -> None:
        """Move ``node`` (with its subtree) up into a spare slot of its
        grandparent — a single parent change that shortens every path in
        the subtree by one hop and demotes nobody.
        """
        self._require_member(node)
        parent = node.parent
        if parent is None or not node.attached:
            raise TreeError(f"member {node.member_id} has no attached parent")
        grandparent = parent.parent
        if grandparent is None:
            raise TreeError(f"parent {parent.member_id} has no parent")
        if grandparent.spare_degree <= 0:
            raise TreeError(
                f"member {grandparent.member_id} has no spare out-degree"
            )
        parent.children.remove(node)
        node.parent = grandparent
        grandparent.children.append(node)
        self._shift_layers(node, -1)
        self._notify_position(parent)
        self._notify_position(grandparent)

    def close(self) -> None:
        """Unlink every member and drop the listeners once the run is over.

        A finished tree is one large reference cycle (parent and child
        links, rejoin hints, uplink memos, and the ordered protocols'
        index hooks); breaking it lets reference counting free the run.
        The fields are reset directly, not through the operations above:
        closing is no tree operation and notifies nobody.
        """
        for node in self.members.values():
            node.unlink()
        self.position_listeners = []
        self.detach_listeners = []

    # -- internals ----------------------------------------------------------------

    def _require_member(self, node: OverlayNode) -> None:
        if self.members.get(node.member_id) is not node:
            raise TreeError(f"member {node.member_id} is not in this tree")

    def _mark_attached(self, subtree_root: OverlayNode, layer: int) -> None:
        # Level by level: position listeners see the nodes in BFS order,
        # and each level's layer is one counter.
        level = [subtree_root]
        while level:
            below: List[OverlayNode] = []
            for node in level:
                node.attached = True
                node.ever_attached = True
                node.layer = layer
                self._attached_count += 1
                self._notify_position(node)
                below += node.children
            level = below
            layer += 1

    def _mark_detached(self, subtree_root: OverlayNode) -> None:
        queue = deque([subtree_root])
        while queue:
            node = queue.popleft()
            node.attached = False
            node.layer = -1
            self._attached_count -= 1
            for listener in self.detach_listeners:
                listener(node)
            queue.extend(node.children)

    def _shift_layers(self, subtree_root: OverlayNode, delta: int) -> None:
        queue = deque([subtree_root])
        while queue:
            node = queue.popleft()
            node.layer += delta
            self._notify_position(node)
            queue.extend(node.children)

    def _notify_position(self, node: OverlayNode) -> None:
        for listener in self.position_listeners:
            listener(node)
