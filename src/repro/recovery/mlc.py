"""Minimum-loss-correlation (MLC) recovery group selection (Section 4.1).

The loss correlation of two members is the number of tree edges their
root paths share: ``w(v1, v2) = |path(r, v1) ∩ path(r, v2)|``.  A good
recovery group minimises the pairwise sum of ``w`` so that one upstream
failure is unlikely to knock out several recovery sources at once.

A member cannot see the whole tree; it knows a medium-sized subset of
members (its partial view) together with each one's ancestor list — the
information gossiped during normal multicast operation.  From these root
paths it reconstructs a partial tree (Fig. 3) and runs Algorithm 1:

1. find the first level ``Li`` of the partial tree with
   ``|Li| < K <= |Li+1|``;
2. seed the MLC root set ``G0`` with one random child of each node of
   ``Li`` until ``|G0| >= K``;
3. produce the group ``G`` by picking one random descendant from the
   subtree of each member of ``G0`` (randomisation balances the repair
   load across the subtrees).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..errors import RecoveryError
from ..overlay.node import OverlayNode


def root_path_ids(node: OverlayNode) -> List[int]:
    """Member ids from the root down to ``node`` (inclusive)."""
    path = [node.member_id]
    current = node.parent
    while current is not None:
        path.append(current.member_id)
        current = current.parent
    path.reverse()
    return path


def _shared_edges(path_a: List[int], path_b: List[int]) -> int:
    """Tree edges on the common prefix of two root paths."""
    shared = 0
    # Paths share a prefix starting at the root; each shared non-root hop
    # is a shared edge.
    for ia, ib in zip(path_a, path_b):
        if ia != ib:
            break
        shared += 1
    return max(0, shared - 1)


def loss_correlation(a: OverlayNode, b: OverlayNode) -> int:
    """w(a, b): number of shared tree edges on the two root paths."""
    return _shared_edges(root_path_ids(a), root_path_ids(b))


def group_loss_correlation(nodes: Sequence[OverlayNode]) -> int:
    """Pairwise loss-correlation sum the MLC group minimises.

    Recovery groups are small (the paper uses 1-4 members), so walking
    each member's parent chain once and comparing the paths pair by pair
    costs a few microseconds.
    """
    paths = [root_path_ids(n) for n in nodes]
    total = 0
    for i, path_a in enumerate(paths):
        for path_b in paths[i + 1 :]:
            total += _shared_edges(path_a, path_b)
    return total


def group_underlay_correlation(
    member_ids: Sequence[int], domain_of: Callable[[int], int]
) -> int:
    """Underlay-level loss correlation: same-stub-domain pair count.

    Algorithm 1 minimises *tree*-edge sharing, but two recovery nodes
    homed in the same transit-stub domain still die together under a
    domain outage (the correlated-failure mode :mod:`repro.faults`
    injects).  ``domain_of`` maps a member id to its stub-domain id;
    negative ids mean "unknown" and never match.
    """
    domains = [domain_of(m) for m in member_ids]
    total = 0
    for i in range(len(domains)):
        if domains[i] < 0:
            continue
        for j in range(i + 1, len(domains)):
            if domains[i] == domains[j]:
                total += 1
    return total


class PartialTreeView:
    """A member's reconstruction of the tree from its partial view.

    Built from the root paths of a sample of known members; every node on
    any of those paths is represented (it is a real, addressable member).
    """

    def __init__(self, root_id: int):
        self.root_id = root_id
        # Member id -> child ids.  Insertion order is the order members
        # entered the view; ``member_ids`` (and through it
        # ``select_random_group``) indexes it.
        self._nodes: Dict[int, Set[int]] = {root_id: set()}
        # Derived-structure caches.  One episode prices every recovery
        # scheme against the same view, so sorted child lists, the level
        # decomposition and subtree member lists are queried several
        # times per view; they are built lazily once and invalidated on
        # any ``_add_path`` mutation.  Public accessors hand out fresh
        # lists (callers pop/append on them), only the internals are
        # shared.
        self._children_cache: Optional[Dict[int, List[int]]] = None
        self._levels_cache: Optional[List[List[int]]] = None
        self._descendants_cache: Dict[int, List[int]] = {}

    @classmethod
    def from_members(
        cls,
        known: Iterable[OverlayNode],
        exclude: Iterable[int] = (),
    ) -> "PartialTreeView":
        """Reconstruct the view from known members' ancestor lists.

        ``exclude`` removes members (e.g. the requester and its own
        descendants) from the view entirely: a path is truncated at the
        first excluded member, since everything below it is unusable as a
        recovery source.

        All paths are read from one tree at one instant, so the view is
        ancestor-closed: each member's walk up the parent chain stops at
        the first ancestor already in the view, and only the new suffix
        below it is added.  Every non-root view member passed the
        exclusion test when it was added, so the first excluded id on a
        path can only lie in that suffix.  The view equals
        :func:`naive_view_from_members`, insertion order included.
        """
        excluded = set(exclude)
        view: Optional[PartialTreeView] = None
        children: Dict[int, Set[int]] = {}
        root_excluded = False
        for member in known:
            chain: List[OverlayNode] = []
            node: Optional[OverlayNode] = member
            while node is not None and node.member_id not in children:
                chain.append(node)
                node = node.parent
            if view is None:
                # The first member's component top is the root, even when
                # it is excluded.
                top_id = chain.pop().member_id
                view = cls(top_id)
                children = view._nodes
                root_excluded = top_id in excluded
                parent_id = top_id
            elif node is None:
                # The walk left the view's component: a path whose top is
                # excluded is skipped, any other is not from this tree.
                top_id = chain[-1].member_id
                if top_id in excluded:
                    continue
                raise RecoveryError(
                    f"path starts at {top_id}, expected root {view.root_id}"
                )
            else:
                parent_id = node.member_id
            if root_excluded:
                continue
            for node in reversed(chain):
                member_id = node.member_id
                if member_id in excluded:
                    break
                children[parent_id].add(member_id)
                children[member_id] = set()
                parent_id = member_id
        if view is None:
            raise RecoveryError("cannot build a view from an empty sample")
        return view

    def _add_path(self, path: List[int]) -> None:
        if path[0] != self.root_id:
            raise RecoveryError(
                f"path starts at {path[0]}, expected root {self.root_id}"
            )
        for parent_id, child_id in zip(path, path[1:]):
            self._nodes.setdefault(parent_id, set()).add(child_id)
            self._nodes.setdefault(child_id, set())
        self._children_cache = None
        self._levels_cache = None
        if self._descendants_cache:
            self._descendants_cache = {}

    def _children_sorted(self, member_id: int) -> List[int]:
        """Cached sorted child list — internal, callers must not mutate."""
        cache = self._children_cache
        if cache is None:
            cache = self._children_cache = {
                mid: sorted(kids) for mid, kids in self._nodes.items()
            }
        children = cache.get(member_id)
        if children is None:
            raise RecoveryError(f"member {member_id} not in the partial view")
        return children

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, member_id: int) -> bool:
        return member_id in self._nodes

    def member_ids(self) -> List[int]:
        """All members represented in the view (including the root)."""
        return list(self._nodes)

    def children_of(self, member_id: int) -> List[int]:
        return list(self._children_sorted(member_id))

    def levels(self) -> List[List[int]]:
        """Members per level, level 0 = [root]."""
        if self._levels_cache is None:
            result: List[List[int]] = []
            frontier = [self.root_id]
            while frontier:
                result.append(frontier)
                next_frontier: List[int] = []
                for member_id in frontier:
                    next_frontier.extend(self._children_sorted(member_id))
                frontier = next_frontier
            self._levels_cache = result
        return [list(level) for level in self._levels_cache]

    def descendants_of(self, member_id: int) -> List[int]:
        """All view-members strictly below ``member_id``."""
        cached = self._descendants_cache.get(member_id)
        if cached is None:
            result: List[int] = []
            queue = deque(self._children_sorted(member_id))
            while queue:
                current = queue.popleft()
                result.append(current)
                queue.extend(self._children_sorted(current))
            self._descendants_cache[member_id] = cached = result
        return list(cached)


def naive_view_from_members(
    known: Iterable[OverlayNode], exclude: Iterable[int] = ()
) -> PartialTreeView:
    """Reference view builder: one full root path per known member.

    Copies every member's root path, cuts it at the first excluded id and
    adds it edge by edge.  Ground truth for the one-pass
    :meth:`PartialTreeView.from_members`; the ``mlc_kernels`` oracle and
    the property tests check the two build the same view, member order
    included.
    """
    excluded = set(exclude)
    root_id: Optional[int] = None
    paths: List[List[int]] = []
    for member in known:
        path = root_path_ids(member)
        if root_id is None:
            root_id = path[0]
        cut = len(path)
        for i, member_id in enumerate(path):
            if member_id in excluded:
                cut = i
                break
        if cut >= 2:
            paths.append(path[:cut])
        elif cut == 1:
            paths.append(path[:1])
    if root_id is None:
        raise RecoveryError("cannot build a view from an empty sample")
    view = PartialTreeView(root_id)
    for path in paths:
        view._add_path(path)
    return view


def naive_view_children(view: PartialTreeView, member_id: int) -> List[int]:
    """Reference child list: sorted from the raw sets on every call."""
    children = view._nodes.get(member_id)
    if children is None:
        raise RecoveryError(f"member {member_id} not in the partial view")
    return sorted(children)


def naive_view_levels(view: PartialTreeView) -> List[List[int]]:
    """Reference level decomposition, recomputed from scratch each call.

    Ground truth for the cached :meth:`PartialTreeView.levels`; the
    differential tests interleave queries and ``_add_path`` mutations and
    check the two stay identical.
    """
    result: List[List[int]] = []
    frontier = [view.root_id]
    while frontier:
        result.append(frontier)
        next_frontier: List[int] = []
        for member_id in frontier:
            next_frontier.extend(naive_view_children(view, member_id))
        frontier = next_frontier
    return result


def naive_view_descendants(view: PartialTreeView, member_id: int) -> List[int]:
    """Reference subtree walk for :meth:`PartialTreeView.descendants_of`."""
    result: List[int] = []
    queue = deque(naive_view_children(view, member_id))
    while queue:
        current = queue.popleft()
        result.append(current)
        queue.extend(naive_view_children(view, current))
    return result


def select_mlc_group(
    view: PartialTreeView,
    group_size: int,
    rng: np.random.Generator,
    domain_of: Optional[Callable[[int], int]] = None,
) -> List[int]:
    """Algorithm 1: the minimum-loss-correlation recovery group.

    Returns up to ``group_size`` member ids (fewer if the view is too
    small).  The root itself is never selected — the source serves the
    whole tree and is not a peer recovery node.

    When ``domain_of`` is given, the per-subtree descendant pick (step 4)
    additionally scores candidates by *underlay* loss correlation: among
    each subtree's candidates, one whose stub domain is not already used
    by the group is preferred, so a single domain outage cannot take out
    several recovery nodes at once.  With ``domain_of=None`` the
    selection is byte-identical to the paper's Algorithm 1.
    """
    if group_size < 1:
        raise RecoveryError(f"group_size must be >= 1, got {group_size}")
    levels = view.levels()
    if len(levels) < 2:
        return []

    # Step 2: first level Li with |Li| < K <= |Li+1|.
    anchor = None
    for i in range(len(levels) - 1):
        if len(levels[i]) < group_size <= len(levels[i + 1]):
            anchor = i
            break
    if anchor is None:
        # The tree is narrower than K everywhere (or wider from level 1):
        # anchor at the deepest level that still has children, or level 0.
        anchor = 0
        for i in range(len(levels) - 1):
            if len(levels[i]) < group_size:
                anchor = i

    # Step 3: seed G0 with random children of the anchor level's nodes.
    g0: List[int] = []
    available: Dict[int, List[int]] = {
        vid: view.children_of(vid) for vid in levels[anchor]
    }
    while len(g0) < group_size:
        progress = False
        for vid in levels[anchor]:
            children = available[vid]
            if not children:
                continue
            pick = children.pop(int(rng.integers(0, len(children))))
            g0.append(pick)
            progress = True
            if len(g0) >= group_size:
                break
        if not progress:
            break

    # Step 4: one random descendant (or the subtree root itself) per G0
    # member.  Picking inside the subtree balances repair load.
    group: List[int] = []
    used_domains: Set[int] = set()
    for root_of_subtree in g0:
        pool = view.descendants_of(root_of_subtree)
        pool.append(root_of_subtree)
        if domain_of is not None:
            fresh = [m for m in pool if domain_of(m) not in used_domains]
            if fresh:
                pool = fresh
        pick = pool[int(rng.integers(0, len(pool)))]
        group.append(pick)
        if domain_of is not None:
            domain = domain_of(pick)
            if domain >= 0:
                used_domains.add(domain)
    return group


def select_random_group(
    view: PartialTreeView,
    group_size: int,
    rng: np.random.Generator,
) -> List[int]:
    """Baseline: uniformly random recovery nodes from the same view
    (ignores loss correlation entirely)."""
    candidates = [
        member_id for member_id in view.member_ids() if member_id != view.root_id
    ]
    if not candidates:
        return []
    if len(candidates) <= group_size:
        return list(candidates)
    picks = rng.choice(len(candidates), size=group_size, replace=False)
    return [candidates[int(i)] for i in picks]
