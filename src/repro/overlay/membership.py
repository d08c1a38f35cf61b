"""Partial-view membership service.

The paper assumes each member learns about a medium-sized subset (~100) of
other members through a bootstrap query plus periodic neighbour-information
gossip (Sections 3.3 and 4.1).  For simulation we model the *converged*
behaviour of such a gossip substrate: a query for ``k`` known members
returns ``k`` members sampled uniformly from the live population.  This is
the standard abstraction for peer-sampling services (uniform random
partial views) and is what both join-candidate selection and MLC-group
construction consume.

The service keeps O(1) registration/removal via the swap-pop idiom and
samples without replacement deterministically from a dedicated RNG stream.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..errors import ProtocolError
from .node import OverlayNode


class MembershipService:
    """Uniform peer sampling over the currently registered members."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._nodes: List[OverlayNode] = []
        self._index: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: OverlayNode) -> bool:
        return node.member_id in self._index

    def register(self, node: OverlayNode) -> None:
        """Add a member to the sampling population."""
        if node.member_id in self._index:
            raise ProtocolError(f"member {node.member_id} already registered")
        self._index[node.member_id] = len(self._nodes)
        self._nodes.append(node)

    def unregister(self, node: OverlayNode) -> None:
        """Remove a member (O(1) swap-pop)."""
        pos = self._index.pop(node.member_id, None)
        if pos is None:
            raise ProtocolError(f"member {node.member_id} not registered")
        last = self._nodes.pop()
        if last is not node:
            self._nodes[pos] = last
            self._index[last.member_id] = pos

    def sample(
        self,
        k: int,
        exclude: Iterable[OverlayNode] = (),
        attached_only: bool = True,
    ) -> List[OverlayNode]:
        """Up to ``k`` distinct members, uniformly at random.

        ``attached_only`` restricts the view to members currently holding a
        tree position (a detached, rejoining member is unreachable for data
        and should not be offered as a join candidate).  Returns fewer than
        ``k`` members if the eligible population is smaller.
        """
        if k < 0:
            raise ProtocolError(f"sample size must be >= 0, got {k}")
        excluded: Set[int] = {n.member_id for n in exclude}
        nodes = self._nodes
        population = len(nodes)
        if population == 0 or k == 0:
            return []
        # Fast path: sample indices and filter; fall back to a full filtered
        # pass when the eligible fraction is too small for rejection sampling.
        if k * 3 < population:
            integers = self._rng.integers
            picked: List[OverlayNode] = []
            seen: Set[int] = set()
            attempts = 0
            max_attempts = 8 * k + 32
            while len(picked) < k and attempts < max_attempts:
                # Each draw picks at most one member, so the loop is certain
                # to make ``m`` more draws; one vector call consumes the
                # generator exactly as ``m`` scalar ``integers`` calls would.
                # The array round trip dominates a one- or two-element
                # draw (referee picks), so those draw scalars.
                m = min(k - len(picked), max_attempts - attempts)
                attempts += m
                if m == 1:
                    indices = (integers(0, population),)
                elif m == 2:
                    indices = (integers(0, population), integers(0, population))
                else:
                    indices = integers(0, population, size=m).tolist()
                for idx in indices:
                    node = nodes[idx]
                    member_id = node.member_id
                    if member_id in seen:
                        continue
                    seen.add(member_id)
                    if member_id not in excluded and (
                        node.attached or not attached_only
                    ):
                        picked.append(node)
            if len(picked) == k:
                return picked
        # Filter by attachment first, then remove the few excluded members
        # that are registered and eligible: the same list, in the same
        # order, as testing every member against ``excluded``.
        if attached_only:
            candidates = [n for n in nodes if n.attached]
        else:
            candidates = list(nodes)
        index = self._index
        for member_id in excluded:
            pos = index.get(member_id)
            if pos is not None and (nodes[pos].attached or not attached_only):
                candidates.remove(nodes[pos])
        if len(candidates) <= k:
            return candidates
        indices = self._rng.choice(len(candidates), size=k, replace=False)
        return [candidates[i] for i in indices.tolist()]

    def sample_for(
        self,
        node: OverlayNode,
        k: int,
        exclude: Iterable[OverlayNode] = (),
        attached_only: bool = True,
    ) -> List[OverlayNode]:
        """Members known to ``node`` specifically.

        The abstract service models a converged peer-sampling substrate,
        so every member sees the same uniform distribution; the gossip
        implementation (:class:`repro.overlay.gossip.GossipMembership`)
        overrides this with the member's actual view.
        """
        return self.sample(k, exclude=[node, *exclude], attached_only=attached_only)

    def random_member(
        self, exclude: Iterable[OverlayNode] = (), attached_only: bool = True
    ) -> Optional[OverlayNode]:
        """One uniformly random eligible member, or None."""
        picked = self.sample(1, exclude=exclude, attached_only=attached_only)
        return picked[0] if picked else None
