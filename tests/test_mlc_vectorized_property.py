"""Property tests: the one-pass MLC view builder == the naive reference.

Hypothesis drives random tree histories — attaches, detaches, rejoins
and parent-child swaps.  Over the resulting tree, the one-pass
``PartialTreeView.from_members`` must build the same view as
``naive_view_from_members``, so that ``select_mlc_group`` and
``select_random_group`` make the same RNG draws on both.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.overlay.node import OverlayNode
from repro.overlay.tree import MulticastTree
from repro.recovery.mlc import (
    PartialTreeView,
    naive_view_from_members,
    select_mlc_group,
    select_random_group,
)

#: Each step: (op selector, parameter draw) — interpreted modulo the
#: currently applicable population so every history is valid.
STEPS = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 10**6)),
    min_size=1,
    max_size=60,
)


def _build_history(steps):
    """Replay a random structural history; returns the tree."""
    root = OverlayNode(0, underlay_node=0, bandwidth=1.0, out_degree_cap=4,
                       join_time=0.0, is_root=True)
    tree = MulticastTree(root)
    next_id = 1
    detached = []
    for op, param in steps:
        attached = [n for n in tree.members.values() if n.attached]
        if op < 55 or len(attached) < 3:
            # join: new member under a random attached node with capacity
            parents = [n for n in attached if n.spare_degree > 0]
            if not parents:
                continue
            node = OverlayNode(next_id, underlay_node=next_id, bandwidth=1.0,
                               out_degree_cap=param % 4, join_time=float(next_id))
            next_id += 1
            tree.add_member(node)
            tree.attach(node, parents[param % len(parents)])
        elif op < 70:
            # detach a non-root subtree
            candidates = [n for n in attached if not n.is_root]
            if not candidates:
                continue
            node = candidates[param % len(candidates)]
            tree.detach(node)
            detached.append(node)
        elif op < 85 and detached:
            # reattach a previously detached subtree elsewhere
            node = detached.pop(param % len(detached))
            parents = [
                n for n in tree.members.values()
                if n.attached and n.spare_degree > 0
                and n not in node.descendants() and n is not node
            ]
            if parents:
                tree.attach(node, parents[param % len(parents)])
            else:
                detached.append(node)
        else:
            # swap a node with its (non-root) parent when capacity allows
            swappable = [
                n for n in attached
                if n.parent is not None and not n.parent.is_root
                and len([c for c in n.parent.children if c is not n]) + 1
                <= n.out_degree_cap
            ]
            if swappable:
                node = swappable[param % len(swappable)]
                tree.swap_with_parent(node, overflow_priority=lambda c: c.member_id)
    return tree


@settings(max_examples=40, deadline=None)
@given(
    steps=STEPS,
    select_seed=st.integers(0, 2**32 - 1),
    group_size=st.integers(1, 8),
    exclude_pick=st.none() | st.integers(0, 10**6),
)
def test_select_mlc_group_matches_naive_view(
    steps, select_seed, group_size, exclude_pick
):
    """One-pass view == path-by-path reference view, draw for draw.

    ``PartialTreeView.from_members`` walks each member's parent chain only
    up to the view; ``naive_view_from_members`` adds every full root path.
    Over a shuffled sample (ancestors often listed after descendants) and
    an optional excluded subtree, both must list the same members in the
    same order with the same children, and identical-seeded MLC and
    random selection must return the same group.
    """
    tree = _build_history(steps)
    attached = [n for n in tree.members.values() if n.attached]
    if len(attached) < 2:
        return
    rng = np.random.default_rng(select_seed)
    known = [attached[int(i)] for i in rng.permutation(len(attached))]
    exclude = set()
    if exclude_pick is not None:
        top = attached[exclude_pick % len(attached)]
        exclude = {top.member_id, *(n.member_id for n in top.descendants())}

    view_fast = PartialTreeView.from_members(known, exclude=exclude)
    view_naive = naive_view_from_members(known, exclude=exclude)

    assert view_fast.member_ids() == view_naive.member_ids()
    for mid in view_fast.member_ids():
        assert view_fast.children_of(mid) == view_naive.children_of(mid)

    for select in (select_mlc_group, select_random_group):
        fast = select(view_fast, group_size, np.random.default_rng(select_seed))
        naive = select(view_naive, group_size, np.random.default_rng(select_seed))
        assert fast == naive
