"""MLC group selection: loss correlation, partial views, Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecoveryError
from repro.overlay.tree import MulticastTree
from repro.recovery.mlc import (
    PartialTreeView,
    group_loss_correlation,
    loss_correlation,
    naive_view_from_members,
    root_path_ids,
    select_mlc_group,
    select_random_group,
)
from tests.conftest import make_node


def build_two_subtrees():
    """root -> {a, b}; a -> {a1, a2}; b -> {b1}; a1 -> {a1x}."""
    root = make_node(0, cap=10, is_root=True)
    tree = MulticastTree(root)
    nodes = {}
    for mid, cap in [(1, 5), (2, 5), (11, 5), (12, 5), (21, 5), (111, 5)]:
        nodes[mid] = make_node(mid, cap=cap)
        tree.add_member(nodes[mid])
    tree.attach(nodes[1], root)
    tree.attach(nodes[2], root)
    tree.attach(nodes[11], nodes[1])
    tree.attach(nodes[12], nodes[1])
    tree.attach(nodes[21], nodes[2])
    tree.attach(nodes[111], nodes[11])
    return tree, nodes


class TestLossCorrelation:
    def test_root_paths(self):
        tree, nodes = build_two_subtrees()
        assert root_path_ids(nodes[111]) == [0, 1, 11, 111]
        assert root_path_ids(tree.root) == [0]

    def test_same_subtree_correlated(self):
        tree, nodes = build_two_subtrees()
        assert loss_correlation(nodes[11], nodes[12]) == 1  # share edge root->1
        assert loss_correlation(nodes[111], nodes[11]) == 2

    def test_different_subtrees_uncorrelated(self):
        tree, nodes = build_two_subtrees()
        assert loss_correlation(nodes[11], nodes[21]) == 0
        assert loss_correlation(nodes[1], nodes[2]) == 0

    def test_group_sum(self):
        tree, nodes = build_two_subtrees()
        same = group_loss_correlation([nodes[11], nodes[12], nodes[111]])
        spread = group_loss_correlation([nodes[11], nodes[21], nodes[2]])
        assert same > spread


class TestPartialTreeView:
    def test_build_from_members(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members([nodes[111], nodes[21]])
        assert len(view) == 6  # 0,1,11,111,2,21
        assert view.children_of(0) == [1, 2]
        assert view.children_of(1) == [11]
        assert view.levels()[0] == [0]

    def test_exclusion_truncates_paths(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members(
            [nodes[111], nodes[21]], exclude=[11]
        )
        assert 11 not in view
        assert 111 not in view  # below the excluded member
        assert 21 in view

    def test_descendants(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members([nodes[111], nodes[12], nodes[21]])
        assert set(view.descendants_of(1)) == {11, 111, 12}
        assert view.descendants_of(21) == []

    def test_empty_sample_rejected(self):
        with pytest.raises(RecoveryError):
            PartialTreeView.from_members([])

    def test_root_excluded_leaves_root_only(self):
        tree, nodes = build_two_subtrees()
        known = [nodes[111], nodes[21]]
        view = PartialTreeView.from_members(known, exclude=[0])
        assert view.member_ids() == [0]
        assert view.children_of(0) == []
        assert naive_view_from_members(known, exclude=[0]).member_ids() == [0]

    def test_member_listed_twice(self):
        tree, nodes = build_two_subtrees()
        known = [nodes[111], nodes[21], nodes[111]]
        view = PartialTreeView.from_members(known)
        assert view.member_ids() == [0, 1, 11, 111, 2, 21]
        assert view.children_of(11) == [111]
        assert view.member_ids() == naive_view_from_members(known).member_ids()

    def test_ancestor_listed_after_descendant(self):
        tree, nodes = build_two_subtrees()
        known = [nodes[111], nodes[12], nodes[1], nodes[11]]
        view = PartialTreeView.from_members(known, exclude=[12])
        assert view.member_ids() == [0, 1, 11, 111]
        assert view.children_of(1) == [11]
        naive = naive_view_from_members(known, exclude=[12])
        assert view.member_ids() == naive.member_ids()

    def test_detached_member_rejected(self):
        tree, nodes = build_two_subtrees()
        tree.detach(nodes[11])  # 11 and 111 now form their own component
        known = [nodes[21], nodes[111]]
        with pytest.raises(RecoveryError) as fast:
            PartialTreeView.from_members(known)
        with pytest.raises(RecoveryError) as naive:
            naive_view_from_members(known)
        assert str(fast.value) == str(naive.value)
        assert str(fast.value) == "path starts at 11, expected root 0"
        # A component whose top is excluded is skipped, not rejected.
        view = PartialTreeView.from_members(known, exclude=[11])
        assert view.member_ids() == [0, 2, 21]

    def test_unknown_member_queries_rejected(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members([nodes[21]])
        with pytest.raises(RecoveryError):
            view.children_of(999)


class TestAlgorithm1:
    def test_group_spans_subtrees(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members(
            [nodes[111], nodes[12], nodes[21]]
        )
        rng = np.random.default_rng(0)
        group = select_mlc_group(view, 2, rng)
        assert len(group) == 2
        # K=2 anchors at level 0 (|L0|=1 < 2 <= |L1|=2): one pick per
        # root-subtree, so the group never collapses into one subtree
        sub_a = {1, 11, 12, 111}
        sub_b = {2, 21}
        assert (group[0] in sub_a) != (group[1] in sub_a)
        assert all(m in sub_a | sub_b for m in group)

    def test_group_excludes_root(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members([nodes[11], nodes[21]])
        for k in (1, 2, 3):
            group = select_mlc_group(view, k, np.random.default_rng(1))
            assert 0 not in group

    def test_group_size_capped_by_view(self):
        tree, nodes = build_two_subtrees()
        view = PartialTreeView.from_members([nodes[21]])
        group = select_mlc_group(view, 5, np.random.default_rng(2))
        assert 0 < len(group) <= 5

    def test_empty_view_yields_empty_group(self):
        view = PartialTreeView(root_id=0)
        assert select_mlc_group(view, 3, np.random.default_rng(0)) == []

    def test_invalid_group_size(self):
        view = PartialTreeView(root_id=0)
        with pytest.raises(RecoveryError):
            select_mlc_group(view, 0, np.random.default_rng(0))

    def test_mlc_beats_random_on_correlation(self):
        """On a lopsided tree, Algorithm 1 yields lower pairwise loss
        correlation than uniform selection (averaged over draws)."""
        root = make_node(0, cap=10, is_root=True)
        tree = MulticastTree(root)
        # one deep chain and two shallow subtrees
        chain = [root]
        next_id = 1
        for _ in range(8):
            node = make_node(next_id, cap=4)
            tree.add_member(node)
            tree.attach(node, chain[-1])
            chain.append(node)
            next_id += 1
        others = []
        for _ in range(2):
            top = make_node(next_id, cap=4)
            next_id += 1
            tree.add_member(top)
            tree.attach(top, root)
            leaf = make_node(next_id, cap=0)
            next_id += 1
            tree.add_member(leaf)
            tree.attach(leaf, top)
            others.extend([top, leaf])
        members = chain[1:] + others
        view = PartialTreeView.from_members(members)
        rng = np.random.default_rng(7)
        by_id = {n.member_id: n for n in members}

        def total(group):
            return group_loss_correlation([by_id[m] for m in group])

        mlc_scores = [
            total(select_mlc_group(view, 3, rng)) for _ in range(50)
        ]
        random_scores = [
            total(select_random_group(view, 3, rng)) for _ in range(50)
        ]
        assert np.mean(mlc_scores) < np.mean(random_scores)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 6))
def test_algorithm1_properties_on_random_trees(seed, k):
    """Group members are always real view members, distinct, non-root."""
    rng = np.random.default_rng(seed)
    root = make_node(0, cap=5, is_root=True)
    tree = MulticastTree(root)
    members = []
    for mid in range(1, 30):
        node = make_node(mid, cap=3)
        tree.add_member(node)
        candidates = [n for n in tree.attached_nodes() if n.spare_degree > 0]
        tree.attach(node, candidates[int(rng.integers(0, len(candidates)))])
        members.append(node)
    sample_size = int(rng.integers(3, len(members)))
    picks = rng.choice(len(members), size=sample_size, replace=False)
    view = PartialTreeView.from_members([members[i] for i in picks])
    group = select_mlc_group(view, k, rng)
    assert len(group) <= k
    assert len(set(group)) == len(group)
    assert 0 not in group
    assert all(m in view for m in group)
