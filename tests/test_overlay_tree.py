"""MulticastTree structural operations and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TreeError
from repro.invariants import check_tree
from repro.overlay.tree import MulticastTree
from tests.conftest import make_node


def new_tree(root_cap=4):
    root = make_node(0, bandwidth=float(root_cap), cap=root_cap, is_root=True)
    return MulticastTree(root)


def add(tree, member_id, cap=2, **kw):
    node = make_node(member_id, bandwidth=float(cap) + 0.5, cap=cap, **kw)
    tree.add_member(node)
    return node


class TestRegistration:
    def test_root_registered(self):
        tree = new_tree()
        assert tree.num_members == 1
        assert tree.num_attached == 1

    def test_requires_root_flag(self):
        with pytest.raises(TreeError):
            MulticastTree(make_node(0))

    def test_duplicate_id_rejected(self):
        tree = new_tree()
        add(tree, 1)
        with pytest.raises(TreeError):
            add(tree, 1)

    def test_second_root_rejected(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.add_member(make_node(1, is_root=True))


class TestAttachDetach:
    def test_attach_sets_layers_and_flags(self):
        tree = new_tree()
        a = add(tree, 1)
        b = add(tree, 2)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        assert (a.layer, b.layer) == (1, 2)
        assert a.attached and b.attached and b.ever_attached
        assert tree.num_attached == 3
        check_tree(tree)

    def test_attach_subtree_relabels(self):
        tree = new_tree()
        a, b, c = add(tree, 1), add(tree, 2), add(tree, 3)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.attach(c, b)
        tree.detach(a)
        assert not c.attached and c.layer == -1
        tree.attach(a, tree.root)
        assert (a.layer, b.layer, c.layer) == (1, 2, 3)
        check_tree(tree)

    def test_attach_capacity_enforced(self):
        tree = new_tree(root_cap=1)
        a = add(tree, 1)
        b = add(tree, 2)
        tree.attach(a, tree.root)
        with pytest.raises(TreeError):
            tree.attach(b, tree.root)

    def test_attach_under_detached_rejected(self):
        tree = new_tree()
        a, b = add(tree, 1), add(tree, 2)
        with pytest.raises(TreeError):
            tree.attach(b, a)

    def test_double_attach_rejected(self):
        tree = new_tree()
        a = add(tree, 1)
        tree.attach(a, tree.root)
        with pytest.raises(TreeError):
            tree.attach(a, tree.root)

    def test_detach_root_rejected(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.detach(tree.root)

    def test_foreign_node_rejected(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.attach(make_node(5), tree.root)


class TestDeparture:
    def test_remove_returns_orphans(self):
        tree = new_tree()
        a, b, c = add(tree, 1, cap=3), add(tree, 2), add(tree, 3)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.attach(c, a)
        orphans = tree.remove_departed(a)
        assert set(orphans) == {b, c}
        assert all(o.parent is None and not o.attached for o in orphans)
        assert 1 not in tree.members
        check_tree(tree)

    def test_remove_detached_member(self):
        tree = new_tree()
        a, b = add(tree, 1), add(tree, 2)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.detach(a)  # a and b now detached, b still under a
        orphans = tree.remove_departed(a)
        assert orphans == [b]
        assert b.parent is None

    def test_root_never_departs(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.remove_departed(tree.root)

    def test_pop_children_requires_detached(self):
        tree = new_tree()
        a = add(tree, 1)
        tree.attach(a, tree.root)
        with pytest.raises(TreeError):
            tree.pop_children(a)


class TestSwap:
    def build_fig2(self):
        """Fig. 2 of the paper: a(cap 2) above b(cap 3) with children."""
        tree = new_tree(root_cap=4)
        a = add(tree, 1, cap=2)  # parent, BTP 10
        b = add(tree, 2, cap=3)  # initiator, BTP 12
        c = add(tree, 3, cap=0)  # sibling of b
        d, e, f = add(tree, 4, cap=0), add(tree, 5, cap=0), add(tree, 6, cap=0)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.attach(c, a)
        for child in (d, e, f):
            tree.attach(child, b)
        return tree, a, b, c, d, e, f

    def test_fig2_swap(self):
        tree, a, b, c, d, e, f = self.build_fig2()
        btp = {4: 3.0, 5: 4.0, 6: 5.0}  # f has the largest BTP

        needs_rejoin = tree.swap_with_parent(
            b, overflow_priority=lambda n: btp.get(n.member_id, 0.0)
        )
        assert needs_rejoin == []
        # b took a's position; a demoted below b
        assert b.parent is tree.root and b.layer == 1
        assert a.parent is b and a.layer == 2
        # sibling c moved under b, keeping its layer
        assert c.parent is b and c.layer == 2
        # a adopted d and e; f (largest BTP) reconnected to b
        assert {n.member_id for n in a.children} == {4, 5}
        assert f.parent is b and f.layer == 2
        assert d.layer == 3 and e.layer == 3
        check_tree(tree)

    def test_swap_requires_grandparent(self):
        tree = new_tree()
        a, b = add(tree, 1, cap=2), add(tree, 2, cap=2)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        with pytest.raises(TreeError):
            tree.swap_with_parent(a, overflow_priority=lambda n: 0.0)

    def test_swap_capacity_precondition(self):
        tree = new_tree()
        a = add(tree, 1, cap=3)
        b = add(tree, 2, cap=1)  # too small to adopt 2 siblings + parent
        s1, s2 = add(tree, 3, cap=0), add(tree, 4, cap=0)
        mid = add(tree, 5, cap=3)
        tree.attach(mid, tree.root)
        tree.attach(a, mid)
        tree.attach(b, a)
        tree.attach(s1, a)
        tree.attach(s2, a)
        with pytest.raises(TreeError):
            tree.swap_with_parent(b, overflow_priority=lambda n: 0.0)

    def test_swap_overflow_to_rejoin_without_guard(self):
        """If the initiator cannot absorb the overflow (possible only when
        the bandwidth guard is ablated) the extras are detached."""
        tree = new_tree()
        mid = add(tree, 9, cap=4)
        a = add(tree, 1, cap=1)  # parent with tiny capacity
        b = add(tree, 2, cap=1)  # initiator, same capacity
        x, y = add(tree, 3, cap=0), add(tree, 4, cap=0)
        tree.attach(mid, tree.root)
        tree.attach(a, mid)
        tree.attach(b, a)
        # b's children: x and y cannot both return under a (cap 1) and b
        # has no spare after adopting a
        tree.attach(x, b)
        with pytest.raises(TreeError):
            tree.attach(y, b)  # b's cap is 1; craft differently
        # rebuild: b cap 2 with two children; a cap 1
        tree2 = new_tree()
        mid2 = tree2.root
        a2 = add(tree2, 1, cap=1)
        b2 = add(tree2, 2, cap=2)
        x2, y2 = add(tree2, 3, cap=0), add(tree2, 4, cap=0)
        tree2.attach(a2, mid2)
        tree2.attach(b2, a2)
        tree2.attach(x2, b2)
        tree2.attach(y2, b2)
        rejoins = tree2.swap_with_parent(b2, overflow_priority=lambda n: n.member_id)
        # a2 keeps one child; b2 has a2 plus one overflow... b2 cap=2 holds
        # a2 and the higher-priority child; the remaining child is orphaned
        assert len(rejoins) == 0 or all(not r.attached for r in rejoins)
        check_tree(tree2)


class TestPromotion:
    def test_promote_moves_subtree_up(self):
        tree = new_tree()
        a = add(tree, 1, cap=2)
        b = add(tree, 2, cap=2)
        c = add(tree, 3, cap=0)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.attach(c, b)
        tree.promote_to_grandparent(b)
        assert b.parent is tree.root
        assert b.layer == 1 and c.layer == 2
        assert a.children == []
        check_tree(tree)

    def test_promote_requires_spare(self):
        tree = new_tree(root_cap=1)
        a = add(tree, 1, cap=2)
        b = add(tree, 2, cap=2)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        with pytest.raises(TreeError):
            tree.promote_to_grandparent(b)

    def test_promote_requires_grandparent(self):
        tree = new_tree()
        a = add(tree, 1, cap=2)
        tree.attach(a, tree.root)
        with pytest.raises(TreeError):
            tree.promote_to_grandparent(a)


class TestListeners:
    def test_position_events_fired(self):
        tree = new_tree()
        seen = []
        tree.position_listeners.append(lambda n: seen.append(n.member_id))
        a = add(tree, 1)
        tree.attach(a, tree.root)
        assert 1 in seen and 0 in seen  # child attached, parent re-indexed

    def test_detach_events_fired(self):
        tree = new_tree()
        gone = []
        tree.detach_listeners.append(lambda n: gone.append(n.member_id))
        a, b = add(tree, 1), add(tree, 2)
        tree.attach(a, tree.root)
        tree.attach(b, a)
        tree.detach(a)
        assert set(gone) == {1, 2}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=60),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_random_operation_sequences_keep_invariants(caps, seed):
    """Random attach/detach/depart/swap/promote sequences never violate the
    structural invariants."""
    rng = np.random.default_rng(seed)
    tree = new_tree(root_cap=3)
    nodes = []
    for i, cap in enumerate(caps):
        node = make_node(i + 1, bandwidth=cap + 0.5, cap=cap)
        tree.add_member(node)
        nodes.append(node)
    for step in range(len(caps) * 3):
        op = rng.integers(0, 5)
        node = nodes[int(rng.integers(0, len(nodes)))]
        if node.member_id not in tree.members:
            continue
        try:
            if op == 0 and not node.attached and node.parent is None:
                attached = [n for n in tree.attached_nodes() if n.spare_degree > 0
                            and n is not node]
                if attached:
                    tree.attach(node, attached[int(rng.integers(0, len(attached)))])
            elif op == 1 and node.attached:
                tree.detach(node)
            elif op == 2:
                orphans = tree.remove_departed(node)
                for orphan in orphans:
                    pass  # stay detached
            elif op == 3 and node.attached and node.parent is not None:
                parent = node.parent
                if (not parent.is_root and parent.parent is not None
                        and node.out_degree_cap >= len(parent.children)):
                    tree.swap_with_parent(node, overflow_priority=lambda n: n.member_id)
            elif op == 4 and node.attached and node.parent is not None:
                parent = node.parent
                if parent.parent is not None and parent.parent.spare_degree > 0:
                    tree.promote_to_grandparent(node)
        except TreeError:
            raise
        check_tree(tree)
