"""Stateful property testing of the multicast tree.

Hypothesis drives arbitrary interleavings of register / attach / detach /
depart / swap / promote against a model of the membership, checking the
full structural invariant set after every step.  This is the strongest
guard against subtle layer/attached-flag corruption under operation
sequences no example-based test would think of.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.invariants import check_tree
from repro.overlay.tree import MulticastTree
from tests.conftest import make_node


class TreeMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**31 - 1))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        root = make_node(0, bandwidth=3.0, cap=3, is_root=True)
        self.tree = MulticastTree(root)
        self.next_id = 1

    # -- helpers -------------------------------------------------------------

    def _random_member(self, predicate):
        candidates = [n for n in self.tree.members.values() if predicate(n)]
        if not candidates:
            return None
        return candidates[int(self.rng.integers(0, len(candidates)))]

    # -- rules ----------------------------------------------------------------

    @rule(cap=st.integers(0, 4))
    def register(self, cap):
        node = make_node(self.next_id, bandwidth=cap + 0.5, cap=cap)
        self.next_id += 1
        self.tree.add_member(node)

    @rule()
    def attach(self):
        child = self._random_member(
            lambda n: not n.attached and n.parent is None and not n.is_root
        )
        parent = self._random_member(lambda n: n.attached and n.spare_degree > 0)
        if child is None or parent is None or child is parent:
            return
        self.tree.attach(child, parent)

    @rule()
    def detach(self):
        node = self._random_member(lambda n: n.attached and not n.is_root)
        if node is None:
            return
        self.tree.detach(node)

    @rule()
    def depart(self):
        node = self._random_member(lambda n: not n.is_root)
        if node is None:
            return
        self.tree.remove_departed(node)

    @rule()
    def swap(self):
        node = self._random_member(
            lambda n: n.attached
            and n.parent is not None
            and not n.parent.is_root
            and n.parent.parent is not None
            and n.out_degree_cap >= len(n.parent.children)
        )
        if node is None:
            return
        self.tree.swap_with_parent(node, overflow_priority=lambda n: n.member_id)

    @rule()
    def promote(self):
        node = self._random_member(
            lambda n: n.attached
            and n.parent is not None
            and n.parent.parent is not None
            and n.parent.parent.spare_degree > 0
        )
        if node is None:
            return
        self.tree.promote_to_grandparent(node)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def structure_is_sound(self):
        if hasattr(self, "tree"):
            check_tree(self.tree)

    @invariant()
    def attached_count_matches(self):
        if hasattr(self, "tree"):
            actual = sum(1 for _ in self.tree.attached_nodes())
            assert actual == self.tree.num_attached


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
