"""Minimum-depth and longest-first placement policies."""

import pytest

from repro.protocols.longest_first import LongestFirstProtocol
from repro.protocols.minimum_depth import MinimumDepthProtocol
from tests.protocol_harness import Harness


@pytest.fixture()
def harness(tiny_topology, tiny_oracle):
    return Harness(tiny_topology, tiny_oracle, root_cap=2)


class TestMinimumDepth:
    def test_first_member_attaches_to_root(self, harness):
        proto = MinimumDepthProtocol(harness.ctx)
        node = harness.new_member()
        assert proto.place(node, rejoin=False)
        assert node.parent is harness.tree.root

    def test_prefers_highest_spare_parent(self, harness):
        proto = MinimumDepthProtocol(harness.ctx)
        high = harness.new_member(bandwidth=5.0)
        assert proto.place(high, rejoin=False)
        deep = harness.new_member(bandwidth=5.0)
        assert proto.place(deep, rejoin=False)
        # root now full (cap 2); the next member must land at layer 2
        joiner = harness.new_member(bandwidth=0.5, cap=0)
        assert proto.place(joiner, rejoin=False)
        assert joiner.layer == 2

    def test_fails_without_capacity(self, tiny_topology, tiny_oracle):
        harness = Harness(tiny_topology, tiny_oracle, root_cap=1)
        proto = MinimumDepthProtocol(harness.ctx)
        a = harness.new_member(bandwidth=0.5, cap=0)
        b = harness.new_member(bandwidth=0.5, cap=0)
        assert proto.place(a, rejoin=False)
        assert not proto.place(b, rejoin=False)
        assert not b.attached

    def test_no_optimization_overhead(self, harness):
        proto = MinimumDepthProtocol(harness.ctx)
        nodes = [harness.new_member() for _ in range(6)]
        for node in nodes:
            proto.place(node, rejoin=False)
        assert sum(n.optimization_reconnections for n in nodes) == 0


class TestLongestFirst:
    def test_prefers_oldest_parent(self, harness):
        proto = LongestFirstProtocol(harness.ctx)
        harness.sim.run_until(100.0)
        old = harness.new_member(bandwidth=3.0, join_time=0.0)
        young = harness.new_member(bandwidth=3.0, join_time=90.0)
        harness.tree.attach(old, harness.tree.root)
        harness.tree.attach(young, harness.tree.root)
        joiner = harness.new_member(join_time=100.0)
        assert proto.place(joiner, rejoin=False)
        # the root (join time 0) ties with `old`; both are acceptable
        assert joiner.parent in (old, harness.tree.root)
        assert joiner.parent is not young

    def test_skips_full_old_members(self, harness):
        proto = LongestFirstProtocol(harness.ctx)
        old_full = harness.new_member(bandwidth=1.0, cap=1, join_time=0.0)
        young = harness.new_member(bandwidth=3.0, join_time=50.0)
        harness.tree.attach(old_full, harness.tree.root)
        harness.tree.attach(young, harness.tree.root)
        harness.sim.run_until(60.0)
        filler = harness.new_member(bandwidth=0.5, cap=0)
        harness.tree.attach(filler, old_full)  # old_full now at capacity
        joiner = harness.new_member()
        assert proto.place(joiner, rejoin=False)
        assert joiner.parent is young

    def test_fails_without_capacity(self, tiny_topology, tiny_oracle):
        harness = Harness(tiny_topology, tiny_oracle, root_cap=1)
        proto = LongestFirstProtocol(harness.ctx)
        a = harness.new_member(bandwidth=0.5, cap=0)
        assert proto.place(a, rejoin=False)
        b = harness.new_member(bandwidth=0.5, cap=0)
        assert not proto.place(b, rejoin=False)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is an optional test dependency

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_selectors_match_full_scans():
        pass

else:
    #: (out-degree cap, join time, underlay index, fate) per member.  Few
    #: join times and underlay nodes, so layer, age and delay ties are
    #: common (members on one underlay node are equally far from any
    #: joiner); the root sits on underlay index 0 and joined at 0.0.
    _MEMBERS = st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from((0.0, 5.0, 10.0)),
            st.integers(0, 3),
            st.sampled_from(("attach", "detached", "attach-then-detach")),
        ),
        max_size=14,
    )

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        root_cap=st.integers(0, 3),
        members=_MEMBERS,
        joiner_underlay=st.integers(0, 3),
    )
    def test_selectors_match_full_scans(
        tiny_topology, tiny_oracle, data, root_cap, members, joiner_underlay
    ):
        """The pruned selectors pick the very member the full scans pick."""
        from repro.protocols.base import naive_select_min

        harness = Harness(tiny_topology, tiny_oracle, root_cap=root_cap)
        tree = harness.tree
        nodes = [tree.root]
        for cap, join_time, underlay, fate in members:
            node = harness.new_member(
                bandwidth=float(cap), cap=cap, join_time=join_time,
                underlay_index=underlay,
            )
            nodes.append(node)
            if fate == "detached":
                continue
            parents = [n for n in tree.attached_nodes() if n.spare_degree > 0]
            if not parents:
                continue
            tree.attach(node, data.draw(st.sampled_from(parents), label="parent"))
            if fate == "attach-then-detach":
                tree.detach(node)
        # Repeats allowed: a view may list a member twice.
        candidates = data.draw(st.lists(st.sampled_from(nodes), max_size=24))
        joiner = harness.new_member(underlay_index=joiner_underlay)

        min_depth = MinimumDepthProtocol(harness.ctx)
        assert min_depth.select_min_depth(joiner, candidates) is (
            naive_select_min(harness.oracle, joiner, candidates, "layer")
        )
        longest_first = LongestFirstProtocol(harness.ctx)
        assert longest_first._select_oldest(joiner, candidates) is (
            naive_select_min(harness.oracle, joiner, candidates, "join_time")
        )
